"""Minimal SVG polyline overlay with axis ticks (no styling options)."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_W, _H, _MARGIN = 640, 480, 50


def _ticks(lo: float, hi: float):
    """About five round-numbered ticks on [lo, hi]."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 5.0, 10.0)), key=lambda m: abs(m * mag - raw)) * mag
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out


def write_svg(path: str | Path, polylines: list[np.ndarray], xlabel: str,
              ylabel: str, title: str = "") -> None:
    """Overlay of (m, 2) polylines in data coordinates, with tick marks."""
    pts = np.vstack([p for p in polylines if len(p)]) if polylines else np.zeros((1, 2))
    x0, x1 = float(np.min(pts[:, 0])), float(np.max(pts[:, 0]))
    y0, y1 = float(np.min(pts[:, 1])), float(np.max(pts[:, 1]))
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def sx(x):
        return _MARGIN + (x - x0) / (x1 - x0) * (_W - 2 * _MARGIN)

    def sy(y):
        return _H - _MARGIN - (y - y0) / (y1 - y0) * (_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="15" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 15 {_H // 2})">{ylabel}</text>',
    ]
    for t in _ticks(x0, x1):
        parts.append(f'<line x1="{sx(t):.2f}" y1="{_H - _MARGIN}" x2="{sx(t):.2f}" '
                     f'y2="{_H - _MARGIN + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(t):.2f}" y="{_H - _MARGIN + 18}" '
                     f'text-anchor="middle" font-size="10">{t:g}</text>')
    for t in _ticks(y0, y1):
        parts.append(f'<line x1="{_MARGIN - 5}" y1="{sy(t):.2f}" x2="{_MARGIN}" '
                     f'y2="{sy(t):.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN - 8}" y="{sy(t):.2f}" text-anchor="end" '
                     f'font-size="10">{t:g}</text>')
    for poly in polylines:
        if len(poly) < 2:
            continue
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in poly)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="black" '
                     f'stroke-width="1"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
