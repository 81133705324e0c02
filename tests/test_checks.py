"""Batched sample draws of the invariant checks, and the verdicts they feed."""

import math

import numpy as np
import pytest

from slag_forge import checks, taub_nut as tn
from slag_forge.atiyah_hitchin import AHParams
from slag_forge.cli import main

from test_atiyah_hitchin import regular_point


class _CountingRng:
    """Forwards uniform() to a Generator and counts the calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return self.rng.uniform(*args, **kwargs)


@pytest.mark.parametrize("seed", [0, 5, 42])
@pytest.mark.parametrize("n, y_guard", [(500, 1e-3), (100, 3e-3)])
def test_random_ah_point_matches_per_point_loop(seed, n, y_guard):
    """One array of candidates keeps bitwise the points that the per-point
    rejection loop (regular_point, four scalar draws per candidate) accepts."""
    p = AHParams(1.0, 1)
    loop = _CountingRng(seed)
    ref = [regular_point(loop, p, y_guard)[0] for _ in range(n)]
    assert loop.calls > 4 * n          # the loop rejected some candidates
    pt, state = checks.random_ah_point(np.random.default_rng(seed), p, n, y_guard)
    want = np.array([[q.k, q.theta, q.phi, q.psi] for q in ref])
    assert np.array_equal(np.column_stack([pt.k, pt.theta, pt.phi, pt.psi]), want)
    assert state.Aplus is not None and state.z.shape == (n,)


def test_tn_monge_ampere_draws_match_per_sample_loop(monkeypatch):
    """The check's one (1000, 6) draw gives the parameters and points that
    drawing TNParams, then r, angle, phase and Im u, per sample gave."""
    seen = []
    original = tn.tn_metric_holo

    def spy(pt, p):
        seen.append((pt, p))
        return original(pt, p)

    monkeypatch.setattr(tn, "tn_metric_holo", spy)
    assert checks.check_tn_monge_ampere(np.random.default_rng(7))[0]
    (pt, p), = seen
    rng = np.random.default_rng(7)
    for i in range(1000):
        h, m = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0)
        r = rng.uniform(0.1, 100.0)
        ang = rng.uniform(0.05, math.pi - 0.05)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        z = r * math.sin(ang) / 2.0 * complex(math.cos(phase), math.sin(phase))
        assert (p.h[i], p.m[i], pt.u.imag[i]) == (h, m, rng.uniform(-3.0, 3.0))
        assert (pt.x[i], pt.z[i]) == pytest.approx((r * math.cos(ang), z), rel=1e-15)


@pytest.mark.parametrize("seed, fails", [
    (0, {"slag-ah-traces"}),
    (5, {"slag-ah-traces", "lie-derivative"}),
])
def test_verify_fail_lines_at_seeds(seed, fails, capsys):
    """slag-ah-traces is the documented defect; lie-derivative's finite
    differences exceed their 1e-3 gate at seed 5."""
    assert main(["--seed", str(seed), "verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == list(checks.VERIFY_CHECKS)
    assert {line.split()[1] for line in lines if line.startswith("FAIL")} == fails
