"""Figure presets: the parameter families behind the five reference figures.

fig5: tri-holomorphic U(1), (phi, r)-plane; c1 = 1..5 at c2 = 1/2 and c1 = 1
      at c2 = 1/5, 2/5, ..., 1.
fig6: tri-holomorphic U(1), (phi, theta)-plane; c = 1..5.
fig7: rotational SO(2) level sets in the (r, theta)-plane; c1 = 1..10, m = h = 1.
fig8: Atiyah-Hitchin (theta, phi)-plane; k in {0.3, 0.5, 0.7}, c1 in {0, +-1..+-10}.
fig9: Atiyah-Hitchin (theta, k)-plane; phi in {pi/6, pi/4, pi/3}, same c1 set.

The closed-form presets emit the "+" arccos branch (the "-" branch is its
mirror and is available through the library API); the implicit presets emit
both sin(2 psi) sign branches, tagged.
"""

from __future__ import annotations

import math

from . import atiyah_hitchin as ah
from . import slag_curves as sc
from . import taub_nut as tn
from .errors import EmptyDomainError

PRESET_NAMES = ("fig5", "fig6", "fig7", "fig8", "fig9")

AH_C1_SET = tuple(float(c) for c in range(-10, 11))


def stem(text: str) -> str:
    """The file stem of an Atiyah-Hitchin trace: its name with + and - spelt p and m."""
    return text.replace("+", "p").replace("-", "m")


def preset_families(name: str, grid_n: int = 256):
    """Yield the families of a preset, one (manifold, params_object,
    [(filename_stem, trace), ...]) record per family call."""
    p = ah.AHParams(1.0, 1) if name in ("fig8", "fig9") else tn.TNParams(1.0, 1.0)
    if name == "fig5":
        for c1 in (1.0, 2.0, 3.0, 4.0, 5.0):
            yield "tn", p, [(f"fig5_c1_{c1:g}_c2_0.5", sc.tn_u1_case1(c1, 0.5)[0])]
        for c2 in (0.2, 0.4, 0.6, 0.8, 1.0):
            yield "tn", p, [(f"fig5_c1_1_c2_{c2:g}", sc.tn_u1_case1(1.0, c2)[0])]
    elif name == "fig6":
        for c in (1.0, 2.0, 3.0, 4.0, 5.0):
            yield "tn", p, [(f"fig6_c_{c:g}", sc.tn_u1_case2(c)[0])]
    elif name == "fig7":
        for c1 in range(1, 11):
            yield "tn", p, [(f"fig7_c1_{c1}", sc.tn_so2_curve(float(c1), p, branch="plane")[0])]
    elif name in ("fig8", "fig9"):
        family = sc.ah_traces_theta_phi if name == "fig8" else sc.ah_traces_theta_k
        fixed = ({"k_0.3": 0.3, "k_0.5": 0.5, "k_0.7": 0.7} if name == "fig8" else
                 {"phi_pi6": math.pi / 6, "phi_pi4": math.pi / 4, "phi_pi3": math.pi / 3})
        for label, value in fixed.items():
            for c1 in AH_C1_SET:
                yield "ah", p, [(stem(f"{name}_{label}_c1_{c1:g}_{trace.tag}"), trace)
                                for trace in family(value, c1, h=1.0, n=grid_n)]
    else:
        raise EmptyDomainError(f"unknown preset {name!r}")


def preset_traces(name: str):
    """Yield (filename_stem, manifold, trace, params_object) for a preset."""
    return ((file_stem, manifold, trace, params)
            for manifold, params, family in preset_families(name) for file_stem, trace in family)


def preset_plane_columns(name: str) -> tuple[str, str]:
    """The two columns spanning the figure plane of a preset (x, y)."""
    return {
        "fig5": ("phi", "r"),
        "fig6": ("phi", "theta"),
        "fig7": ("r", "theta"),
        "fig8": ("theta", "phi"),
        "fig9": ("theta", "k"),
    }[name]
