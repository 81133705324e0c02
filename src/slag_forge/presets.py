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


def _fnum(v: float) -> str:
    return f"{v:g}".replace("-", "m")


def preset_families(name: str, grid_n: int = 256):
    """Yield the families of a preset, one list of
    (filename_stem, manifold, trace, params_object) per family call."""
    if name == "fig5":
        p = tn.TNParams(1.0, 1.0)
        for c1 in (1.0, 2.0, 3.0, 4.0, 5.0):
            trace = sc.tn_u1_case1(c1, 0.5)[0]
            yield [(f"fig5_c1_{_fnum(c1)}_c2_0.5", "tn", trace, p)]
        for c2 in (0.2, 0.4, 0.6, 0.8, 1.0):
            trace = sc.tn_u1_case1(1.0, c2)[0]
            yield [(f"fig5_c1_1_c2_{_fnum(c2)}", "tn", trace, p)]
    elif name == "fig6":
        p = tn.TNParams(1.0, 1.0)
        for c in (1.0, 2.0, 3.0, 4.0, 5.0):
            trace = sc.tn_u1_case2(c)[0]
            yield [(f"fig6_c_{_fnum(c)}", "tn", trace, p)]
    elif name == "fig7":
        p = tn.TNParams(1.0, 1.0)
        for c1 in range(1, 11):
            trace = sc.tn_so2_curve(float(c1), p, branch="plane")[0]
            yield [(f"fig7_c1_{c1}", "tn", trace, p)]
    elif name == "fig8":
        p = ah.AHParams(1.0, 1)
        for k in (0.3, 0.5, 0.7):
            for c1 in AH_C1_SET:
                stem = f"fig8_k_{_fnum(k)}_c1_{_fnum(c1)}_"
                yield [((stem + trace.tag).replace("+", "p").replace("-", "m"), "ah", trace, p)
                       for trace in sc.ah_traces_theta_phi(k, c1, h=1.0, n=grid_n)]
    elif name == "fig9":
        p = ah.AHParams(1.0, 1)
        for phi, label in ((math.pi / 6, "pi6"), (math.pi / 4, "pi4"),
                           (math.pi / 3, "pi3")):
            for c1 in AH_C1_SET:
                stem = f"fig9_phi_{label}_c1_{_fnum(c1)}_"
                yield [((stem + trace.tag).replace("+", "p").replace("-", "m"), "ah", trace, p)
                       for trace in sc.ah_traces_theta_k(phi, c1, h=1.0, n=grid_n)]
    else:
        raise EmptyDomainError(f"unknown preset {name!r}")


def preset_traces(name: str):
    """Yield (filename_stem, manifold, trace, params_object) for a preset."""
    return (item for family in preset_families(name) for item in family)


def preset_plane_columns(name: str) -> tuple[str, str]:
    """The two columns spanning the figure plane of a preset (x, y)."""
    return {
        "fig5": ("phi", "r"),
        "fig6": ("phi", "theta"),
        "fig7": ("r", "theta"),
        "fig8": ("theta", "phi"),
        "fig9": ("theta", "k"),
    }[name]
