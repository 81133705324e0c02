"""One Atiyah-Hitchin point and a batch run through the same array path.

Points are drawn, seeded, from the box of the ah-points benchmark (the fig9
rectangle in k and theta, every phi and psi).  A point given as a
one-element array is the batch arithmetic at length one: every field of
the chart state, its curve data, pi(x_pm), the u coordinate and the metric
block has the bits of the point's row in a batch of 64.  A point given as
Python floats or NumPy float64 scalars takes scalar arithmetic (Python
complex, NumPy scalar division and powers, no fused multiply-add), so it
agrees with that row to rounding only: about 2e-12 relative at worst on the
coefficients, where v_pm = Im, Re (v / sqrt z) cancels.

The typed errors of one query keep their class and message whether the
point comes as scalars or as one-element arrays.
"""

import dataclasses
import math

import numpy as np
import pytest

from slag_forge import atiyah_hitchin as ah
from slag_forge.elliptic import elliptic_data
from slag_forge.errors import (ChartError, DegenerateError, DomainError, PoleError,
                               SlagForgeError)

BOX = ((0.02, 0.98), (0.02, math.pi - 0.02), (0.0, 2.0 * math.pi), (0.0, 4.0 * math.pi))
P = ah.AHParams(1.0, 1)
BATCH = 64


def _regular_points(seed: int) -> np.ndarray:
    """BATCH rows (k, theta, phi, psi) whose chart state and metric block exist."""
    lo, hi = np.array(BOX).T
    rows = []
    for row in lo + np.random.default_rng(seed).random((4 * BATCH, 4)) * (hi - lo):
        try:
            state = ah.ah_from_spherical(ah.AHSphericalPoint(*row), P)
            ah.ah_metric_UZ(state, P)
            ah.ah_u_coordinate(state, P)
        except SlagForgeError:
            continue
        rows.append(row)
    return np.array(rows[:BATCH])


def _fields(point: ah.AHSphericalPoint) -> dict:
    """Every field of the chart state, its EllipticData and the metric block,
    pi(x_pm), (u, U, Z) and the coefficients (A+, A-, B+, B-, V)."""
    state = ah.ah_from_spherical(point, P)
    out = dict(zip(("pi_plus", "pi_minus"), ah.ah_pi_xpm(state)))
    out.update(zip(("u", "U", "Z"), ah.ah_u_coordinate(state, P)))
    out.update(zip(("Aplus", "Aminus", "Bplus", "Bminus", "Vcap"), ah.ah_coeffs(state)))
    for obj in (state, state.elliptic, ah.ah_metric_UZ(state, P)):
        for f in dataclasses.fields(obj):
            if f.name != "elliptic":
                out[f.name] = getattr(obj, f.name)
    return out


def _bits(value) -> tuple:
    a = np.asarray(value)
    return a.dtype.str, a.tobytes()


@pytest.mark.parametrize("seed", [11, 12])
def test_one_element_array_has_the_bits_of_its_batch_row(seed):
    pts = _regular_points(seed)
    assert len(pts) == BATCH
    batch = _fields(ah.AHSphericalPoint(*pts.T))
    for i, row in enumerate(pts):
        one = _fields(ah.AHSphericalPoint(*(row[j:j + 1] for j in range(4))))
        for name, value in one.items():
            assert _bits(np.asarray(value)[0]) == _bits(np.asarray(batch[name])[i]), (i, name)


@pytest.mark.parametrize("seed", [11, 12])
def test_scalar_point_agrees_with_its_batch_row(seed):
    pts = _regular_points(seed)
    batch = _fields(ah.AHSphericalPoint(*pts.T))
    for i, row in enumerate(pts):
        for form in (row.tolist(), tuple(row)):     # Python floats, np.float64
            one = _fields(ah.AHSphericalPoint(*form))
            for name, value in one.items():
                assert np.ndim(value) == 0, name
                assert np.isclose(value, batch[name][i], rtol=1e-10, atol=0.0), (i, name)


def _forms(*values):
    """The same input as scalars and as one-element arrays."""
    return [values, tuple(np.array([v]) for v in values)]


@pytest.mark.parametrize("form", [0, 1], ids=["scalar", "array"])
@pytest.mark.parametrize("field, bad, message", [
    ("k", 1.5, "k must lie in (0, 1), got {!r}"),
    ("theta", 4.0, "theta must lie in [0, pi], got {!r}"),
    ("phi", 7.0, "phi must lie in [0, 2 pi), got {!r}"),
    ("psi", 13.0, "psi must lie in [0, 4 pi), got {!r}"),
])
def test_domain_error_per_field(form, field, bad, message):
    values = dict(k=0.5, theta=1.0, phi=0.5, psi=0.3)
    values[field] = bad
    args = _forms(*values.values())[form]
    with pytest.raises(DomainError) as err:
        ah.ah_from_spherical(ah.AHSphericalPoint(*args), P)
    # a batch names its first bad entry, its index and the count
    assert str(err.value) == message.format(bad) + ("" if form == 0 else " at index 0 (1 of 1 entries)")


@pytest.mark.parametrize("form", [0, 1], ids=["scalar", "array"])
def test_curve_domain_error_when_rho_underflows(form):
    """h^2 underflows to 0, so the chart's rho = 16 h^2 K^2 fails the curve check."""
    with pytest.raises(DomainError) as err:
        ah.ah_from_spherical(ah.AHSphericalPoint(*_forms(0.5, 1.0, 0.5, 0.3)[form]),
                             ah.AHParams(1e-200, 1))
    # a batch names its first bad entry, its index and the count
    assert str(err.value) == ("elliptic_data requires rho > 0, got rho=0.0"
                              + ("" if form == 0 else " at index 0 (1 of 1 entries)"))


@pytest.mark.parametrize("form", [0, 1], ids=["scalar", "array"])
def test_chart_error_at_z_zero(form):
    """theta = pi/2 and cos 2 psi = 1 - 2 k^2 put z at 0 up to rounding."""
    with pytest.raises(ChartError) as err:
        ah.ah_from_spherical(
            ah.AHSphericalPoint(*_forms(0.5, math.pi / 2, 0.0, math.pi / 6)[form]), P)
    assert str(err.value) == "chart point has z = 0 (sqrt(z) quantities degenerate)"
    z, v, x = _forms(0j, 1.0 + 1.0j, 0.0)[form]
    with pytest.raises(ChartError) as err:
        ah.ah_state_from_zvx(z, v, x, elliptic_data(0.5, 1.0))
    assert str(err.value) == "sqrt(z)-based quantities degenerate at z = 0"


@pytest.mark.parametrize("form", [0, 1], ids=["scalar", "array"])
def test_degenerate_error_on_y_pm_zero(form):
    """theta = 0 gives v = 0, so y_pm = 0 and the coefficients do not exist."""
    state = ah.ah_from_spherical(ah.AHSphericalPoint(*_forms(0.5, 0.0, 0.3, 0.4)[form]), P)
    message = "ah_coeffs: y_pm too small (|y+|=0.000e+00, |y-|=0.000e+00)"
    for read in (ah.ah_coeffs, lambda s: ah.ah_metric_UZ(s, P)):
        with pytest.raises(DegenerateError) as err:
            read(state)
        assert str(err.value) == message


@pytest.mark.parametrize("form", [0, 1], ids=["scalar", "array"])
def test_pole_error_at_a_cut_end(form):
    """x_- = (x - 6|z|)/3 placed on e3, then x_+ placed inside the cut."""
    d = elliptic_data(0.5, 1.0)
    with pytest.raises(PoleError) as err:
        ah.pi_pair_from_zvx(*_forms(1.0 + 0j, 1.0 + 1.0j, 3.0 * d.e3 + 6.0)[form], d)
    assert str(err.value) == "pi(x_-): x_- within 1e-09 of the span of a cut end"
    with pytest.raises(PoleError) as err:
        ah.pi_pair_from_zvx(*_forms(1e-3 + 0j, 1.0 + 1.0j, 1.5 * (d.e2 + d.e3))[form], d)
    assert str(err.value) == "pi(x_+): x_+ lies on the integration cut"
