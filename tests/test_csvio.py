"""The trace-CSV float kernel: every field is '%.16e' % v, byte for byte."""

import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slag_forge import csvio


def _assert_percent_e16(values, ncols=1):
    """Format values as an (m, ncols) table and compare field by field."""
    x = np.asarray(values, dtype=float).ravel()
    x = np.concatenate([x, np.zeros(-x.size % ncols)])
    rows = csvio._format_e16([x.reshape(-1, ncols)])[0].split("\n")
    assert rows[-1] == ""
    got = [f for row in rows[:-1] for f in row.split(",")]
    ref = ["%.16e" % v for v in x.tolist()]
    assert len(got) == len(ref)
    bad = [(v, g, r) for v, g, r in zip(x.tolist(), got, ref) if g != r]
    assert not bad, f"{len(bad)} of {len(ref)} differ, first {bad[:3]}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 12))
@example([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
          sys.float_info.min, sys.float_info.max, -sys.float_info.max], 12)
def test_kernel_matches_percent_format_on_any_float(values, ncols):
    _assert_percent_e16(values, ncols)


def test_kernel_on_a_seeded_sweep_of_magnitudes():
    """2 * 10^5 values over every decade: away from 10^0..10^27 the table
    entry is inexact, and a few of them are near-ties it must not round."""
    rng = np.random.default_rng(7)
    x = rng.uniform(1.0, 10.0, 200_000) * 10.0 ** rng.integers(-308, 308, 200_000)
    _assert_percent_e16(x * rng.choice([-1.0, 1.0], x.size), 12)


def test_kernel_at_decade_edges():
    """The 6 neighbours on each side of every 10^e, |e| <= 307, both signs:
    the guard on the unrounded scaled value decides these."""
    edges = np.array([float(f"1e{e}") for e in range(-307, 308)])
    near = [edges]
    below = above = edges
    for _ in range(6):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        near += [below, above]
    near = np.concatenate(near)
    _assert_percent_e16(np.concatenate([near, -near]), 12)


def test_kernel_at_powers_of_ten_and_their_multiples():
    """10^e, 2 10^e and 5 10^e for |e| <= 307, and their negatives: the
    kernel writes an exact power (P = 10^16) itself, and 2 10^e and 5 10^e
    (P = 2 10^16, 5 10^16, or the rounded product) as Python does."""
    powers = np.array([float(f"1e{e}") for e in range(-307, 308)])
    values = np.concatenate([powers, 2.0 * powers, 5.0 * powers])
    _assert_percent_e16(np.concatenate([values, -values]), 12)


def test_kernel_at_ties_and_near_ties():
    """k/2^j with odd k has a terminating expansion; at 18 significant digits
    ending in 5 (2^-25, 3 * 2^-27, ...) it is an exact tie, rounded to even."""
    k = np.arange(1, 200, 2, dtype=float)
    dyadic = np.ldexp(k[:, None], -np.arange(0, 80)[None, :]).ravel()
    ties = [2.0**-25, 3 * 2.0**-27, 0.5, 2.5, 1.25e-5, 0.125, 1e16, 1e17, 2.0**53]
    near_ties = [np.nextafter(t, d) for t in ties for d in (0.0, np.inf)]
    ints = np.concatenate([np.arange(-64, 65) * 2.0 + c for c in
                           (1e16, 2.0**53, 2.0**54, 5e16, 1e17 - 128)])
    assert "%.16e" % 2.0**-25 == "2.9802322387695312e-08"
    _assert_percent_e16(np.concatenate([dyadic, ties, near_ties, ints]), 7)


def test_power_table_entries_are_within_one_rounding():
    """Every 10^q of the table lies within u 10^q of the exact power."""
    scale, _ = csvio._tables()
    u = Fraction(*csvio._U.as_integer_ratio())
    for e, entry in zip(range(csvio._E_MIN, csvio._E_MAX + 1), scale):
        exact = Fraction(10) ** (16 - e)
        assert abs(Fraction(*entry.as_integer_ratio()) - exact) <= u * exact, e

