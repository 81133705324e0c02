"""The one reduction behind every guard: does any, or every, entry of a mask hold.

A guard's mask is a bool ndarray for a batch and a plain or NumPy bool for
one point.  np.any and np.all cost about 3 us even on a NumPy bool, nearly
all of it dispatch, and a one-point Atiyah-Hitchin query passes ten guards;
the ndarray method costs about 1 us and bool() about 0.1 us (2-core x86
host, NumPy 2.4).
"""

from __future__ import annotations

import numpy as np


def mask_any(mask) -> bool:
    """True when some entry of the mask (an ndarray or a single bool) holds."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def mask_all(mask) -> bool:
    """True when every entry of the mask (an ndarray or a single bool) holds."""
    return bool(mask.all() if isinstance(mask, np.ndarray) else mask)


def bad_entry(value, ok) -> str:
    """How a failed guard names its input: the value itself for one point;
    for a batch, its first entry where the mask `ok` fails, that entry's
    index and how many entries fail, not the whole array."""
    if not isinstance(ok, np.ndarray):
        return repr(value)
    bad = np.flatnonzero(~ok)
    return (f"{np.asarray(value).flat[bad[0]].item()!r} at index {bad[0]} "
            f"({bad.size} of {ok.size} entries)")
