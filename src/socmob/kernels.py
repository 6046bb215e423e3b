"""Windowed pair-counting kernels on sorted ``int64`` timestamp arrays.

A window query ``|x - y| <= window`` over integer timestamps is the
half-open range ``[x - window, x + window + 1)``, so one ``searchsorted``
call over both ends (``window_queries``) counts every element of ``a`` at
once, with no Python-level loop.  Floating-point sums run in sequence
(``np.cumsum``), never pairwise (``np.sum``), so a result does not depend
on how numpy blocks its additions.
"""

import numpy as np


def backend_name() -> str:
    """The kernels' implementation, recorded in benchmark metadata."""
    return "numpy"


def window_queries(a, window: int) -> np.ndarray:
    """Search keys of the windows around each x of ``a``: every
    ``x - window``, then every ``x + window + 1``."""
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    a = np.asarray(a, dtype=np.int64)
    return np.concatenate((a - window, a + window + 1))


def count_pairs_within(queries: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each x of ``a``, the number of y in ``b`` with |x - y| <= window.

    ``queries`` is ``window_queries(a, window)``; ``b`` is sorted ascending
    and ``a`` may be in any order.  Returns an ``int64`` array aligned with
    ``a``.
    """
    ends = np.asarray(b).searchsorted(queries)
    n = len(ends) // 2
    return ends[n:] - ends[:n]


def prefix_sum(w) -> np.ndarray:
    """``[0, w[0], w[0] + w[1], ...]``, added in sequence."""
    out = np.zeros(len(w) + 1)
    np.cumsum(w, out=out[1:])
    return out


def count_pairs_within_weighted(
    queries: np.ndarray, b: np.ndarray, wa: np.ndarray, prefix_b: np.ndarray
) -> float:
    """Sum of wa[i] * wb[j] over pairs with |a[i] - b[j]| <= window.

    ``queries`` is ``window_queries(a, window)`` and ``prefix_b`` is
    ``prefix_sum(wb)`` of the weights aligned with the sorted ``b``; the
    terms are added in the order of ``a``.
    """
    if not len(queries):
        return 0.0
    ends = prefix_b[np.asarray(b).searchsorted(queries)]
    n = len(ends) // 2
    return float((wa * (ends[n:] - ends[:n])).cumsum()[-1])
