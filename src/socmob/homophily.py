"""Mobile-homophily measures between pairs of users.

Spatial overlap (co-location counts, weekly co-location rate, cosine
similarity of visit vectors) and spatial-temporal overlap (the social
situation rate), each with optional venue weighting.  The situations the
predictor learns from are detected online, by `evaluation.evaluate`.

Every pairwise measure reads a per-user ``MobilityIndex``: venue ->
sorted timestamps, visit counts, venue-packed ``int64`` keys, the
time-sorted timeline, and the venue weights, weekly visit probabilities
and home location once they are first asked for.  A command indexes each
user once (``index_histories``); a measure given raw histories indexes
them on entry, so both run the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import kernels
from .core import (
    CheckIn,
    Venue,
    WEEK_SECONDS,
    WEIGHT_KINDS,
    group_by_venue,
    home_location,
    haversine_km,
)
from .errors import InsufficientSpan, NoData

HOUR_SECONDS = 3_600


@dataclass(frozen=True, slots=True)
class WeightScheme:
    """Venue weighting applied to co-location style measures.

    ``density`` favors venues in dense areas, ``distance_from_home`` scales
    with the distance between the two users' homes, ``population`` and
    ``entropy`` damp busy public venues.  All weights are strictly positive.
    """

    kind: str = "none"

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight scheme {self.kind!r}")


#: Venue-packed keys are ``code * _STRIDE + timestamp``.  Timestamps below
#: ``_MAX_WINDOW`` and windows clamped to it keep every window query inside
#: its own venue's block of keys.
_STRIDE = 1 << 37
_MAX_WINDOW = _STRIDE // 2


class MobilityIndex:
    """One user's history, indexed once for every pairwise measure.

    Each layout is computed the first time a measure reads it and kept.
    Two indexes measured against each other must share one venue code
    table (``codes``); ``index_histories`` builds indexes that do.
    """

    def __init__(self, history: Sequence[CheckIn], codes: dict[str, int] | None = None):
        self.history = history
        self.codes = {} if codes is None else codes
        self._memo: dict[tuple, object] = {}
        self._weights: dict[WeightScheme, tuple[object, _Weights]] = {}

    def __len__(self) -> int:
        return len(self.history)

    @cached_property
    def by_venue(self) -> Mapping[str, list[int]]:
        """Venue -> sorted timestamps, venues in order of first visit."""
        return group_by_venue(self.history)

    @cached_property
    def counts(self) -> dict[str, int]:
        """Visits per venue, venues in order of first visit."""
        return {v: len(ts) for v, ts in self.by_venue.items()}

    @cached_property
    def packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Venue-packed keys: (all sorted, grouped by venue in order of first
        visit, start of each venue's group)."""
        codes = self.codes
        keys: list[int] = []
        starts: list[int] = []
        for venue, ts in self.by_venue.items():
            if ts[-1] >= _MAX_WINDOW:
                raise ValueError(f"timestamp {ts[-1]} is too large to index")
            base = codes.setdefault(venue, len(codes)) * _STRIDE
            starts.append(len(keys))
            keys.extend(base + t for t in ts)
        grouped = np.array(keys, dtype=np.int64)
        return np.sort(grouped), grouped, np.array(starts, dtype=np.intp)

    @cached_property
    def timeline(self) -> tuple[np.ndarray, np.ndarray]:
        """Timestamps in time order (ties in history order) and the
        first-visit rank of each event's venue."""
        rank = {v: k for k, v in enumerate(self.by_venue)}
        events = sorted(self.history, key=lambda c: c.timestamp)
        times = np.array([c.timestamp for c in events], dtype=np.int64)
        return times, np.array([rank[c.venue_id] for c in events], dtype=np.intp)

    def _memoized(self, key: tuple, make: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def venue_queries(self, window: int) -> np.ndarray:
        """``kernels.window_queries`` of the venue-grouped packed keys."""
        window = min(window, _MAX_WINDOW)
        return self._memoized(
            ("venue", window), lambda: kernels.window_queries(self.packed[1], window)
        )

    def time_queries(self, window: int) -> np.ndarray:
        """``kernels.window_queries`` of the time-sorted timestamps."""
        return self._memoized(
            ("time", window), lambda: kernels.window_queries(self.timeline[0], window)
        )

    def weekly(self, span: tuple[int, int]) -> dict[str, float]:
        """``weekly_visit_prob`` of the history over ``span``."""
        return self._memoized(("weekly", span), lambda: weekly_visit_prob(self.history, span))

    @cached_property
    def home(self) -> tuple[float, float]:
        """``home_location`` of the history."""
        return home_location(self.history)

    def weights(self, scheme: WeightScheme, venues, wf: Callable[[str], float]) -> "_Weights":
        """Venue weights ``wf`` of ``scheme``, kept per (scheme, venue table)
        unless they depend on the other user of the pair."""
        if scheme.kind == "distance_from_home":
            return _Weights(self, wf)
        cached = self._weights.get(scheme)
        if cached is None or cached[0] is not venues:
            cached = self._weights[scheme] = (venues, _Weights(self, wf))
        return cached[1]


class _Weights:
    """One user's venue weights in the layouts the measures read."""

    def __init__(self, index: MobilityIndex, wf: Callable[[str], float]):
        self.index = index
        self.by_venue = [wf(v) for v in index.by_venue]  # first-visit order

    @cached_property
    def event_sqrt(self) -> np.ndarray:
        """Square root of each event's venue weight, in time order."""
        roots = np.array([math.sqrt(w) for w in self.by_venue])
        return roots[self.index.timeline[1]]

    @cached_property
    def prefix(self) -> np.ndarray:
        return kernels.prefix_sum(self.event_sqrt)

    @cached_property
    def norm(self) -> float:
        """Euclidean norm of the weighted visit-count vector."""
        counts = self.index.counts.values()
        return math.sqrt(sum((w * n) ** 2 for w, n in zip(self.by_venue, counts)))


def index_histories(histories: Mapping[str, Sequence[CheckIn]]) -> dict[str, MobilityIndex]:
    """One index per user, all over one venue code table."""
    codes: dict[str, int] = {}
    return {user: MobilityIndex(h, codes) for user, h in histories.items()}


History = Sequence[CheckIn] | MobilityIndex


def _pair(a: History, b: History) -> tuple[MobilityIndex, MobilityIndex]:
    """Both sides as indexes over one venue code table; histories are
    indexed here."""
    if not isinstance(a, MobilityIndex):
        a = MobilityIndex(a, b.codes if isinstance(b, MobilityIndex) else None)
    if not isinstance(b, MobilityIndex):
        b = MobilityIndex(b, a.codes)
    if a.codes is not b.codes:
        raise ValueError("the two indexes use different venue code tables")
    return a, b


def _weight_fn(
    scheme: WeightScheme,
    venues: Mapping[str, Venue] | None,
    a: MobilityIndex,
    b: MobilityIndex,
) -> Callable[[str], float]:
    kind = scheme.kind
    if kind == "none":
        return lambda v: 1.0
    if kind == "distance_from_home":
        hi, hj = a.home, b.home
        w = math.log(2.0 + haversine_km(hi[0], hi[1], hj[0], hj[1]))
        return lambda v: w
    if venues is None:
        raise ValueError(f"scheme {kind!r} needs venue metadata")
    if kind == "density":
        return lambda v: math.log(2.0 + venues[v].density)
    if kind == "population":
        return lambda v: 1.0 / math.log(2.0 + venues[v].population)
    if kind == "entropy":
        return lambda v: 1.0 / (1.0 + venues[v].entropy)
    raise AssertionError(kind)


def _colocated(a: MobilityIndex, b: MobilityIndex, window: int, wa: _Weights) -> float:
    """Same-venue visit pairs within the window, each weighted by its venue.

    One searchsorted call over the venue-packed keys counts every venue at
    once; the per-venue terms are added in ``a``'s first-visit order.
    """
    per_event = kernels.count_pairs_within(a.venue_queries(window), b.packed[0])
    per_venue = np.add.reduceat(per_event, a.packed[2]).tolist()
    return sum((w * n for w, n in zip(wa.by_venue, per_venue) if n), 0.0)


def colocation_count(
    hist_i: History,
    hist_j: History,
    window: int = WEEK_SECONDS,
    scheme: WeightScheme = WeightScheme(),
    venues: Mapping[str, Venue] | None = None,
) -> float:
    """Weighted count of same-venue visit pairs within the time window.

    For each venue both users visited, every pair of visits (one from each
    user) at most ``window`` seconds apart contributes the venue's weight.
    Disjoint venue sets give 0.  Either side may be a history or its
    ``MobilityIndex``, as for every pairwise measure here.
    """
    a, b = _pair(hist_i, hist_j)
    if not a or not b:
        return 0.0
    wf = _weight_fn(scheme, venues, a, b)
    return _colocated(a, b, window, a.weights(scheme, venues, wf))


def weekly_visit_prob(
    history: Sequence[CheckIn], span: tuple[int, int]
) -> dict[str, float]:
    """Per-venue fraction of observation weeks with at least one visit."""
    start, end = span
    if end - start < WEEK_SECONDS:
        raise InsufficientSpan("observation span is shorter than one week")
    n_weeks = math.ceil((end - start + 1) / WEEK_SECONDS)
    weeks_seen: dict[str, set[int]] = {}
    for ci in history:
        wk = (ci.timestamp - start) // WEEK_SECONDS
        weeks_seen.setdefault(ci.venue_id, set()).add(wk)
    return {v: len(wks) / n_weeks for v, wks in weeks_seen.items()}


def scol_rate(
    hist_i: History,
    hist_j: History,
    span: tuple[int, int] | None = None,
) -> float:
    """Chance of an independent same-week co-location.

    Sums, over venues, the product of each user's per-week visit
    probabilities; the sum is clamped to 1 so the result stays a
    probability even for users with several near-certain venues.
    """
    a, b = _pair(hist_i, hist_j)
    if not a or not b:
        raise NoData("empty history")
    if span is None:
        ta, tb = a.timeline[0], b.timeline[0]
        span = (int(min(ta[0], tb[0])), int(max(ta[-1], tb[-1])))
    p_i = a.weekly(span)
    p_j = b.weekly(span)
    total = sum(p * p_j[v] for v, p in p_i.items() if v in p_j)
    return min(total, 1.0)


def spatial_cosine(
    hist_i: History,
    hist_j: History,
    scheme: WeightScheme = WeightScheme(),
    venues: Mapping[str, Venue] | None = None,
) -> float:
    """Cosine similarity of the users' weighted per-venue visit counts."""
    a, b = _pair(hist_i, hist_j)
    if not a or not b:
        raise NoData("empty history")
    wf = _weight_fn(scheme, venues, a, b)
    wa, wb = a.weights(scheme, venues, wf), b.weights(scheme, venues, wf)
    cj = b.counts
    dot = 0.0
    for (v, n), w in zip(a.counts.items(), wa.by_venue):
        m = cj.get(v)
        if m:
            dot += (w * n) * (w * m)
    norm_i, norm_j = wa.norm, wb.norm
    if norm_i == 0.0 or norm_j == 0.0:
        return 0.0
    return min(dot / (norm_i * norm_j), 1.0)


def social_situation_rate(
    hist_i: History,
    hist_j: History,
    window: int = HOUR_SECONDS,
    scheme: WeightScheme = WeightScheme(),
    venues: Mapping[str, Venue] | None = None,
) -> float:
    """Share of temporally close visit pairs that are also co-located.

    Numerator: same-venue visit pairs within the window, weighted by the
    venue weight.  Denominator: all visit pairs within the window whatever
    the venues, each weighted by the geometric mean of the two venue
    weights (which reduces to the venue weight for co-located pairs, so the
    rate stays in [0, 1]).  Returns 0 when the users never overlap in time.
    """
    a, b = _pair(hist_i, hist_j)
    if not a or not b:
        raise NoData("empty history")
    wf = _weight_fn(scheme, venues, a, b)
    wa, wb = a.weights(scheme, venues, wf), b.weights(scheme, venues, wf)
    num = _colocated(a, b, window, wa)
    den = kernels.count_pairs_within_weighted(
        a.time_queries(window), b.timeline[0], wa.event_sqrt, wb.prefix
    )
    if den <= 0.0:
        return 0.0
    return min(num / den, 1.0)
