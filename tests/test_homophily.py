import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from socmob.core import WEEK_SECONDS, CheckIn, Venue, haversine_km, home_location
from socmob.errors import InsufficientSpan, NoData
from socmob.homophily import (
    MobilityIndex,
    WeightScheme,
    colocation_count,
    index_histories,
    scol_rate,
    social_situation_rate,
    spatial_cosine,
    weekly_visit_prob,
)

from conftest import make_checkin, random_history

HOUR = 3600


def oracle_colocation(hi, hj, window, weight=None):
    total = 0.0
    for a in hi:
        for b in hj:
            if a.venue_id == b.venue_id and abs(a.timestamp - b.timestamp) <= window:
                total += weight(a.venue_id) if weight else 1.0
    return total


def oracle_situation_rate(hi, hj, window, weight=None):
    num = 0.0
    den = 0.0
    for a in hi:
        for b in hj:
            if abs(a.timestamp - b.timestamp) <= window:
                wa = weight(a.venue_id) if weight else 1.0
                wb = weight(b.venue_id) if weight else 1.0
                den += math.sqrt(wa) * math.sqrt(wb)
                if a.venue_id == b.venue_id:
                    num += wa
    return min(num / den, 1.0) if den > 0 else 0.0


def oracle_cosine(hi, hj, weight=None):
    counts_i, counts_j = {}, {}
    for c in hi:
        counts_i[c.venue_id] = counts_i.get(c.venue_id, 0) + 1
    for c in hj:
        counts_j[c.venue_id] = counts_j.get(c.venue_id, 0) + 1
    w = weight or (lambda v: 1.0)
    dot = sum(w(v) * n * w(v) * counts_j[v] for v, n in counts_i.items() if v in counts_j)
    ni = math.sqrt(sum((w(v) * n) ** 2 for v, n in counts_i.items()))
    nj = math.sqrt(sum((w(v) * n) ** 2 for v, n in counts_j.items()))
    return dot / (ni * nj) if ni and nj else 0.0


def venue_pool(rng, n):
    venues = {}
    for i in range(n):
        venues[f"v{i}"] = Venue(
            venue_id=f"v{i}",
            lat=37.7 + rng.random() * 0.1,
            lon=-122.5 + rng.random() * 0.1,
            population=rng.randrange(0, 300),
            entropy=rng.random() * 4,
            density=rng.randrange(0, 40),
        )
    return venues


class TestColocation:
    def test_identical_single(self):
        h = [make_checkin(ts=100)]
        assert colocation_count(h, h) == 1.0

    def test_outside_window(self):
        a = [make_checkin(ts=0)]
        b = [make_checkin(user="u2", ts=8 * 86_400)]
        assert colocation_count(a, b) == 0.0

    def test_disjoint_venues(self):
        a = [make_checkin(venue="x", ts=0)]
        b = [make_checkin(user="u2", venue="y", ts=0)]
        assert colocation_count(a, b) == 0.0

    def test_brute_force(self, rng):
        venues = [f"v{i}" for i in range(6)]
        for _ in range(25):
            hi = random_history(rng, "a", venues, 20)
            hj = random_history(rng, "b", venues, 20)
            got = colocation_count(hi, hj)
            assert got == pytest.approx(oracle_colocation(hi, hj, WEEK_SECONDS), abs=1e-10)

    def test_infinite_window_is_count_product(self, rng):
        venues = [f"v{i}" for i in range(4)]
        hi = random_history(rng, "a", venues, 30)
        hj = random_history(rng, "b", venues, 30)
        big = 10**12
        ci, cj = {}, {}
        for c in hi:
            ci[c.venue_id] = ci.get(c.venue_id, 0) + 1
        for c in hj:
            cj[c.venue_id] = cj.get(c.venue_id, 0) + 1
        expect = sum(n * cj.get(v, 0) for v, n in ci.items())
        assert colocation_count(hi, hj, window=big) == expect


class TestScol:
    def test_disjoint(self):
        span = (0, 4 * WEEK_SECONDS)
        a = [make_checkin(venue="x", ts=100)]
        b = [make_checkin(user="b", venue="y", ts=200)]
        assert scol_rate(a, b, span=span) == 0.0

    def test_certain_colocation(self):
        span = (0, 4 * WEEK_SECONDS - 1)
        a = [make_checkin(venue="x", ts=k * WEEK_SECONDS + 10) for k in range(4)]
        b = [make_checkin(user="b", venue="x", ts=k * WEEK_SECONDS + 20) for k in range(4)]
        assert scol_rate(a, b, span=span) == 1.0

    def test_window_enumeration_oracle(self, rng):
        venues = [f"v{i}" for i in range(5)]
        for _ in range(20):
            span = (1_000_000, 1_000_000 + 6 * WEEK_SECONDS)
            hi = random_history(rng, "a", venues, 25, t0=span[0], spread=span[1] - span[0])
            hj = random_history(rng, "b", venues, 25, t0=span[0], spread=span[1] - span[0])
            n_weeks = math.ceil((span[1] - span[0] + 1) / WEEK_SECONDS)
            expect = 0.0
            for v in venues:
                wi = {(c.timestamp - span[0]) // WEEK_SECONDS for c in hi if c.venue_id == v}
                wj = {(c.timestamp - span[0]) // WEEK_SECONDS for c in hj if c.venue_id == v}
                expect += (len(wi) / n_weeks) * (len(wj) / n_weeks)
            assert scol_rate(hi, hj, span=span) == pytest.approx(min(expect, 1.0), abs=1e-12)

    def test_insufficient_span(self):
        a = [make_checkin(ts=0)]
        b = [make_checkin(user="b", ts=10)]
        with pytest.raises(InsufficientSpan):
            scol_rate(a, b, span=(0, 1000))

    def test_weekly_prob(self):
        span = (0, 2 * WEEK_SECONDS - 1)
        h = [make_checkin(venue="x", ts=10)]
        assert weekly_visit_prob(h, span) == {"x": 0.5}


class TestSpatialCosine:
    def test_identical(self):
        h = [make_checkin(venue=v, ts=i) for i, v in enumerate("xxyz")]
        assert spatial_cosine(h, h) == pytest.approx(1.0)

    def test_disjoint(self):
        a = [make_checkin(venue="x", ts=0)]
        b = [make_checkin(user="b", venue="y", ts=0)]
        assert spatial_cosine(a, b) == 0.0

    def test_counts_31_13(self):
        a = [make_checkin(venue="x", ts=i) for i in range(3)] + [make_checkin(venue="y", ts=9)]
        b = [make_checkin(user="b", venue="x", ts=20)] + [
            make_checkin(user="b", venue="y", ts=30 + i) for i in range(3)
        ]
        assert spatial_cosine(a, b) == pytest.approx(0.6, abs=1e-12)

    def test_empty(self):
        with pytest.raises(NoData):
            spatial_cosine([], [make_checkin()])


class TestSituationRate:
    def test_single_simultaneous(self):
        a = [make_checkin(venue="x", ts=100)]
        b = [make_checkin(user="b", venue="x", ts=200)]
        assert social_situation_rate(a, b) == 1.0

    def test_never_same_venue(self):
        a = [make_checkin(venue="x", ts=100)]
        b = [make_checkin(user="b", venue="y", ts=200)]
        assert social_situation_rate(a, b) == 0.0

    def test_no_temporal_overlap(self):
        a = [make_checkin(venue="x", ts=0)]
        b = [make_checkin(user="b", venue="x", ts=10 * HOUR)]
        assert social_situation_rate(a, b) == 0.0

    def test_brute_force(self, rng):
        venues = [f"v{i}" for i in range(4)]
        for _ in range(25):
            hi = random_history(rng, "a", venues, 25, spread=3 * 86_400)
            hj = random_history(rng, "b", venues, 25, spread=3 * 86_400)
            got = social_situation_rate(hi, hj)
            assert got == pytest.approx(oracle_situation_rate(hi, hj, HOUR), abs=1e-10)


class TestWeighting:
    @pytest.mark.parametrize("kind", ["density", "population", "entropy"])
    def test_weighted_measures_match_oracles(self, rng, kind):
        venues = venue_pool(rng, 6)
        names = sorted(venues)
        scheme = WeightScheme(kind=kind)
        if kind == "density":
            wf = lambda v: math.log(2.0 + venues[v].density)
        elif kind == "population":
            wf = lambda v: 1.0 / math.log(2.0 + venues[v].population)
        else:
            wf = lambda v: 1.0 / (1.0 + venues[v].entropy)
        for _ in range(10):
            hi = random_history(rng, "a", names, 20, spread=5 * 86_400)
            hj = random_history(rng, "b", names, 20, spread=5 * 86_400)
            assert colocation_count(hi, hj, scheme=scheme, venues=venues) == pytest.approx(
                oracle_colocation(hi, hj, WEEK_SECONDS, wf), abs=1e-9
            )
            assert spatial_cosine(hi, hj, scheme=scheme, venues=venues) == pytest.approx(
                oracle_cosine(hi, hj, wf), abs=1e-9
            )
            assert social_situation_rate(
                hi, hj, scheme=scheme, venues=venues
            ) == pytest.approx(oracle_situation_rate(hi, hj, HOUR, wf), abs=1e-9)

    def test_unweighted_equals_none_scheme(self, rng):
        venues = venue_pool(rng, 5)
        hi = random_history(rng, "a", sorted(venues), 15)
        hj = random_history(rng, "b", sorted(venues), 15)
        assert colocation_count(hi, hj) == colocation_count(
            hi, hj, scheme=WeightScheme("none"), venues=venues
        )

    def test_weights_positive(self, rng):
        venues = venue_pool(rng, 30)
        from socmob.homophily import MobilityIndex, _weight_fn

        hi = MobilityIndex([make_checkin(ts=0)])
        hj = MobilityIndex([make_checkin(user="b", ts=10)])
        for kind in ("density", "population", "entropy", "distance_from_home"):
            wf = _weight_fn(WeightScheme(kind), venues, hi, hj)
            assert all(wf(v) > 0 for v in venues)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            WeightScheme("bogus")


class TestSymmetryAndBounds:
    @pytest.mark.parametrize("kind", ["none", "density", "entropy"])
    def test_symmetry(self, rng, kind):
        venues = venue_pool(rng, 5)
        scheme = WeightScheme(kind)
        for _ in range(10):
            hi = random_history(rng, "a", sorted(venues), 12)
            hj = random_history(rng, "b", sorted(venues), 12)
            assert colocation_count(hi, hj, scheme=scheme, venues=venues) == pytest.approx(
                colocation_count(hj, hi, scheme=scheme, venues=venues)
            )
            assert spatial_cosine(hi, hj, scheme=scheme, venues=venues) == pytest.approx(
                spatial_cosine(hj, hi, scheme=scheme, venues=venues)
            )
            assert social_situation_rate(
                hi, hj, scheme=scheme, venues=venues
            ) == pytest.approx(social_situation_rate(hj, hi, scheme=scheme, venues=venues))

    def test_bounds(self, rng):
        venues = [f"v{i}" for i in range(4)]
        span = (1_000_000, 1_000_000 + 5 * WEEK_SECONDS)
        for _ in range(20):
            hi = random_history(rng, "a", venues, 20, t0=span[0], spread=span[1] - span[0])
            hj = random_history(rng, "b", venues, 20, t0=span[0], spread=span[1] - span[0])
            assert 0.0 <= spatial_cosine(hi, hj) <= 1.0
            assert 0.0 <= social_situation_rate(hi, hj) <= 1.0
            assert 0.0 <= scol_rate(hi, hj, span=span) <= 1.0


def oracle_scol(hi, hj, span):
    start, end = span
    n_weeks = math.ceil((end - start + 1) / WEEK_SECONDS)
    total = 0.0
    for v in {c.venue_id for c in hi} & {c.venue_id for c in hj}:
        wi = {(c.timestamp - start) // WEEK_SECONDS for c in hi if c.venue_id == v}
        wj = {(c.timestamp - start) // WEEK_SECONDS for c in hj if c.venue_id == v}
        total += (len(wi) / n_weeks) * (len(wj) / n_weeks)
    return min(total, 1.0)


# The per-venue loops that computed the measures before the index, kept to
# pin the order of every floating-point addition: the measures must equal
# them exactly, so that reports stay byte-identical.
def _window_ends(x, ts, window):
    return sum(1 for t in ts if t < x - window), sum(1 for t in ts if t <= x + window)


def _first_visit_order(history):
    out = {}
    for c in history:
        out.setdefault(c.venue_id, []).append(c.timestamp)
    return out


def sequential_colocation(hi, hj, window, wf):
    by_j = _first_visit_order(hj)
    total = 0.0
    for v, ts in _first_visit_order(hi).items():
        if v in by_j:
            n = 0
            for x in ts:
                lo, hi_ = _window_ends(x, by_j[v], window)
                n += hi_ - lo
            total += wf(v) * n
    return total


def sequential_situation_rate(hi, hj, window, wf):
    num = sequential_colocation(hi, hj, window, wf)
    a = sorted(hi, key=lambda c: c.timestamp)
    b = sorted(hj, key=lambda c: c.timestamp)
    tb = [c.timestamp for c in b]
    prefix = [0.0]
    for c in b:
        prefix.append(prefix[-1] + math.sqrt(wf(c.venue_id)))
    den = 0.0
    for c in a:
        lo, hi_ = _window_ends(c.timestamp, tb, window)
        den += math.sqrt(wf(c.venue_id)) * (prefix[hi_] - prefix[lo])
    return 0.0 if den <= 0.0 else min(num / den, 1.0)


def sequential_cosine(hi, hj, wf):
    ci = {v: len(ts) for v, ts in _first_visit_order(hi).items()}
    cj = {v: len(ts) for v, ts in _first_visit_order(hj).items()}
    dot = 0.0
    for v, n in ci.items():
        if v in cj:
            dot += (wf(v) * n) * (wf(v) * cj[v])
    norm_i = math.sqrt(sum((wf(v) * n) ** 2 for v, n in ci.items()))
    norm_j = math.sqrt(sum((wf(v) * n) ** 2 for v, n in cj.items()))
    return 0.0 if norm_i == 0.0 or norm_j == 0.0 else min(dot / (norm_i * norm_j), 1.0)


INDEX_VENUES = {
    f"v{i}": Venue(f"v{i}", 37.7 + i / 100, -122.5 + i / 50, population=7 * i,
                   entropy=i / 3, density=(5 * i) % 11)
    for i in range(6)
}
INDEX_KINDS = ("none", "density", "population", "entropy", "distance_from_home")


def oracle_weight(kind, hi, hj):
    if kind == "none":
        return lambda v: 1.0
    if kind == "distance_from_home":
        (a, b), (c, d) = home_location(hi), home_location(hj)
        w = math.log(2.0 + haversine_km(a, b, c, d))
        return lambda v: w
    venues = INDEX_VENUES
    return {
        "density": lambda v: math.log(2.0 + venues[v].density),
        "population": lambda v: 1.0 / math.log(2.0 + venues[v].population),
        "entropy": lambda v: 1.0 / (1.0 + venues[v].entropy),
    }[kind]


T_START = 1_000_000
checkin_rows = st.lists(
    st.tuples(
        st.integers(0, 5),  # venue
        # offset from T_START; the few fixed ones make equal timestamps common
        st.integers(0, 3 * WEEK_SECONDS) | st.sampled_from([0, 60, HOUR]),
        st.integers(0, 3),  # one of four spots, for the home location
    ),
    max_size=25,
)


def as_history(user, rows):
    """Rows in the order drawn: a history need not be time-sorted."""
    return [
        CheckIn(user, f"v{v}", T_START + t, 37.7 + spot / 20, -122.5 + spot / 20)
        for v, t, spot in rows
    ]


class TestMobilityIndex:
    """Every measure on prebuilt indexes equals the measure on raw histories
    and matches the quadratic oracles."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(checkin_rows, min_size=3, max_size=3),
        st.sampled_from([0, 60, HOUR, 86_400, WEEK_SECONDS]),
    )
    def test_index_equals_raw_and_oracles(self, rows, window):
        hist = {u: as_history(u, r) for u, r in zip("abc", rows)}
        index = index_histories(hist)
        span = (T_START, T_START + 3 * WEEK_SECONDS)
        # every ordered pair, so that each index serves both sides and its
        # caches are reused across pairs, windows and schemes
        for i, j in (("a", "b"), ("b", "a"), ("a", "c"), ("c", "b"), ("a", "a")):
            hi, hj, xi, xj = hist[i], hist[j], index[i], index[j]
            for kind in INDEX_KINDS:
                scheme = WeightScheme(kind)
                kw = {"scheme": scheme, "venues": INDEX_VENUES}
                got = colocation_count(xi, xj, window=window, **kw)
                assert got == colocation_count(hi, hj, window=window, **kw)
                if not hi or not hj:
                    assert got == 0.0
                    continue
                wf = oracle_weight(kind, hi, hj)
                assert got == sequential_colocation(hi, hj, window, wf)
                assert got == pytest.approx(oracle_colocation(hi, hj, window, wf), abs=1e-9)
                got = spatial_cosine(xi, xj, **kw)
                assert got == spatial_cosine(hi, hj, **kw)
                assert got == sequential_cosine(hi, hj, wf)
                assert got == pytest.approx(oracle_cosine(hi, hj, wf), abs=1e-9)
                got = social_situation_rate(xi, xj, window=window, **kw)
                assert got == social_situation_rate(hi, hj, window=window, **kw)
                assert got == sequential_situation_rate(hi, hj, window, wf)
                assert got == pytest.approx(
                    oracle_situation_rate(hi, hj, window, wf), abs=1e-9
                )
            if hi and hj:
                got = scol_rate(xi, xj, span=span)
                assert got == scol_rate(hi, hj, span=span)
                assert got == pytest.approx(oracle_scol(hi, hj, span), abs=1e-12)

    def test_mixed_index_and_history(self, rng):
        hi = random_history(rng, "a", ["v0", "v1", "v2"], 20)
        hj = random_history(rng, "b", ["v0", "v1", "v2"], 20)
        xi = MobilityIndex(hi)
        assert colocation_count(xi, hj) == colocation_count(hi, hj)
        assert social_situation_rate(hj, xi) == social_situation_rate(hj, hi)

    def test_weights_follow_the_venue_table(self, rng):
        names = sorted(INDEX_VENUES)
        hi = random_history(rng, "a", names, 20, spread=5 * 86_400)
        hj = random_history(rng, "b", names, 20, spread=5 * 86_400)
        other = {v: Venue(v, 0.0, 0.0, entropy=3.0) for v in names}
        index = index_histories({"a": hi, "b": hj})
        scheme = WeightScheme("entropy")
        for venues in (INDEX_VENUES, other, INDEX_VENUES):
            kw = {"scheme": scheme, "venues": venues}
            assert spatial_cosine(index["a"], index["b"], **kw) == spatial_cosine(hi, hj, **kw)
            assert colocation_count(index["a"], index["b"], **kw) == (
                colocation_count(hi, hj, **kw)
            )

    def test_separately_built_indexes_are_rejected(self):
        a = MobilityIndex([make_checkin(ts=0)])
        b = MobilityIndex([make_checkin(user="b", ts=0)])
        with pytest.raises(ValueError):
            colocation_count(a, b)

    def test_timestamps_beyond_the_packed_range_are_rejected(self):
        a = [make_checkin(ts=2**36)]
        with pytest.raises(ValueError):
            colocation_count(a, a)
