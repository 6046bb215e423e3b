import math
import random

import pytest
from hypothesis import given, strategies as st

from socmob.core import (
    CheckIn,
    SocialGraph,
    TemporalContext,
    entropy_nats,
    haversine_km,
    home_location,
    user_entropy,
)
from socmob.errors import NoData, UnknownNode
from socmob.vomm import TreeConfig

from conftest import make_checkin, temporal_labels


class TestCheckIn:
    def test_valid(self):
        ci = make_checkin()
        assert ci.user_id == "u1"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ts": -1},
            {"lat": 91.0},
            {"lat": -90.5},
            {"lon": 181.0},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            make_checkin(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"ts": 10**309}, "timestamp"),
            ({"ts": int("9" * 309)}, "timestamp"),
            ({"ts": math.inf}, "timestamp"),
            ({"ts": math.nan}, "timestamp"),
            ({"lat": math.nan}, "lat"),
            ({"lat": -math.inf}, "lat"),
            ({"lat": 10**400}, "lat"),
            ({"lon": math.nan}, "lon"),
            ({"lon": math.inf}, "lon"),
        ],
    )
    def test_non_finite_and_huge_values_rejected(self, kwargs, field):
        # an integer too large for a float is rejected, not an OverflowError
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make_checkin(**kwargs)

    def test_timestamp_below_the_largest_float_accepted(self):
        assert make_checkin(ts=10**308).timestamp == 10**308

    def test_fields_cannot_be_assigned(self):
        ci = make_checkin()
        for name in ("user_id", "venue_id", "timestamp", "lat", "lon"):
            with pytest.raises(AttributeError):
                setattr(ci, name, getattr(ci, name))
        with pytest.raises(AttributeError):
            ci.extra = 1

    def test_positional_and_keyword_construction_agree(self):
        by_keyword = CheckIn(user_id="u", venue_id="v", timestamp=5, lat=1.5, lon=-2.5)
        assert CheckIn("u", "v", 5, 1.5, -2.5) == by_keyword
        assert (by_keyword.user_id, by_keyword.venue_id, by_keyword.timestamp) == ("u", "v", 5)
        assert (by_keyword.lat, by_keyword.lon) == (1.5, -2.5)

    @pytest.mark.parametrize(
        "change", [{"timestamp": -1}, {"lat": 90.5}, {"lon": math.nan}, {"timestamp": 10**400}]
    )
    def test_every_constructor_path_validates(self, change):
        ci = make_checkin()
        with pytest.raises(ValueError):
            ci._replace(**change)
        with pytest.raises(ValueError):
            CheckIn._make({**ci._asdict(), **change}.values())
        assert ci._replace(lat=-90.0) == make_checkin(lat=-90.0)
        assert CheckIn._make(ci) == ci

    @given(
        user=st.text(max_size=3),
        ts=st.integers(0, 2**40),
        lat=st.floats(-90, 90),
        lon=st.floats(-180, 180),
    )
    def test_equal_fields_mean_equal_objects_and_hashes(self, user, ts, lat, lon):
        a = CheckIn(user, "v", ts, lat, lon)
        b = CheckIn(user_id=user, venue_id="v", timestamp=ts, lat=lat, lon=lon)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a._replace(venue_id="w")


class TestSocialGraph:
    def test_basic(self):
        g = SocialGraph([("a", "b"), ("b", "c"), ("a", "b")])
        assert g.edge_count == 2
        assert g.neighbors("b") == {"a", "c"}
        assert g.degree("a") == 1
        assert "b" in g.neighbors("a") and "c" not in g.neighbors("a")
        assert list(g.edges()) == [("a", "b"), ("b", "c")]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            SocialGraph([("a", "a")])

    def test_unknown_node(self):
        g = SocialGraph([("a", "b")])
        with pytest.raises(UnknownNode):
            g.neighbors("zz")

    def test_isolated_nodes(self):
        g = SocialGraph([("a", "b")], nodes=["c"])
        assert g.neighbors("c") == frozenset()
        assert len(g) == 3


class TestTemporalContext:
    def test_epoch_day_is_thursday(self):
        # 1970-01-01 00:00 UTC with zero offset
        tc = TemporalContext.from_timestamp(0, utc_offset_hours=0.0)
        assert tc.day_of_week == 4  # Thursday, with Sunday = 0
        assert tc.day_class == "workday"
        assert tc.slot == 0

    def test_offset_shifts_day(self):
        # 3 a.m. UTC on a Sunday is still Saturday at UTC-8
        sunday_3am = (3 * 86_400) + 3 * 3600  # 1970-01-04 03:00 UTC
        tc = TemporalContext.from_timestamp(sunday_3am, utc_offset_hours=-8.0)
        assert tc.day_of_week == 6  # Saturday
        assert tc.day_class == "weekend"
        assert tc.slot == 19

    def test_slot_hours(self):
        ts = 13 * 3600
        assert TemporalContext.from_timestamp(ts, slot_hours=1, utc_offset_hours=0).slot == 13
        assert TemporalContext.from_timestamp(ts, slot_hours=3, utc_offset_hours=0).slot == 4

    def test_inconsistent_day_class(self):
        with pytest.raises(ValueError):
            TemporalContext(day_class="workday", day_of_week=0, slot=0)

    def test_bad_slot_hours(self):
        for slot_hours in (5, 0, -1):
            with pytest.raises(ValueError):
                TemporalContext.from_timestamp(0, slot_hours=slot_hours)

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            TemporalContext(day_class="workday", day_of_week=1, slot=24)


class TestSharedCalendarContexts:
    """Contexts and their labels are shared objects, equal to the ones the
    arithmetic builds afresh."""

    @given(
        timestamp=st.integers(-(10**10), 10**10),
        slot_hours=st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]),
        offset=st.one_of(
            st.sampled_from([-12.0, -9.5, -8.0, -3.25, 0.0, 5.75, 14.0]),
            st.floats(-14.0, 14.0, allow_nan=False),
        ),
        later=st.integers(0, 2 * 86_400),
    )
    def test_equal_to_fresh_and_shared_within_a_slot(self, timestamp, slot_hours, offset, later):
        local = int(timestamp + round(offset * 3600))
        dow = (local // 86_400 + 4) % 7
        slot = (local % 86_400) // (slot_hours * 3600)
        fresh = TemporalContext("weekend" if dow in (0, 6) else "workday", dow, slot)
        got = TemporalContext.from_timestamp(timestamp, slot_hours, offset)
        assert got == fresh
        tree = TreeConfig(slot_hours=slot_hours, utc_offset_hours=offset)
        assert tree.temporal(timestamp) is got
        labels = (("W", 1 if dow in (0, 6) else 0), ("D", dow), ("S", slot))
        assert temporal_labels(got) == labels
        assert temporal_labels(fresh) is temporal_labels(got)
        # another timestamp in the same local slot of the same weekday, or
        # exactly a week later, gets the same objects
        other = timestamp + later
        other_local = local + later
        if other_local // (slot_hours * 3600) == local // (slot_hours * 3600):
            assert TemporalContext.from_timestamp(other, slot_hours, offset) is got
        week_later = TemporalContext.from_timestamp(timestamp + 7 * 86_400, slot_hours, offset)
        assert week_later is got


class TestEntropy:
    def test_degenerate(self):
        h = [make_checkin(venue="a", ts=i) for i in range(5)]
        assert user_entropy(h) == 0.0

    def test_uniform(self):
        h = [make_checkin(venue=f"v{i}", ts=i) for i in range(4)]
        assert user_entropy(h) == pytest.approx(math.log(4), abs=1e-12)

    @given(st.integers(min_value=1, max_value=200))
    def test_uniform_is_log_n(self, n):
        assert entropy_nats([3] * n) == pytest.approx(math.log(n), abs=1e-12)

    def test_counts_211(self):
        # direct formula evaluation as the oracle
        h = (
            [make_checkin(venue="a", ts=i) for i in range(2)]
            + [make_checkin(venue="b", ts=10)]
            + [make_checkin(venue="c", ts=20)]
        )
        expect = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
        assert user_entropy(h) == pytest.approx(expect, abs=1e-12)

    def test_empty(self):
        with pytest.raises(NoData):
            user_entropy([])


def brute_force_densest_cell(history, cell_m):
    """Exhaustive scan over the same grid definition."""
    lat_step = cell_m / 111_320.0
    ref_lat = sum(c.lat for c in history) / len(history)
    lon_step = cell_m / (111_320.0 * max(math.cos(math.radians(ref_lat)), 1e-6))
    cells = {}
    for c in history:
        key = (math.floor(c.lat / lat_step), math.floor(c.lon / lon_step))
        cells.setdefault(key, []).append(c)
    best_count = max(len(v) for v in cells.values())
    best_key = min(k for k, v in cells.items() if len(v) == best_count)
    members = cells[best_key]
    return (
        sum(c.lat for c in members) / len(members),
        sum(c.lon for c in members) / len(members),
    )


class TestHomeLocation:
    def test_single_venue(self):
        h = [make_checkin(ts=i, lat=37.7512, lon=-122.4201) for i in range(4)]
        assert home_location(h) == (pytest.approx(37.7512), pytest.approx(-122.4201))

    def test_majority_cell(self):
        dense = [make_checkin(ts=i, lat=37.7501, lon=-122.4501) for i in range(10)]
        sparse = [make_checkin(ts=100 + i, lat=37.9001, lon=-122.1001) for i in range(2)]
        lat, lon = home_location(dense + sparse)
        assert lat == pytest.approx(37.7501)
        assert lon == pytest.approx(-122.4501)

    def test_matches_brute_force_and_tie_break(self):
        rng = random.Random(17)
        for trial in range(30):
            n = rng.randrange(1, 40)
            h = [
                make_checkin(
                    ts=i,
                    lat=37.7 + rng.randrange(6) * 0.0045,
                    lon=-122.45 + rng.randrange(6) * 0.0045,
                )
                for i in range(n)
            ]
            assert home_location(h) == pytest.approx(brute_force_densest_cell(h, 500.0))

    def test_permutation_invariant(self):
        rng = random.Random(3)
        h = [
            make_checkin(ts=i, lat=37.7 + rng.random() * 0.05, lon=-122.5 + rng.random() * 0.05)
            for i in range(25)
        ]
        shuffled = list(h)
        rng.shuffle(shuffled)
        assert home_location(h) == home_location(shuffled)

    def test_empty(self):
        with pytest.raises(NoData):
            home_location([])


def test_haversine_known_distance():
    # SF to LA is about 559 km
    d = haversine_km(37.7749, -122.4194, 34.0522, -118.2437)
    assert d == pytest.approx(559, rel=0.01)
    assert haversine_km(37.0, -122.0, 37.0, -122.0) == 0.0
