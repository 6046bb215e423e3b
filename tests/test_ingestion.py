import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from socmob.core import EARTH_RADIUS_KM, CheckIn, haversine_km
from socmob.errors import IntegrityError, NoData, ParseError
from socmob.ingestion import (
    IngestConfig,
    _venue_density,
    build_dataset,
    descriptive_stats,
    load_checkins,
    load_dataset,
    load_edges,
    save_checkins,
    save_dataset,
)

from conftest import make_checkin

CHECKIN_CSV = """user_id,venue_id,timestamp,lat,lon
a,v1,100,37.75,-122.45
a,v1,200,37.75,-122.45
b,v1,150,37.75,-122.45
b,v2,300,37.76,-122.44
c,v2,400,37.76,-122.44
"""

EDGE_CSV = """user_a,user_b
a,b
b,c
b,a
"""


class TestLoading:
    def test_load_counts(self, tmp_path):
        cp = tmp_path / "c.csv"
        ep = tmp_path / "e.csv"
        cp.write_text(CHECKIN_CSV)
        ep.write_text(EDGE_CSV)
        ds = load_dataset(cp, ep, IngestConfig(activity_threshold=2))
        assert len(ds.checkins) == 5
        assert ds.graph.edge_count == 2  # duplicate edge collapsed
        assert ds.venues["v1"].population == 2
        assert ds.active_users == {"a", "b"}
        assert [c.timestamp for c in ds.checkins] == sorted(
            c.timestamp for c in ds.checkins
        )

    def test_empty_files(self, tmp_path):
        cp = tmp_path / "c.csv"
        ep = tmp_path / "e.csv"
        cp.write_text("user_id,venue_id,timestamp,lat,lon\n")
        ep.write_text("user_a,user_b\n")
        ds = load_dataset(cp, ep)
        assert len(ds.checkins) == 0
        assert len(ds.venues) == 0
        with pytest.raises(NoData):
            ds.span()

    def test_parse_error_line_number(self, tmp_path):
        cp = tmp_path / "c.csv"
        cp.write_text("user_id,venue_id,timestamp,lat,lon\na,v1,notanumber,1,2\n")
        with pytest.raises(ParseError) as err:
            load_checkins(cp)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("lat,lon", [("nan", "2"), ("1", "inf"), ("-inf", "2"), ("1", "NaN")])
    def test_non_finite_coordinates_rejected_with_line_number(self, tmp_path, lat, lon):
        cp = tmp_path / "c.csv"
        cp.write_text(f"user_id,venue_id,timestamp,lat,lon\na,v1,10,1,2\na,v1,20,{lat},{lon}\n")
        with pytest.raises(ParseError) as err:
            load_checkins(cp)
        assert err.value.line_no == 3

    def test_bad_header(self, tmp_path):
        cp = tmp_path / "c.csv"
        cp.write_text("wrong,header\n")
        with pytest.raises(ParseError):
            load_checkins(cp)

    def test_edge_self_loop(self, tmp_path):
        ep = tmp_path / "e.csv"
        ep.write_text("user_a,user_b\nx,x\n")
        with pytest.raises(ParseError):
            load_edges(ep)

    def test_conflicting_venue_coordinates(self):
        rows = [
            make_checkin(venue="v", lat=37.70, lon=-122.40),
            make_checkin(venue="v", ts=50, lat=37.90, lon=-122.40),
        ]
        with pytest.raises(IntegrityError):
            build_dataset(rows, [])


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = random.Random(4)
        rows = [
            CheckIn(
                user_id=f"u{rng.randrange(5)}",
                venue_id=f"v{rng.randrange(7)}",
                timestamp=rng.randrange(10**9),
                lat=rng.uniform(-90, 90),
                lon=rng.uniform(-180, 180),
            )
            for _ in range(200)
        ]
        path = tmp_path / "c.csv"
        save_checkins(rows, path)
        back = load_checkins(path)
        assert back == rows  # field-for-field, floats exact

    def test_load_serialize_load_idempotent(self, tmp_path, small_corpus):
        ds, _ = small_corpus
        c1, e1 = tmp_path / "c1.csv", tmp_path / "e1.csv"
        save_dataset(ds, c1, e1)
        ds2 = load_dataset(c1, e1, ds.config)
        c2, e2 = tmp_path / "c2.csv", tmp_path / "e2.csv"
        save_dataset(ds2, c2, e2)
        assert c1.read_bytes() == c2.read_bytes()
        assert e1.read_bytes() == e2.read_bytes()
        assert ds2.checkins == ds.checkins
        assert ds2.active_users == ds.active_users

    def test_venue_population_checkin_conservation(self, small_corpus):
        ds, _ = small_corpus
        # counting each (user, venue) pair once over all venues matches the
        # number of distinct pairs in the raw stream
        pairs = {(c.user_id, c.venue_id) for c in ds.checkins}
        assert sum(v.population for v in ds.venues.values()) == len(pairs)


class TestDensity:
    def test_radius(self):
        # three venues in a row, 150 m apart: ends see 1 neighbor, middle 2
        step = 150.0 / 111_320.0
        rows = [
            make_checkin(user=f"u{i}", venue=f"v{i}", ts=i, lat=37.75 + i * step, lon=-122.45)
            for i in range(3)
        ]
        ds = build_dataset(rows, [], IngestConfig(density_radius_m=200.0))
        assert ds.venues["v0"].density == 1
        assert ds.venues["v1"].density == 2
        assert ds.venues["v2"].density == 1

    @staticmethod
    def _pair_density(lat, lon_a, lon_b):
        rows = [
            make_checkin(user="a", venue="va", ts=0, lat=lat, lon=lon_a),
            make_checkin(user="b", venue="vb", ts=1, lat=lat, lon=lon_b),
        ]
        ds = build_dataset(rows, [], IngestConfig(density_radius_m=200.0))
        return ds.venues["va"].density, ds.venues["vb"].density

    def test_east_west_neighbours_at_high_latitude(self):
        # 150 m of longitude at 70 degrees north spans more than one bucket
        # of latitude-sized width
        lat = 70.0
        step = math.degrees(0.150 / (EARTH_RADIUS_KM * math.cos(math.radians(lat))))
        assert haversine_km(lat, 10.0, lat, 10.0 + step) * 1000.0 == pytest.approx(150.0, rel=1e-3)
        assert self._pair_density(lat, 10.0, 10.0 + step) == (1, 1)

    def test_neighbours_across_the_antimeridian(self):
        lat = -17.0
        half = math.degrees(0.055 / (EARTH_RADIUS_KM * math.cos(math.radians(lat))))
        assert haversine_km(lat, 180.0 - half, lat, -180.0 + half) * 1000.0 == pytest.approx(
            110.0, rel=1e-3
        )
        assert self._pair_density(lat, 180.0 - half, -180.0 + half) == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.one_of(st.floats(-90, 90), st.floats(85, 90), st.floats(-90, -85)),
                st.one_of(st.floats(-180, 180), st.floats(179.99, 180), st.floats(-180, -179.99)),
            ),
            min_size=1,
            max_size=30,
        ),
        radius_m=st.sampled_from([0.0, 200.0, 5_000.0, 700_000.0]),
    )
    def test_matches_all_pairs(self, points, radius_m):
        coords = {f"v{i}": p for i, p in enumerate(points)}
        got = _venue_density(coords, radius_m)
        for vid, (lat, lon) in coords.items():
            assert got[vid] == sum(
                1
                for other, (olat, olon) in coords.items()
                if other != vid and haversine_km(lat, lon, olat, olon) * 1000.0 <= radius_m
            )


class TestStats:
    def test_constant_checkins_per_user(self):
        rows = []
        for u in "abc":
            for k in range(4):
                rows.append(make_checkin(user=u, venue=f"v{u}", ts=k * 1000 + ord(u)))
        ds = build_dataset(rows, [("a", "b")])
        stats = descriptive_stats(ds)
        assert stats["avg_checkins_per_user"]["mean"] == pytest.approx(4.0)
        assert stats["avg_checkins_per_user"]["std"] == pytest.approx(0.0)
        assert stats["n_checkins"] == 12

    def test_uniform_bipartite(self):
        # 4 users each visiting the same 2 venues twice
        rows = []
        ts = 0
        for u in range(4):
            for v in range(2):
                for _ in range(2):
                    rows.append(
                        make_checkin(user=f"u{u}", venue=f"v{v}", ts=ts, lat=37.7 + v * 0.01)
                    )
                    ts += 100
        ds = build_dataset(rows, [])
        stats = descriptive_stats(ds)
        assert stats["avg_users_per_location"]["mean"] == pytest.approx(4.0)
        assert stats["avg_checkins_per_user_location"]["mean"] == pytest.approx(2.0)
        assert stats["avg_degree_of_repetition"]["mean"] == pytest.approx(1.0)

    def test_against_recount_oracle(self, small_corpus):
        ds, _ = small_corpus
        stats = descriptive_stats(ds)
        # independent recount of a few quantities
        per_user = {}
        per_venue_users = {}
        for c in ds.checkins:
            per_user[c.user_id] = per_user.get(c.user_id, 0) + 1
            per_venue_users.setdefault(c.venue_id, set()).add(c.user_id)
        mean_cpu = sum(per_user.values()) / len(per_user)
        assert stats["avg_checkins_per_user"]["mean"] == pytest.approx(mean_cpu, abs=1e-9)
        mean_upl = sum(len(s) for s in per_venue_users.values()) / len(per_venue_users)
        assert stats["avg_users_per_location"]["mean"] == pytest.approx(mean_upl, abs=1e-9)
        # entropy recount
        from socmob.core import histories_by_user, user_entropy

        hs = histories_by_user(ds.checkins)
        mean_h = sum(user_entropy(h) for h in hs.values()) / len(hs)
        assert stats["avg_user_entropy"]["mean"] == pytest.approx(mean_h, abs=1e-9)

    def test_empty_dataset(self):
        ds = build_dataset([], [])
        with pytest.raises(NoData):
            descriptive_stats(ds)


def test_dataset_from_strings(tmp_path):
    cp = tmp_path / "c.csv"
    ep = tmp_path / "e.csv"
    cp.write_text(CHECKIN_CSV)
    ep.write_text(EDGE_CSV)
    ds = load_dataset(cp, ep, IngestConfig(activity_threshold=1))
    assert len(ds.checkins) == 5
    assert "b" in ds.graph.neighbors("a")
