import csv
import math
import random
import tempfile
from collections import deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from socmob import cohesion
from socmob.core import (
    EARTH_RADIUS_KM,
    CheckIn,
    SocialGraph,
    Venue,
    entropy_nats,
    haversine_km,
    user_entropy,
)
from socmob.errors import ConfigError, IntegrityError, NoData, ParseError, UnknownNode
from socmob.ingestion import (
    CHECKIN_HEADER,
    DENSITY_RADIUS_M,
    Dataset,
    IngestConfig,
    _mean_std,
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

    @pytest.mark.parametrize("digits", [309, 310, 400])
    def test_timestamp_too_large_for_a_float_rejected_with_line_number(self, tmp_path, digits):
        cp = tmp_path / "c.csv"
        cp.write_text(f"user_id,venue_id,timestamp,lat,lon\na,v1,10,1,2\na,v1,{'9' * digits},1,2\n")
        with pytest.raises(ParseError, match="^line 3: timestamp must be finite and >= 0") as err:
            load_checkins(cp)
        assert err.value.line_no == 3

    def test_unterminated_quote_in_checkins_is_a_parse_error(self, tmp_path):
        cp = tmp_path / "c.csv"
        long_field = "x" * (csv.field_size_limit() + 10)
        cp.write_text(f'user_id,venue_id,timestamp,lat,lon\na,v1,10,1,2\n"{long_field}\n')
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            load_checkins(cp)
        assert err.value.line_no == 3

    def test_unterminated_quote_in_edges_is_a_parse_error(self, tmp_path):
        ep = tmp_path / "e.csv"
        long_field = "x" * (csv.field_size_limit() + 10)
        ep.write_text(f'user_a,user_b\na,b\nb,"{long_field}\n')
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            load_edges(ep)
        assert err.value.line_no == 3

    def test_checkin_error_line_after_a_quoted_newline(self, tmp_path):
        # the second record spans lines 2-3, so the bad row is physical line 4
        cp = tmp_path / "c.csv"
        cp.write_text('user_id,venue_id,timestamp,lat,lon\na,"v\n1",10,1,2\na,v2,soon,1,2\n')
        with pytest.raises(ParseError, match="^line 4: ") as err:
            load_checkins(cp)
        assert err.value.line_no == 4

    def test_edge_error_line_after_a_quoted_newline(self, tmp_path):
        ep = tmp_path / "e.csv"
        ep.write_text('user_a,user_b\na,"b\nc"\nx,x\n')
        with pytest.raises(ParseError, match="^line 4: self-loop") as err:
            load_edges(ep)
        assert err.value.line_no == 4

    @pytest.mark.parametrize("kind", ["checkins", "edges"])
    def test_not_utf8_names_the_line_of_the_first_bad_byte(self, tmp_path, kind):
        # far past the first chunk the text layer decodes, and well ahead of
        # the end of the file
        if kind == "checkins":
            header, rows = "user_id,venue_id,timestamp,lat,lon\n", "u,v,1,0,0\n" * 2000
            load = load_checkins
        else:
            header, rows = "user_a,user_b\n", "u,w\n" * 5000
            load = load_edges
        path = tmp_path / "bad.csv"
        path.write_bytes((header + rows).encode() + b"u,\xe9\n" + rows.encode())
        line = rows.count("\n") + 2
        with pytest.raises(ParseError, match=f"^line {line}: not UTF-8") as err:
            load(path)
        assert err.value.line_no == line

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
        ds = build_dataset(rows, [], IngestConfig())
        assert ds.venues["v0"].density == 1
        assert ds.venues["v1"].density == 2
        assert ds.venues["v2"].density == 1

    @staticmethod
    def _pair_density(lat, lon_a, lon_b):
        rows = [
            make_checkin(user="a", venue="va", ts=0, lat=lat, lon=lon_a),
            make_checkin(user="b", venue="vb", ts=1, lat=lat, lon=lon_b),
        ]
        ds = build_dataset(rows, [], IngestConfig())
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

    def test_coincident_by_haversine_at_zero_radius(self):
        # these latitudes differ, but too little for haversine_km's squares
        # to hold: it reads 0 km, which is within a radius of 0 m
        coords = {"a": (0.0, 0.0), "b": (1.9749397530685926e-275, 0.0)}
        assert haversine_km(0.0, 0.0, 1.9749397530685926e-275, 0.0) == 0.0
        assert _venue_density(coords, 0.0) == {"a": 1, "b": 1}

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


class TestActivityThreshold:
    @pytest.mark.parametrize("threshold", [0, -5])
    def test_below_one_is_a_config_error(self, threshold):
        with pytest.raises(ConfigError, match="^activity_threshold must be at least 1"):
            IngestConfig(activity_threshold=threshold)

    def test_one_counts_every_user_with_a_check_in(self, tmp_path):
        cp, ep = tmp_path / "c.csv", tmp_path / "e.csv"
        cp.write_text(CHECKIN_CSV)
        ep.write_text("user_a,user_b\nc,d\n")
        ds = load_dataset(cp, ep, IngestConfig(activity_threshold=1))
        assert ds.active_users == {"a", "b", "c"}


class TestVenueTable:
    def test_built_on_first_read_and_kept(self, tmp_path):
        cp, ep = tmp_path / "c.csv", tmp_path / "e.csv"
        cp.write_text(CHECKIN_CSV)
        ep.write_text(EDGE_CSV)
        ds = load_dataset(cp, ep)
        assert "venues" not in ds.__dict__
        venues = ds.venues
        assert list(venues) == ["v1", "v2"]
        assert ds.venues is venues

    def test_conflicting_coordinates_are_found_without_a_venue_read(self):
        rows = [
            make_checkin(venue="v", lat=37.70, lon=-122.40),
            make_checkin(venue="w", ts=20, lat=1.0, lon=2.0),
            make_checkin(venue="v", ts=50, lat=37.90, lon=-122.40),
        ]
        with pytest.raises(IntegrityError, match="^venue 'v' appears"):
            build_dataset(rows, [])


def test_dataset_from_strings(tmp_path):
    cp = tmp_path / "c.csv"
    ep = tmp_path / "e.csv"
    cp.write_text(CHECKIN_CSV)
    ep.write_text(EDGE_CSV)
    ds = load_dataset(cp, ep, IngestConfig(activity_threshold=1))
    assert len(ds.checkins) == 5
    assert "b" in ds.graph.neighbors("a")


# --- reference loader ---------------------------------------------------------
#
# A deliberately plain loader: one pass per derived quantity, every check-in
# built by keyword, and a queue BFS per source.  The module's one-pass loader
# must give equal results.


def reference_load_checkins(path):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return rows
        assert [h.strip() for h in header] == CHECKIN_HEADER
        for row in reader:
            if row:
                rows.append(
                    CheckIn(
                        user_id=row[0],
                        venue_id=row[1],
                        timestamp=int(row[2]),
                        lat=float(row[3]),
                        lon=float(row[4]),
                    )
                )
    return rows


def reference_build_dataset(checkins, edges, config):
    """The dataset and, built apart from it, its venue table."""
    ordered = tuple(sorted(checkins, key=lambda c: (c.timestamp, c.user_id, c.venue_id)))
    coords = {}
    visitors = {}
    for ci in ordered:
        prev = coords.get(ci.venue_id)
        if prev is None:
            coords[ci.venue_id] = (ci.lat, ci.lon)
        elif haversine_km(prev[0], prev[1], ci.lat, ci.lon) * 1000.0 > 1.0:
            raise IntegrityError(f"venue {ci.venue_id!r} appears with conflicting coordinates")
        visitors.setdefault(ci.venue_id, {})
        visitors[ci.venue_id][ci.user_id] = visitors[ci.venue_id].get(ci.user_id, 0) + 1
    density = _venue_density(coords, DENSITY_RADIUS_M)
    venues = {
        vid: Venue(
            venue_id=vid,
            lat=coords[vid][0],
            lon=coords[vid][1],
            population=len(visitors[vid]),
            entropy=entropy_nats(visitors[vid].values()),
            density=density[vid],
        )
        for vid in coords
    }
    graph = SocialGraph(edges, nodes={ci.user_id for ci in ordered})
    per_user = {}
    for ci in ordered:
        per_user[ci.user_id] = per_user.get(ci.user_id, 0) + 1
    active = frozenset(u for u, n in per_user.items() if n >= config.activity_threshold)
    return Dataset(ordered, graph, active, config), venues


def reference_avg_path_length(g, sample_size, seed):
    nodes = sorted(g.nodes)
    if not nodes or g.edge_count == 0:
        raise UnknownNode("path length needs a graph with at least one edge")
    rng = random.Random(seed)
    sources = nodes if sample_size >= len(nodes) else rng.sample(nodes, sample_size)
    total = 0.0
    total_sq = 0.0
    count = 0
    for src in sources:
        dist = {src: 0}
        q = deque([src])
        while q:
            u = q.popleft()
            for v in g.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        for v, d in dist.items():
            if v != src:
                total += d
                total_sq += d * d
                count += 1
    if count == 0:
        return (0.0, 0.0)
    mean = total / count
    return (mean, math.sqrt(max(total_sq / count - mean * mean, 0.0)))


def reference_descriptive_stats(dataset, venues, path_length_samples, seed):
    histories = dataset.histories()
    g = dataset.graph
    per_venue_checkins = {}
    per_venue_users = {}
    for ci in dataset.checkins:
        per_venue_checkins[ci.venue_id] = per_venue_checkins.get(ci.venue_id, 0) + 1
        per_venue_users.setdefault(ci.venue_id, set()).add(ci.user_id)
    pair_counts = []
    for h in histories.values():
        per_venue = {}
        for ci in h:
            per_venue[ci.venue_id] = per_venue.get(ci.venue_id, 0) + 1
        pair_counts.extend(float(n) for n in per_venue.values())
    start, end = dataset.span()
    days = max((end - start) / 86_400.0, 1e-9)
    stats = {
        "n_users": len(g.nodes),
        "n_edges": g.edge_count,
        "n_active_users": len(dataset.active_users),
        "avg_degree": (2.0 * g.edge_count / len(g.nodes)) if len(g.nodes) else 0.0,
        "n_locations": len(venues),
        "n_checkins": len(dataset.checkins),
        "avg_checkins_per_user_day": len(dataset.checkins) / max(len(histories), 1) / days,
        "clustering_coefficient": cohesion.clustering_coefficient(g) if len(g.nodes) else 0.0,
        "avg_checkins_per_location": _mean_std([float(n) for n in per_venue_checkins.values()]),
        "avg_checkins_per_user": _mean_std([float(len(h)) for h in histories.values()]),
        "avg_locations_per_user": _mean_std(
            [float(len({c.venue_id for c in h})) for h in histories.values()]
        ),
        "avg_users_per_location": _mean_std([float(len(u)) for u in per_venue_users.values()]),
        "avg_checkins_per_user_location": _mean_std(pair_counts),
        "avg_degree_of_repetition": _mean_std([c - 1.0 for c in pair_counts]),
        "avg_user_entropy": _mean_std([user_entropy(h) for h in histories.values()]),
        "avg_location_entropy": _mean_std([v.entropy for v in venues.values()]),
    }
    if g.edge_count > 0:
        mean, std = reference_avg_path_length(g, path_length_samples, seed)
        stats["mean_avg_path_length"] = {"mean": mean, "std": std}
    return stats


USERS = [f"u{i}" for i in range(7)]
VENUE_SITES = {f"v{i}": (37.70 + 0.003 * i, -122.45 + 0.002 * (i % 3)) for i in range(6)}


@st.composite
def corpora(draw):
    """Unsorted check-in rows with blank lines, repeat visits and tied
    timestamps; venue coordinates that repeat exactly, move by well under a
    metre or (rarely) conflict; and a friendship graph that may fall apart
    and may name users without check-ins."""
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        venue = draw(st.sampled_from(sorted(VENUE_SITES)))
        lat, lon = VENUE_SITES[venue]
        nudge = draw(st.sampled_from([0.0] * 6 + [1e-9, 2e-6, -3e-6, 1e-3]))
        user = draw(st.sampled_from(USERS))
        ts = draw(st.integers(0, 30)) * draw(st.sampled_from([1, 3_600, 86_400]))
        lines.append(f"{user},{venue},{ts},{lat + nudge!r},{lon!r}")
        if draw(st.integers(0, 7)) == 0:
            lines.append("")
    pairs = draw(st.lists(st.tuples(st.sampled_from(USERS), st.sampled_from(USERS)), max_size=12))
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    config = IngestConfig(activity_threshold=draw(st.integers(1, 5)))
    return lines, edges, config


class TestAgainstReferenceLoader:
    @settings(max_examples=150, deadline=None)
    @given(corpus=corpora(), samples=st.integers(1, 8), seed=st.integers(0, 3))
    def test_one_pass_loader_matches_reference(self, corpus, samples, seed):
        lines, edges, config = corpus
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "c.csv"
            path.write_text("\n".join([",".join(CHECKIN_HEADER), *lines]) + "\n")
            rows = load_checkins(path)
            assert rows == reference_load_checkins(path)
        try:
            expected, venues = reference_build_dataset(rows, edges, config)
        except IntegrityError:
            with pytest.raises(IntegrityError):
                build_dataset(rows, edges, config)
            return
        ds = build_dataset(rows, edges, config)
        assert ds.checkins == expected.checkins
        assert list(ds.venues.items()) == list(venues.items())
        assert ds.graph.nodes == expected.graph.nodes
        assert ds.graph.edge_count == expected.graph.edge_count
        assert {u: ds.graph.neighbors(u) for u in ds.graph.nodes} == {
            u: expected.graph.neighbors(u) for u in expected.graph.nodes
        }
        assert ds.active_users == expected.active_users
        if rows:
            stats = descriptive_stats(ds, path_length_samples=samples, seed=seed)
            expected_stats = reference_descriptive_stats(expected, venues, samples, seed)
            assert stats == expected_stats
            assert list(stats) == list(expected_stats)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 12),
        pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=30),
        samples=st.integers(1, 14),
        seed=st.integers(0, 5),
    )
    def test_bitmask_path_length_matches_queue_bfs(self, n, pairs, samples, seed):
        # isolated vertices and several components; samples below and above n
        edges = [(f"n{a % n:02d}", f"n{b % n:02d}") for a, b in pairs if a % n != b % n]
        g = SocialGraph(edges, nodes=[f"n{i:02d}" for i in range(n)])
        if g.edge_count == 0:
            with pytest.raises(UnknownNode):
                cohesion.avg_path_length(g, samples, seed)
            return
        assert cohesion.avg_path_length(g, samples, seed) == reference_avg_path_length(
            g, samples, seed
        )


# --- the loader's checks against CheckIn's -----------------------------------
#
# The loader parses each distinct coordinate pair once and checks rows
# inline; it must accept and reject exactly what CheckIn does, and name the
# same first fault of a row with several.

TIMESTAMPS = ["0", "7", "1700000000", "-0", " 12", "-1", "1.5", "x", "", "9" * 310, "1e3"]
GOOD_COORDS = ["0", "-0.0", "0.0", "37.75", "-122.45", "90", "-90", "180", "-180", "1e1"]
BAD_COORDS = ["nan", "NaN", "inf", "-inf", "90.5", "-180.000001", "181", "1e999", "x", "", "1,5"]


@st.composite
def checkin_rows(draw):
    """Rows whose faults may sit in several fields at once, with coordinate
    strings often repeated verbatim from an earlier row."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if rows and draw(st.integers(0, 2)) == 0:
            lat, lon = draw(st.sampled_from(rows))[3:]
        else:
            lat, lon = (
                draw(st.sampled_from(GOOD_COORDS * 4 + BAD_COORDS)) for _ in range(2)
            )
        ts = draw(st.sampled_from(TIMESTAMPS[:4] * 4 + TIMESTAMPS))
        rows.append((draw(st.sampled_from("ab")), draw(st.sampled_from("vw")), ts, lat, lon))
    return rows


def per_row_reference(rows):
    """The check-ins of ``rows``, and the (line, message) of the first row
    that ``CheckIn`` rejects, if any."""
    out = []
    for line, (user, venue, ts, lat, lon) in enumerate(rows, start=2):
        try:
            out.append(CheckIn(user, venue, int(ts), float(lat), float(lon)))
        except ValueError as exc:
            return out, (line, str(exc))
    return out, None


def loader_pairs(exc):
    """The coordinate cache of the ``load_checkins`` frame that raised."""
    tb = exc.__traceback__
    while tb.tb_frame.f_code is not load_checkins.__code__:
        tb = tb.tb_next
    return tb.tb_frame.f_locals["pairs"]


class TestLoaderChecksAsCheckIn:
    @settings(max_examples=300, deadline=None)
    @given(rows=checkin_rows())
    @example(rows=[("a", "v", "x", "y", "1")])
    @example(rows=[("a", "v", "1", "2", "3"), ("b", "w", "-1", "2", "3")])
    def test_same_rows_and_same_first_fault(self, rows):
        expected, fault = per_row_reference(rows)
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "c.csv"
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([CHECKIN_HEADER, *rows])
            if fault is None:
                loaded = load_checkins(path)
            else:
                with pytest.raises(ParseError) as err:
                    load_checkins(path)
        if fault is not None:
            line, message = fault
            assert err.value.line_no == line
            assert str(err.value) == f"line {line}: {message}"
            # only pairs of rows that passed are kept, never the failing one's
            # unless an earlier row that passed had it too
            passed = {(lat, lon) for *_, lat, lon in rows[: line - 2]}
            assert set(loader_pairs(err.value)) == passed
            return
        assert [repr(c) for c in loaded] == [repr(c) for c in expected]
        assert all(type(c) is CheckIn for c in loaded)
        first: dict[tuple[str, str], CheckIn] = {}
        for raw, c in zip(rows, loaded):
            seen = first.setdefault(raw[3:], c)
            assert c.lat is seen.lat and c.lon is seen.lon

    def test_a_cached_pair_still_checks_the_timestamp(self, tmp_path):
        cp = tmp_path / "c.csv"
        cp.write_text("user_id,venue_id,timestamp,lat,lon\na,v,1,2.5,3\na,v,-4,2.5,3\n")
        with pytest.raises(ParseError) as err:
            load_checkins(cp)
        assert str(err.value) == "line 3: timestamp must be finite and >= 0, got -4"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,y,3", "invalid literal for int() with base 10: 'x'"),
            ("-4,y,3", "could not convert string to float: 'y'"),
            ("-4,nan,3", "timestamp must be finite and >= 0, got -4"),
            ("4,nan,inf", "lat must be finite with |lat| <= 90, got nan"),
        ],
    )
    def test_the_first_fault_of_a_row_is_named(self, tmp_path, row, message):
        cp = tmp_path / "c.csv"
        cp.write_text(f"user_id,venue_id,timestamp,lat,lon\na,v,{row}\n")
        with pytest.raises(ParseError) as err:
            load_checkins(cp)
        assert str(err.value) == f"line 2: {message}"
