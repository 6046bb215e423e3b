"""Loading and describing check-in corpora.

File formats
------------
Check-in file: CSV with header ``user_id,venue_id,timestamp,lat,lon``;
UTF-8; timestamps are integer seconds.  Edge file: CSV with header
``user_a,user_b``, one undirected edge per row; duplicates are ignored.

Check-in rows are validated as they are read: the timestamp is an integer
from 0 up to the largest float, the latitude lies in [-90, 90] and the
longitude in [-180, 180].  A row that breaks a rule, or CSV the reader
cannot split, raises ParseError with the line the record ends on (the
physical line for a record without a quoted newline); a file that is not
UTF-8 names the line of its first byte that is not.  The rules are
``CheckIn``'s, applied in its order; each distinct pair of coordinate
strings is parsed and range-checked once, and its check-ins share the
parsed floats.

Loading does eagerly only what validation and the graph need: one loop
over the sorted check-ins checks that repeat visits to a venue agree on
its coordinates and counts each user's check-ins, which give the
friendship graph's nodes and the active users (those with at least
``activity_threshold`` check-ins, which must be at least 1).  The venue
table (population, entropy and density) is built from the check-ins on
the first read of ``Dataset.venues``.  ``descriptive_stats`` counts each
user's venue visits once and reads every per-user figure from that one
tally.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from . import cohesion
from .core import (
    _FLOAT_MAX,
    EARTH_RADIUS_KM,
    CheckIn,
    SocialGraph,
    Venue,
    entropy_nats,
    haversine_km,
    histories_by_user,
)
from .errors import ConfigError, IntegrityError, NoData, ParseError, not_utf8

CHECKIN_HEADER = ["user_id", "venue_id", "timestamp", "lat", "lon"]
EDGE_HEADER = ["user_a", "user_b"]


#: Radius, in meters, of the neighbourhood that a venue's density counts.
DENSITY_RADIUS_M = 200.0


@dataclass(frozen=True)
class IngestConfig:
    """Knobs for dataset derivation.

    ``activity_threshold`` is the minimum check-in count for a user to be
    considered active.
    """

    activity_threshold: int = 50

    def __post_init__(self):
        if self.activity_threshold < 1:
            raise ConfigError(
                f"activity_threshold must be at least 1, got {self.activity_threshold}"
            )


@dataclass(frozen=True)
class Dataset:
    """A loaded corpus: time-sorted check-ins, graph, active users, and the
    venue table, which is built from the check-ins when first read."""

    checkins: tuple[CheckIn, ...]
    graph: SocialGraph
    active_users: frozenset[str]
    config: IngestConfig = field(default_factory=IngestConfig)

    @cached_property
    def venues(self) -> dict[str, Venue]:
        """Each venue's coordinates, population, entropy and density, venues
        and their visitors in order of first check-in."""
        coords: dict[str, tuple[float, float]] = {}
        visitors: dict[str, dict[str, int]] = {}
        for user, vid, _, lat, lon in self.checkins:
            seen = visitors.get(vid)
            if seen is None:
                coords[vid] = (lat, lon)
                visitors[vid] = {user: 1}
            else:
                seen[user] = seen.get(user, 0) + 1
        density = _venue_density(coords, DENSITY_RADIUS_M)
        return {
            vid: Venue(
                venue_id=vid,
                lat=lat,
                lon=lon,
                population=len(seen),
                entropy=entropy_nats(seen.values()),
                density=density[vid],
            )
            for (vid, (lat, lon)), seen in zip(coords.items(), visitors.values())
        }

    def histories(self) -> dict[str, list[CheckIn]]:
        return histories_by_user(self.checkins)

    def span(self) -> tuple[int, int]:
        if not self.checkins:
            raise NoData("empty dataset")
        return (self.checkins[0].timestamp, self.checkins[-1].timestamp)


def load_checkins(path: str | Path) -> list[CheckIn]:
    rows: list[CheckIn] = []
    append = rows.append
    new = tuple.__new__
    # each distinct pair of (lat, lon) strings, parsed, kept once it has
    # passed its range checks; check-ins at one venue share its floats
    pairs: dict[tuple[str, str], tuple[float, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                return rows
            if [h.strip() for h in header] != CHECKIN_HEADER:
                raise ParseError(f"bad check-in header {header!r}", line_no=1)
            for row in reader:
                if not row:
                    continue
                if len(row) != 5:
                    raise ParseError(f"expected 5 fields, got {len(row)}", reader.line_num)
                user_id, venue_id, timestamp, lat, lon = row
                try:
                    # CheckIn's checks, in its order; on a failure CheckIn
                    # itself raises, so its messages stay the one statement
                    ts = int(timestamp)
                    pair = pairs.get((lat, lon))
                    if pair is None:
                        y, x = float(lat), float(lon)
                        if not (
                            0 <= ts <= _FLOAT_MAX and -90.0 <= y <= 90.0 and -180.0 <= x <= 180.0
                        ):
                            CheckIn(user_id, venue_id, ts, y, x)
                        pairs[lat, lon] = (y, x)
                    else:
                        y, x = pair
                        if not 0 <= ts <= _FLOAT_MAX:
                            CheckIn(user_id, venue_id, ts, y, x)
                except (ValueError, TypeError) as exc:
                    raise ParseError(str(exc), reader.line_num) from exc
                append(new(CheckIn, (user_id, venue_id, ts, y, x)))
        except csv.Error as exc:
            raise ParseError(str(exc), reader.line_num) from None
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return rows


def load_edges(path: str | Path) -> set[tuple[str, str]]:
    edges: set[tuple[str, str]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                return edges
            if [h.strip() for h in header] != EDGE_HEADER:
                raise ParseError(f"bad edge header {header!r}", line_no=1)
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise ParseError(f"expected 2 fields, got {len(row)}", reader.line_num)
                a, b = row
                if a == b:
                    raise ParseError(f"self-loop on {a!r}", reader.line_num)
                edges.add((min(a, b), max(a, b)))
        except csv.Error as exc:
            raise ParseError(str(exc), reader.line_num) from None
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return edges


def _venue_density(coords: dict[str, tuple[float, float]], radius_m: float) -> dict[str, int]:
    """Venues within radius_m of each venue, by great-circle distance.

    A neighbour's latitude differs by at most the radius's angle, and its
    longitude by at most the widest span the radius covers at the venue's
    latitude, which grows towards the poles (every longitude when the
    circle holds a pole).  Buckets that wide in latitude, and as wide in
    longitude as that span at the latitude farthest from the equator,
    wrapping across ±180°, hold every neighbour of a venue in its own
    bucket or an adjacent one; each candidate's distance is then measured.
    """
    if not coords:
        return {}
    # a relative margin keeps float rounding from narrowing either bound
    margin = 1.0 + 1e-9
    angle = math.degrees(radius_m / 1000.0 / EARTH_RADIUS_KM) * margin
    lat_step = max(angle, 1e-9)
    sin_angle = math.sin(math.radians(min(angle, 90.0)))
    widest = math.cos(math.radians(max(abs(lat) for lat, _ in coords.values())))
    n_lon = 1
    if sin_angle < widest:
        reach = max(math.degrees(math.asin(sin_angle / widest)) * margin, 1e-9)
        # whole buckets around the globe, each at least the span wide;
        # with fewer than three, one bucket holds every longitude
        n_lon = int(360.0 / reach)
        if n_lon < 3:
            n_lon = 1
    lon_step = 360.0 / n_lon
    buckets: dict[tuple[int, int], list[str]] = {}
    for vid, (lat, lon) in coords.items():
        key = (math.floor(lat / lat_step), int((lon + 180.0) // lon_step) % n_lon)
        buckets.setdefault(key, []).append(vid)
    sides = (-1, 0, 1) if n_lon > 1 else (0,)
    density = dict.fromkeys(coords, 0)
    for (bi, bj), members in buckets.items():
        nearby: list[str] = []
        for di in (-1, 0, 1):
            for dj in sides:
                nearby.extend(buckets.get((bi + di, (bj + dj) % n_lon), ()))
        for vid in members:
            lat, lon = coords[vid]
            n = 0
            for other in nearby:
                if other == vid:
                    continue
                olat, olon = coords[other]
                # farther apart in latitude alone than a bucket is tall: no
                # need to measure (not the bare radius, since haversine_km
                # reads 0 for latitudes too close for its squares to hold)
                if abs(olat - lat) <= lat_step and (
                    haversine_km(lat, lon, olat, olon) * 1000.0 <= radius_m
                ):
                    n += 1
            density[vid] = n
    return density


def build_dataset(
    checkins: Iterable[CheckIn],
    edges: Iterable[tuple[str, str]],
    config: IngestConfig | None = None,
) -> Dataset:
    """Assemble a Dataset from in-memory records.

    Repeat visits to a venue must agree on its coordinates; the venue
    statistics are left to ``Dataset.venues``.
    """
    config = config or IngestConfig()
    # (timestamp, user_id, venue_id)
    ordered = tuple(sorted(checkins, key=itemgetter(2, 0, 1)))

    # one loop: each venue's first coordinates, check-ins per user
    coords: dict[str, tuple[float, float]] = {}
    per_user: dict[str, int] = {}
    for user, vid, _, lat, lon in ordered:
        prev = coords.get(vid)
        if prev is None:
            coords[vid] = (lat, lon)
        # identical coordinates are 0 m apart: skip the trigonometry
        elif (lat, lon) != prev and haversine_km(prev[0], prev[1], lat, lon) * 1000.0 > 1.0:
            raise IntegrityError(f"venue {vid!r} appears with conflicting coordinates")
        per_user[user] = per_user.get(user, 0) + 1

    active = frozenset(u for u, n in per_user.items() if n >= config.activity_threshold)
    return Dataset(
        checkins=ordered,
        graph=SocialGraph(edges, nodes=per_user),
        active_users=active,
        config=config,
    )


def load_dataset(
    checkin_path: str | Path,
    edges_path: str | Path,
    config: IngestConfig | None = None,
) -> Dataset:
    return build_dataset(load_checkins(checkin_path), load_edges(edges_path), config)


def save_checkins(checkins: Sequence[CheckIn], path: str | Path) -> None:
    """Write check-ins in the canonical CSV format (exact float round-trip)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CHECKIN_HEADER)
        for ci in checkins:
            writer.writerow([ci.user_id, ci.venue_id, ci.timestamp, repr(ci.lat), repr(ci.lon)])


def save_edges(edges: Iterable[tuple[str, str]], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGE_HEADER)
        for a, b in sorted((min(e), max(e)) for e in edges):
            writer.writerow([a, b])


def save_dataset(dataset: Dataset, checkin_path: str | Path, edges_path: str | Path) -> None:
    save_checkins(dataset.checkins, checkin_path)
    save_edges(dataset.graph.edges(), edges_path)


def _mean_std(values: Sequence[float]) -> dict[str, float]:
    n = len(values)
    if n == 0:
        return {"mean": 0.0, "std": 0.0}
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return {"mean": mean, "std": math.sqrt(var)}


def descriptive_stats(
    dataset: Dataset,
    path_length_samples: int = 50,
    seed: int = 0,
) -> dict:
    """Corpus-level descriptive statistics.

    Averages that vary per user or venue are reported as mean/std pairs.
    The "degree of repetition" entry is interpretive: average check-ins per
    user-location pair minus one (repeat visits beyond the first).
    """
    if not dataset.checkins:
        raise NoData("empty dataset")
    g = dataset.graph

    # each user's visits per venue, users and venues in order of first check-in
    visits: dict[str, dict[str, int]] = {}
    for user, vid, _, _, _ in dataset.checkins:
        counts = visits.get(user)
        if counts is None:
            counts = visits[user] = {}
        counts[vid] = counts.get(vid, 0) + 1

    checkins_per_user = [float(sum(c.values())) for c in visits.values()]
    locations_per_user = [float(len(c)) for c in visits.values()]
    entropies = [entropy_nats(c.values()) for c in visits.values()]

    per_venue_checkins = dict.fromkeys(dataset.venues, 0)
    pair_counts: list[float] = []
    for counts in visits.values():
        for vid, n in counts.items():
            per_venue_checkins[vid] += n
            pair_counts.append(float(n))
    checkins_per_location = [float(n) for n in per_venue_checkins.values()]
    users_per_location = [float(v.population) for v in dataset.venues.values()]
    location_entropies = [v.entropy for v in dataset.venues.values()]
    repetition = [c - 1.0 for c in pair_counts]

    start, end = dataset.span()
    days = max((end - start) / 86_400.0, 1e-9)

    stats: dict = {
        "n_users": len(g.nodes),
        "n_edges": g.edge_count,
        "n_active_users": len(dataset.active_users),
        "avg_degree": (2.0 * g.edge_count / len(g.nodes)) if len(g.nodes) else 0.0,
        "n_locations": len(dataset.venues),
        "n_checkins": len(dataset.checkins),
        "avg_checkins_per_user_day": len(dataset.checkins) / max(len(visits), 1) / days,
        "clustering_coefficient": cohesion.clustering_coefficient(g) if len(g.nodes) else 0.0,
        "avg_checkins_per_location": _mean_std(checkins_per_location),
        "avg_checkins_per_user": _mean_std(checkins_per_user),
        "avg_locations_per_user": _mean_std(locations_per_user),
        "avg_users_per_location": _mean_std(users_per_location),
        "avg_checkins_per_user_location": _mean_std(pair_counts),
        "avg_degree_of_repetition": _mean_std(repetition),
        "avg_user_entropy": _mean_std(entropies),
        "avg_location_entropy": _mean_std(location_entropies),
    }
    if g.edge_count > 0:
        mean, std = cohesion.avg_path_length(g, sample_size=path_length_samples, seed=seed)
        stats["mean_avg_path_length"] = {"mean": mean, "std": std}
    return stats


def stats_to_json(stats: dict) -> str:
    return json.dumps(stats, indent=2, sort_keys=True)

