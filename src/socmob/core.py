"""Core domain types: check-ins, venues, the friendship graph, temporal
context, and the basic per-user statistics built on them.

Everything here is immutable after construction and safe to share across
threads; the algorithmic modules only read these types.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import NoData, UnknownNode

WORKDAY = "workday"
WEEKEND = "weekend"
DAY_NAMES = ("Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat")

SECONDS_PER_DAY = 86_400
SECONDS_PER_HOUR = 3_600
WEEK_SECONDS = 7 * SECONDS_PER_DAY

#: Default fixed offset applied before deriving day/slot features.  The
#: traces this library targets are city-scale, so a single offset is enough;
#: −8 h corresponds to the US Pacific coast.
DEFAULT_UTC_OFFSET_HOURS = -8.0


_FLOAT_MAX = sys.float_info.max


class _CheckInFields(NamedTuple):
    user_id: str
    venue_id: str
    timestamp: int
    lat: float
    lon: float


class CheckIn(_CheckInFields):
    """One timestamped visit of a user to a venue — the atomic event.

    An immutable tuple of its fields, checked on every construction path
    (``CheckIn(...)``, ``_make`` and ``_replace``).

    Attributes:
        user_id: Opaque user identifier.
        venue_id: Opaque venue identifier.
        timestamp: Seconds since the Unix epoch, UTC.
        lat: Latitude in decimal degrees.
        lon: Longitude in decimal degrees.
    """

    __slots__ = ()

    def __new__(cls, user_id: str, venue_id: str, timestamp: int, lat: float, lon: float):
        # chained comparisons are False for NaN and ±inf; the timestamp's
        # upper bound also rejects integers too large for a float
        if not 0 <= timestamp <= _FLOAT_MAX:
            raise ValueError(f"timestamp must be finite and >= 0, got {timestamp}")
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"lat must be finite with |lat| <= 90, got {lat}")
        if not -180.0 <= lon <= 180.0:
            raise ValueError(f"lon must be finite with |lon| <= 180, got {lon}")
        return tuple.__new__(cls, (user_id, venue_id, timestamp, lat, lon))

    @classmethod
    def _make(cls, iterable) -> "CheckIn":
        return cls(*iterable)


#: The venue weightings of the homophily measures (``homophily.WeightScheme``),
#: kept here so that naming them does not load the numeric stack.
WEIGHT_KINDS = ("none", "density", "distance_from_home", "population", "entropy")
#: The weightings that read the venue table (``Dataset.venues``).
VENUE_WEIGHT_KINDS = ("density", "population", "entropy")


@dataclass(frozen=True, slots=True)
class Venue:
    """A venue together with its derived crowd statistics.

    Attributes:
        population: Number of distinct users observed at the venue.
        entropy: Entropy (nats) of the venue's visitor distribution.
        density: Number of other venues within the configured radius.
    """

    venue_id: str
    lat: float
    lon: float
    population: int = 0
    entropy: float = 0.0
    density: int = 0

    def __post_init__(self):
        if self.population < 0 or self.entropy < 0 or self.density < 0:
            raise ValueError("population, entropy and density must be >= 0")


class SocialGraph:
    """Undirected friendship graph with neighbor queries.

    Self-loops are rejected, duplicate edges collapse, and the structure is
    immutable once built.
    """

    __slots__ = ("_adj", "_nodes", "_edge_count")

    def __init__(self, edges: Iterable[tuple[str, str]] = (), nodes: Iterable[str] = ()):
        adj: dict[str, set[str]] = {}
        for u in nodes:
            adj.setdefault(u, set())
        count = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            a = adj.setdefault(u, set())
            b = adj.setdefault(v, set())
            if v not in a:
                count += 1
            a.add(v)
            b.add(u)
        self._adj = {u: frozenset(vs) for u, vs in adj.items()}
        self._nodes = frozenset(self._adj)
        self._edge_count = count

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def __contains__(self, user: str) -> bool:
        return user in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def neighbors(self, user: str) -> frozenset[str]:
        try:
            return self._adj[user]
        except KeyError:
            raise UnknownNode(f"unknown user {user!r}") from None

    def degree(self, user: str) -> int:
        return len(self.neighbors(user))

    def edges(self) -> Iterator[tuple[str, str]]:
        """Each undirected edge once, as a sorted pair, in sorted order."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)


@dataclass(frozen=True, slots=True)
class TemporalContext:
    """Calendar features of a timestamp: day class, day of week, time slot.

    ``slot`` indexes the hour-of-day bucket of width ``slot_hours``; with the
    default of one hour there are 24 slots.
    """

    day_class: str
    day_of_week: int
    slot: int

    def __post_init__(self):
        if not 0 <= self.slot < 24:
            raise ValueError(f"slot out of range: {self.slot}")
        if self.day_class not in (WORKDAY, WEEKEND):
            raise ValueError(f"bad day_class {self.day_class!r}")
        if not 0 <= self.day_of_week <= 6:
            raise ValueError(f"day_of_week out of range: {self.day_of_week}")
        expected = WEEKEND if self.day_of_week in (0, 6) else WORKDAY
        if self.day_class != expected:
            raise ValueError(
                f"day_class {self.day_class!r} inconsistent with "
                f"day_of_week {DAY_NAMES[self.day_of_week]}"
            )

    @classmethod
    def from_timestamp(
        cls,
        timestamp: int,
        slot_hours: int = 1,
        utc_offset_hours: float = DEFAULT_UTC_OFFSET_HOURS,
    ) -> "TemporalContext":
        """The context of ``timestamp``: one shared object per day of week
        and slot, whatever the slot width."""
        if slot_hours <= 0 or 24 % slot_hours != 0:
            raise ValueError(f"slot_hours must be a positive divisor of 24, got {slot_hours}")
        local = int(timestamp + round(utc_offset_hours * SECONDS_PER_HOUR))
        day = local // SECONDS_PER_DAY
        # The epoch fell on a Thursday; index days with Sunday = 0.
        dow = (day + 4) % 7
        slot = (local % SECONDS_PER_DAY) // (slot_hours * SECONDS_PER_HOUR)
        return _CALENDAR[dow * 24 + slot]


# Every calendar context, at index day_of_week * 24 + slot.
_CALENDAR = tuple(
    TemporalContext(WEEKEND if dow in (0, 6) else WORKDAY, dow, slot)
    for dow in range(7)
    for slot in range(24)
)


def entropy_nats(counts: Iterable[float]) -> float:
    """Shannon entropy in nats of an unnormalized count vector.

    Zero counts are ignored; a single-support distribution yields 0.0.
    """
    counts = [c for c in counts if c > 0]
    if not counts:
        raise NoData("entropy of an empty distribution")
    total = float(sum(counts))
    h = 0.0
    for c in counts:
        p = c / total
        h -= p * math.log(p)
    return max(h, 0.0)


def user_entropy(history: Sequence[CheckIn]) -> float:
    """Entropy (nats) of a user's empirical venue-visit distribution."""
    if not history:
        raise NoData("empty history")
    counts: dict[str, int] = {}
    for ci in history:
        counts[ci.venue_id] = counts.get(ci.venue_id, 0) + 1
    return entropy_nats(counts.values())


EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometers."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


#: Meters of latitude per degree; used to size the home-detection grid.
_METERS_PER_DEG_LAT = 111_320.0

#: Side of a home-detection grid cell, in meters.
HOME_CELL_M = 500.0


def home_location(history: Sequence[CheckIn]) -> tuple[float, float]:
    """Estimate a user's home as the centroid of their densest grid cell.

    The bounding grid uses cells of roughly ``HOME_CELL_M`` meters.  Ties
    between equally dense cells resolve to the lexicographically smallest
    (row, column) index, so the result is deterministic and independent of
    the input order.
    """
    if not history:
        raise NoData("empty history")
    lat_step = HOME_CELL_M / _METERS_PER_DEG_LAT
    ref_lat = sum(ci.lat for ci in history) / len(history)
    lon_scale = max(math.cos(math.radians(ref_lat)), 1e-6)
    lon_step = HOME_CELL_M / (_METERS_PER_DEG_LAT * lon_scale)

    cells: dict[tuple[int, int], list[CheckIn]] = {}
    for ci in history:
        key = (math.floor(ci.lat / lat_step), math.floor(ci.lon / lon_step))
        cells.setdefault(key, []).append(ci)
    best = min(cells, key=lambda k: (-len(cells[k]), k))
    members = cells[best]
    lat = sum(ci.lat for ci in members) / len(members)
    lon = sum(ci.lon for ci in members) / len(members)
    return (lat, lon)


def histories_by_user(checkins: Sequence[CheckIn]) -> dict[str, list[CheckIn]]:
    """Split a time-sorted check-in stream into per-user histories."""
    out: dict[str, list[CheckIn]] = {}
    for ci in checkins:
        out.setdefault(ci.user_id, []).append(ci)
    return out


def group_by_venue(history: Sequence[CheckIn]) -> Mapping[str, list[int]]:
    """Venue id -> sorted timestamps of the user's visits there."""
    out: dict[str, list[int]] = {}
    for ci in history:
        out.setdefault(ci.venue_id, []).append(ci.timestamp)
    for ts in out.values():
        ts.sort()
    return out
