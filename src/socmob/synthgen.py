"""Deterministic synthetic check-in corpus with planted social structure.

The generator builds a population with:

* per-user weekly routines (home, lunch and evening venues per day of
  week, plus a daily afternoon habit) over user-exclusive venues, and
  random exploration over a shared pool, so the individual model has
  learnable structure and a realistic share of never-seen venues;
* planted friend groups wired as genuine 2-plexes (complete minus a
  perfect matching) plus background edges;
* recurring group outings that start at the group hangout and continue
  to a venue owned by whichever crew showed up — a signal invisible to
  purely individual models, since the hangout context is the same for
  both crews;
* buddy meetups: lunch together at the follower's venue, then a move to
  the buddy's daily habit venue;
* a per-group café adopted for a few weeks at a time and visited on
  weekend afternoons, an asynchronous trend.

One seeded RNG drives deterministically ordered loops, so a seed fixes
the corpus byte for byte.  Ground truth lists the planted groups,
sessions and influence-driven events.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .core import DEFAULT_UTC_OFFSET_HOURS, CheckIn
from .errors import ConfigError
from .ingestion import Dataset, IngestConfig, build_dataset, save_checkins, save_edges

SECONDS_PER_DAY = 86_400
#: Local day number of the corpus start; chosen to be a Monday.
_BASE_DAY = 18_001

#: Available weekly outing slots: workday evenings and weekend afternoons,
#: placed so that a session never runs into the next routine check-in.
_SESSION_SLOTS = ((1, 20), (2, 20), (3, 20), (4, 20), (5, 20), (0, 13), (6, 13))

#: Random background friendships drawn per user.
_EXTRA_EDGES_PER_USER = 2
#: Exclusive routine venues per user: home, habit, two lunch spots and two
#: evening spots.
_VENUES_PER_USER = 6
_ROUTINE_RATE = 0.65  # probability each routine slot fires
_AFTERNOON_RATE = 0.5  # workday habit-venue visits
_EXPLORE_RATE = 0.35  # expected exploration visits per day
_ATTEND_RATE = 0.95  # probability a crew member comes to an outing
#: Weeks each group keeps one café before adopting the next.
_CAFE_BLOCK_WEEKS = 3


@dataclass(frozen=True)
class GenConfig:
    n_users: int = 200
    n_venues: int | None = None  # default: exclusive routine venues + shared pool
    days: int = 60
    seed: int = 1

    group_size: int = 8  # groups cover the whole population

    p_cositu: float = 0.0  # per outing slot per week
    p_meetup: float = 0.0  # per buddy pair per week
    p_follow: float = 0.0  # per member per weekend day: café visit

    activity_threshold: int = 50

    def __post_init__(self):
        for name in ("p_cositu", "p_meetup", "p_follow"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.n_users < 2 or self.days < 1:
            raise ConfigError("corpus too small")
        if self.group_size < 4 or self.group_size % 2:
            raise ConfigError("group_size must be an even number >= 4")
        if self.n_venues is not None and self.n_venues < self.min_venues(self):
            raise ConfigError(f"n_venues must be at least {self.min_venues(self)}")
        if self.activity_threshold < 1:
            raise ConfigError(
                f"activity_threshold must be at least 1, got {self.activity_threshold}"
            )

    @staticmethod
    def min_venues(cfg: "GenConfig") -> int:
        n_groups = cfg.n_users // cfg.group_size
        return cfg.n_users * _VENUES_PER_USER + max(60, 14 * n_groups)


@dataclass
class GroundTruth:
    groups: list[dict] = field(default_factory=list)
    sessions: list[dict] = field(default_factory=list)
    influence_events: list[dict] = field(default_factory=list)
    cafes: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "groups": self.groups,
            "sessions": self.sessions,
            "influence_events": self.influence_events,
            "cafes": self.cafes,
        }


def _ts(day: int, hour: int, minute: int) -> int:
    local = (_BASE_DAY + day) * SECONDS_PER_DAY + hour * 3600 + minute * 60
    return int(local - round(DEFAULT_UTC_OFFSET_HOURS * 3600))


def _dow(day: int) -> int:
    """Day of week with Sunday = 0 for corpus day numbers."""
    return (_BASE_DAY + day + 4) % 7


def _is_weekend(day: int) -> bool:
    return _dow(day) in (0, 6)


def generate(cfg: GenConfig) -> tuple[Dataset, GroundTruth]:
    rng = random.Random(cfg.seed)
    n_venues = cfg.n_venues if cfg.n_venues is not None else GenConfig.min_venues(cfg)
    users = [f"u{i:04d}" for i in range(cfg.n_users)]
    venues = [f"v{i:04d}" for i in range(n_venues)]

    coords = {}
    for v in venues:
        coords[v] = (
            37.70 + rng.random() * 0.12,
            -122.52 + rng.random() * 0.14,
        )

    # routine venues are user-exclusive blocks; the rest is a shared pool for
    # hangouts, crew venues, cafés and exploration
    n_personal = cfg.n_users * _VENUES_PER_USER
    shared = venues[n_personal:]

    # --- social graph: planted groups + background edges ---------------------
    if cfg.group_size > cfg.n_users:
        raise ConfigError("groups do not fit the population")
    n_groups = cfg.n_users // cfg.group_size

    groups: list[list[str]] = [
        users[gi * cfg.group_size : (gi + 1) * cfg.group_size] for gi in range(n_groups)
    ]

    edges: set[tuple[str, str]] = set()
    for members in groups:
        size = len(members)
        # complete graph minus a perfect matching: every member misses one
        # partner, which makes the group a 2-plex but not a clique
        missing: dict[str, str] = {}
        for k in range(0, size - 1, 2):
            missing[members[k]] = members[k + 1]
            missing[members[k + 1]] = members[k]
        for a_idx in range(size):
            for b_idx in range(a_idx + 1, size):
                a, b = members[a_idx], members[b_idx]
                if missing.get(a) == b:
                    continue
                edges.add((a, b))
    for u in users:
        for _ in range(_EXTRA_EDGES_PER_USER):
            w = users[rng.randrange(cfg.n_users)]
            if w != u:
                edges.add((min(u, w), max(u, w)))

    # --- per-user routine venues (exclusive blocks) ----------------------------
    home: dict[str, str] = {}
    lunch: dict[str, list[str]] = {}
    evening: dict[str, list[str]] = {}
    habit: dict[str, str] = {}
    for idx, u in enumerate(users):
        mine = list(venues[idx * _VENUES_PER_USER : (idx + 1) * _VENUES_PER_USER])
        rng.shuffle(mine)
        home[u] = mine[0]
        habit[u] = mine[1]
        lunch[u] = [mine[2 + rng.randrange(2)] for _ in range(7)]
        evening[u] = [mine[4 + rng.randrange(_VENUES_PER_USER - 4)] for _ in range(7)]

    # --- group fixtures ---------------------------------------------------------
    group_of: dict[str, int] = {}
    for gi, members in enumerate(groups):
        for m in members:
            group_of[m] = gi

    group_info: list[dict] = []
    n_weeks = (cfg.days + 6) // 7
    n_blocks = n_weeks // _CAFE_BLOCK_WEEKS + 2
    for gi, members in enumerate(groups):
        shuffled = list(members)
        rng.shuffle(shuffled)
        size = len(shuffled)
        half = size // 2
        # three ways of splitting the group in half; every member sits in
        # three of the six crews, so each individual's own history mixes
        # three different outing venues and only the attendee set tells
        # which one is next
        splits = (
            lambda k: k < half,
            lambda k: (k // 2) % 2 == 0,
            lambda k: k % 2 == 0,
        )
        crews = []
        for split in splits:
            pair = []
            for side in (True, False):
                crew_members = sorted(
                    shuffled[k] for k in range(size) if split(k) == side
                )
                if len(crew_members) >= 2:
                    pair.append({"members": crew_members})
            if len(pair) == 2:
                crews.append(pair)
        own = rng.sample(shared, 1 + 2 * len(crews) + n_blocks)
        hangout = own[0]
        for pi, pair in enumerate(crews):
            pair[0]["out"] = own[1 + 2 * pi]
            pair[1]["out"] = own[2 + 2 * pi]
        # every slot, but drawn as a sample: the draws it consumes place
        # every later draw, so the corpus of a seed depends on them
        slots = sorted(rng.sample(_SESSION_SLOTS, len(_SESSION_SLOTS)))
        cafes = own[1 + 2 * len(crews) :]
        group_info.append(
            {
                "members": members,
                "hangout": hangout,
                "crews": crews,
                "slots": slots,
                "cafes": cafes,
            }
        )

    # --- buddy pairs: round-robin matchings over each group, follower first;
    # directions alternate between matchings so that everyone follows someone
    buddies: list[tuple[str, str]] = []
    for members in groups:
        size = len(members)
        for mi, offset in enumerate(range(1, size, 2)):
            for k in range(0, size - 1, 2):
                i = members[k]
                j = members[(k + offset) % size]
                if i == j or (min(i, j), max(i, j)) not in edges:
                    continue
                buddies.append((i, j) if mi % 2 == 0 else (j, i))

    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    truth = GroundTruth()
    for gi, info in enumerate(group_info):
        truth.groups.append(
            {
                "group": gi,
                "members": info["members"],
                "hangout": info["hangout"],
                "crews": info["crews"],
                "session_slots": [list(s) for s in info["slots"]],
            }
        )
        truth.cafes.append({"group": gi, "by_block": info["cafes"]})

    checkins: list[CheckIn] = []
    last_cafe_visit: dict[tuple[int, str], tuple[str, int]] = {}

    def emit(user: str, venue: str, ts: int) -> None:
        lat, lon = coords[venue]
        checkins.append(CheckIn(user_id=user, venue_id=venue, timestamp=ts, lat=lat, lon=lon))

    for day in range(cfg.days):
        dow = _dow(day)
        weekend = _is_weekend(day)
        week = day // 7
        skip_lunch: set[str] = set()
        skip_habit: set[str] = set()
        day_events: list[tuple[int, str, str, str]] = []  # (ts, user, venue, tag)

        # group outings scheduled for this day of week: hangout, then the
        # venue of whichever crew came; the crew is drawn fresh per session,
        # so each member's own history mixes that slot's possible venues
        for gi, info in enumerate(group_info):
            for si, (slot_dow, hour) in enumerate(info["slots"]):
                if slot_dow != dow or rng.random() >= cfg.p_cositu:
                    continue
                pair = info["crews"][rng.randrange(len(info["crews"]))]
                crew = pair[rng.randrange(2)]
                attendees = [m for m in crew["members"] if rng.random() < _ATTEND_RATE]
                if len(attendees) < 2:
                    continue
                seq = [info["hangout"], crew["out"]]
                session_events = []
                for step, venue in enumerate(seq):
                    for m in attendees:
                        ts = _ts(day, hour + step, rng.randrange(0, 45))
                        day_events.append((ts, m, venue, "session"))
                        session_events.append([m, venue, ts])
                truth.sessions.append(
                    {
                        "group": gi,
                        "slot": si,
                        "day": day,
                        "crew": crew["members"],
                        "attendees": attendees,
                        "sequence": seq,
                        "events": session_events,
                    }
                )
                for m in attendees:
                    others = [a for a in attendees if a != m]
                    truth.influence_events.append(
                        {
                            "follower": m,
                            "influencers": others,
                            "venue": crew["out"],
                            "day": day,
                            "kind": "sync",
                        }
                    )

        # buddy meetups on workdays: lunch at the follower's venue, then the
        # buddy's habit venue; roles are fixed per pair, and every pair gets
        # an introduction meetup in the opening week so later ones build on
        # an established record
        if not weekend:
            for pair_idx, (follower, buddy) in enumerate(buddies):
                intro = day < 5 and pair_idx % 5 == day
                if not intro and rng.random() >= cfg.p_meetup / 5.0:
                    continue
                if cfg.p_meetup <= 0.0:
                    continue
                if follower in skip_habit or buddy in skip_habit:
                    continue
                lunch_venue = lunch[follower][dow]
                for m in (follower, buddy):
                    day_events.append(
                        (_ts(day, 12, rng.randrange(0, 45)), m, lunch_venue, "meetup")
                    )
                    day_events.append(
                        (_ts(day, 13, rng.randrange(0, 45)), m, habit[buddy], "meetup")
                    )
                skip_lunch.add(buddy)
                skip_lunch.add(follower)
                skip_habit.update((follower, buddy))
                truth.influence_events.append(
                    {
                        "follower": follower,
                        "influencers": [buddy],
                        "venue": habit[buddy],
                        "day": day,
                        "kind": "meetup",
                    }
                )

        # weekend café visits (asynchronous trend)
        if weekend:
            block = week // _CAFE_BLOCK_WEEKS
            for gi, info in enumerate(group_info):
                cafe = info["cafes"][block]
                for m in info["members"]:
                    if rng.random() < cfg.p_follow:
                        ts = _ts(day, 18, rng.randrange(0, 50))
                        day_events.append((ts, m, cafe, "cafe"))
                        prior = last_cafe_visit.get((gi, cafe))
                        if prior is not None and prior[0] != m:
                            truth.influence_events.append(
                                {
                                    "follower": m,
                                    "influencers": [prior[0]],
                                    "venue": cafe,
                                    "day": day,
                                    "kind": "trend",
                                }
                            )

        # routines and exploration
        for u in users:
            if weekend:
                slots = [(10, home[u]), (12, lunch[u][dow]), (22, evening[u][dow])]
            else:
                slots = [(8, home[u]), (12, lunch[u][dow]), (19, evening[u][dow])]
            for hour, venue in slots:
                if hour == 12 and u in skip_lunch:
                    continue
                if rng.random() < _ROUTINE_RATE:
                    day_events.append(
                        (_ts(day, hour, rng.randrange(0, 50)), u, venue, "routine")
                    )
            if not weekend and u not in skip_habit and rng.random() < _AFTERNOON_RATE:
                day_events.append(
                    (_ts(day, 13, rng.randrange(0, 50)), u, habit[u], "habit")
                )
            if rng.random() < _EXPLORE_RATE:
                # with influence enabled, half the exploration is word of
                # mouth: trying out a friend's regular venue or one of the
                # group's own spots
                friends = sorted(adjacency.get(u, ()))
                roll = rng.random()
                if friends and roll < 0.35 and cfg.p_follow > 0.0:
                    f = friends[rng.randrange(len(friends))]
                    venue = habit[f] if rng.random() < 0.5 else evening[f][dow]
                elif u in group_of and roll < 0.6 and cfg.p_cositu > 0.0:
                    info = group_info[group_of[u]]
                    spots = [info["hangout"]] + [
                        c["out"] for pair in info["crews"] for c in pair
                    ]
                    venue = spots[rng.randrange(len(spots))]
                else:
                    venue = shared[rng.randrange(len(shared))]
                hour = 9 + rng.randrange(13)
                day_events.append(
                    (_ts(day, hour, rng.randrange(0, 50)), u, venue, "explore")
                )

        day_events.sort(key=lambda e: (e[0], e[1], e[2]))
        for ts, u, venue, tag in day_events:
            emit(u, venue, ts)
            if tag == "cafe":
                gi = group_of[u]
                last_cafe_visit[(gi, venue)] = (u, ts)

    dataset = build_dataset(
        checkins, edges, IngestConfig(activity_threshold=cfg.activity_threshold)
    )
    return dataset, truth


def write_corpus(dataset: Dataset, truth: GroundTruth, outdir: str | Path) -> dict[str, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "checkins": outdir / "checkins.csv",
        "edges": outdir / "edges.csv",
        "ground_truth": outdir / "ground_truth.json",
    }
    save_checkins(dataset.checkins, paths["checkins"])
    save_edges(dataset.graph.edges(), paths["edges"])
    with open(paths["ground_truth"], "w", encoding="utf-8") as fh:
        json.dump(truth.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
