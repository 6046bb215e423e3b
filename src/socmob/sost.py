"""Social extension of the sequence model: co-presence influence records,
time drift, tie-strength-weighted set matching, and the two social
probability estimators, combined with the individual model and a
general-trend fallback at prediction time.

Influence classes, from the point of view of the target user:

* Class I   — the target together with at least one friend.
* Class II  — two or more friends, target absent.
* Class III — a single friend on their own.

Each record keeps the set of users involved, its influence class, the
time of its latest occurrence, a counter reinforced on recurrence (between
occurrences it decays lazily at read time) and the plain number of
occurrences, which is what a reader without drift sees.  Because a
record's class depends only on its users and the target, one store can
serve several readers that differ in the classes they admit and in
whether counters decay: each reader skips the records of other classes.

A write builds nothing: ``SocialTree.record`` queues the situation under
its cell key.  The slot nodes of a cell are built when a prediction
first reads that cell, and most cells a target's friends write to are
never read.  The coarse levels (venue, day class, day), which only
estimator A and whole-tree reads use, are built from all the queued
writes when one of those reads comes.  Both builds replay the writes in
the order they were made, so every counter, creation number and order is
what writing each level at once would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .core import TemporalContext, WEEK_SECONDS
from .errors import ConfigError, ModelEmpty
from .vomm import (
    NO_CHILDREN,
    ContextKey,
    ContextTree,
    MergedContextView,
    TreeConfig,
    argmax,
    calendar_keys,
)

HOUR_SECONDS = 3_600

#: A social situation is co-presence at one venue within this many seconds.
SITUATION_WINDOW = HOUR_SECONDS
#: Tie strength counts co-locations over this many preceding seconds.
TIE_WINDOW = WEEK_SECONDS

CLASS_I = "I"
CLASS_II = "II"
CLASS_III = "III"
ALL_CLASSES = frozenset({CLASS_I, CLASS_II, CLASS_III})

DRIFT_KINDS = ("none", "geometric", "exponential")
ESTIMATORS = ("A", "B")


@dataclass(frozen=True)
class SostConfig:
    """Model configuration; defaults mirror the strongest reported setup."""

    beta: float = 0.05
    drift: str = "exponential"
    estimator: str = "B"
    classes: frozenset[str] = ALL_CLASSES
    stay_hours: float = 3.0
    enable_trend: bool = True
    tree: TreeConfig = field(default_factory=TreeConfig)

    def __post_init__(self):
        if self.drift not in DRIFT_KINDS:
            raise ConfigError(f"unknown drift kind {self.drift!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.drift != "none" and not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must be in (0, 1), got {self.beta}")
        if not self.classes <= ALL_CLASSES:
            raise ConfigError(f"unknown influence classes {self.classes - ALL_CLASSES}")
        if self.stay_hours <= 0:
            raise ConfigError("stay_hours must be positive")


def drift_factor(elapsed: float, beta: float, stay_hours: float, kind: str) -> float:
    """Decay multiplier for a record last reinforced ``elapsed`` seconds ago.

    Elapsed time is measured in units of the average stay time.  The
    geometric variant decays by (1 - beta) per unit, the exponential one by
    e^(-beta) per unit; both are 1 at zero elapsed time.
    """
    if kind == "none":
        return 1.0
    if kind not in DRIFT_KINDS:
        raise ConfigError(f"unknown drift kind {kind!r}")
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must be in (0, 1), got {beta}")
    return _decay(elapsed, beta, stay_hours, kind)


def _decay(elapsed: float, beta: float, stay_hours: float, kind: str) -> float:
    """``drift_factor`` for a kind other than "none" and a beta already
    checked, as ``SostConfig`` checks them."""
    if elapsed < 0:
        raise ValueError("elapsed time is negative")
    units = elapsed / (stay_hours * HOUR_SECONDS)
    if kind == "geometric":
        return (1.0 - beta) ** units
    return math.exp(-beta * units)


@dataclass(slots=True)
class InfluenceRecord:
    """⟨user set, last occurrence, counter⟩ stored at a tree node.

    ``cls`` is the record's influence class, ``hits`` the number of
    occurrences (what a reader without drift sees) and ``seq`` the order in
    which the tree created the record.
    """

    users: frozenset[str]
    last_seen: int
    counter: float
    cls: str | None = None
    hits: int = 1
    seq: int = 0

    def value_at(self, now: int, config: SostConfig) -> float:
        """Counter as seen at ``now`` (lazily decayed), or the plain
        occurrence count when ``config`` has no drift."""
        if config.drift == "none":
            return float(self.hits)
        return self.counter * _decay(
            now - self.last_seen, config.beta, config.stay_hours, config.drift
        )

    def reinforce(self, now: int, config: SostConfig) -> None:
        self.hits += 1
        if config.drift == "none":
            self.counter += 1.0
        else:
            self.counter *= (
                _decay(now - self.last_seen, config.beta, config.stay_hours, config.drift)
                + 1.0
            )
        self.last_seen = now


def influence_jaccard(
    users: Iterable[str], other: Iterable[str], tie: Mapping[str, float]
) -> float:
    """Tie-strength-weighted Jaccard overlap of two user sets.

    Users without a tie weight (the target themselves, strangers)
    contribute zero mass; an all-zero union gives 0.
    """
    a = frozenset(users)
    b = frozenset(other)
    inter = sum(tie.get(u, 0.0) for u in a & b)
    union = sum(tie.get(u, 0.0) for u in a | b)
    if union <= 0.0:
        return 0.0
    return inter / union


def classify_situation(users: frozenset[str], target: str) -> str | None:
    """Influence class of a circle-restricted situation, or None."""
    if target in users:
        return CLASS_I if len(users) >= 2 else None
    if len(users) >= 2:
        return CLASS_II
    if len(users) == 1:
        return CLASS_III
    return None


class _SocialNode:
    __slots__ = ("children", "records", "users")

    def __init__(self, records: list[InfluenceRecord]):
        self.children: Mapping[str | int, _SocialNode] = NO_CHILDREN
        # in creation order; at most one per user set, and the tree interns
        # its user sets, so a record is found by the identity of its set
        self.records = records
        # on slot nodes, the union of all user sets recorded here: a cheap
        # prefilter for candidate discovery
        self.users: frozenset[str] | None = None


def _holds(node: _SocialNode, classes: frozenset[str] | None) -> bool:
    """Whether the node has records a reader admitting ``classes`` sees."""
    if classes is None:
        return bool(node.records)
    return any(rec.cls in classes for rec in node.records)


def _in_creation_order(
    nodes: Iterable[_SocialNode], classes: frozenset[str]
) -> list[_SocialNode]:
    """The nodes holding records of ``classes``, in the order a tree storing
    only those classes would have created them."""
    born = []
    for node in nodes:
        for rec in node.records:
            if rec.cls in classes:
                born.append((rec.seq, node))
                break
    born.sort(key=lambda pair: pair[0])
    return [node for _, node in born]


class SocialTree:
    """Trie of venue/calendar nodes, each holding influence records.

    The root's children are keyed by venue id, and the day-class, day and
    slot nodes under a venue by the keys of ``calendar_keys``.  Records
    are attached along the whole path (venue node and each calendar
    refinement), so coarser nodes aggregate the evidence of their
    subtrees.  ``classes`` are the influence classes the tree stores.
    Readers that admit fewer classes pass their set as ``classes`` to the
    query methods and see exactly what a tree storing only those classes
    would hold, in the same order; ``None`` means no filter.

    The tree interns the user sets of its records, so equal sets are one
    object and a node finds the record of a set by identity.  A tree has
    one writer, whose ``config`` decays the stored counters.

    ``record`` builds no node: it queues the write under its cell key
    and in ``_pending``.  A cell's slot nodes are built when a reader
    first asks for that cell (``slots_at``, which ``slot_node``,
    ``venues_at`` and the estimator-B reads use), by replaying the cell's
    queue in write order.  The venue, day-class and day levels are built
    by replaying ``_pending`` in write order, after every queued cell,
    when something first reads them: ``root``, ``n_records``,
    ``path_nodes`` and ``normalizer_nodes``.  Both replays leave counters,
    creation numbers and child order exactly as writing every level at
    once would have.
    """

    def __init__(self, classes: Iterable[str], config: SostConfig):
        self._root = _SocialNode([])
        self.classes = frozenset(classes)
        self.config = config
        self._n_records = 0
        # cell key -> {venue: its slot node in that cell}
        self._cells: dict[int, dict[str, _SocialNode]] = {}
        # cell key -> the writes its slot nodes have not seen yet, four
        # items each: venue, user set, timestamp, class
        self._queues: dict[int, list] = {}
        # one object per distinct user set written, and its class: a tree
        # has one target, so a set has one class
        self._sets: dict[frozenset[str], frozenset[str]] = {}
        self._set_class: dict[frozenset[str], str] = {}
        # writes the coarse levels have not seen yet, five items each:
        # venue, calendar keys, user set, timestamp, class
        self._pending: list = []
        # the latest timestamp written; counters that decay are never
        # reinforced at an earlier time, so the replays cannot fail
        self._latest: float = -math.inf

    @property
    def root(self) -> _SocialNode:
        self._catch_up()
        return self._root

    @property
    def n_records(self) -> int:
        """Number of records stored at all levels."""
        self._catch_up()
        return self._n_records

    def record(
        self,
        venue: str,
        temporal: TemporalContext,
        users: frozenset[str],
        timestamp: int,
        cls: str,
    ) -> None:
        """Add one occurrence of a ``cls`` situation at ``venue`` in the
        calendar context ``temporal``.

        Raises ValueError, and stores nothing, when counters decay and
        ``timestamp`` is earlier than one written before it.
        """
        if timestamp < self._latest:
            if self.config.drift != "none":
                raise ValueError("elapsed time is negative")
        else:
            self._latest = timestamp
        interned = self._sets.get(users)
        if interned is None:
            self._sets[users] = users
            self._set_class[users] = cls
        else:
            users = interned
        keys = calendar_keys(temporal)
        queue = self._queues.get(keys[2])
        if queue is None:
            queue = self._queues[keys[2]] = []
        queue.extend((venue, users, timestamp, cls))
        self._pending.extend((venue, keys, users, timestamp, cls))

    def slots_at(self, temporal: TemporalContext) -> Mapping[str, _SocialNode]:
        """The slot nodes of the temporal context's cell, by venue in the
        order of their first write, built first from the cell's queue."""
        cell = calendar_keys(temporal)[2]
        queue = self._queues.pop(cell, None)
        if queue is not None:
            self._build(cell, queue)
        return self._cells.get(cell, NO_CHILDREN)

    def _build(self, cell: int, queue: list) -> None:
        """Write a cell's queued situations to its slot nodes, in the order
        they were recorded.  Creation numbers are given by ``_catch_up``."""
        slots = self._cells.get(cell)
        if slots is None:
            slots = self._cells[cell] = {}
        config = self.config
        steps = iter(queue)
        for venue, users, timestamp, cls in zip(steps, steps, steps, steps):
            node = slots.get(venue)
            if node is None:
                node = slots[venue] = _SocialNode(
                    [InfluenceRecord(users, timestamp, 1.0, cls, 1, -1)]
                )
                node.users = users
                continue
            for rec in node.records:
                if rec.users is users:
                    rec.reinforce(timestamp, config)
                    break
            else:
                node.records.append(InfluenceRecord(users, timestamp, 1.0, cls, 1, -1))
                node.users = node.users | users

    def _catch_up(self) -> None:
        """Build every queued cell, then write the pending situations to
        the venue, day-class and day levels in the order they were
        recorded, giving each new record its creation number."""
        if self._queues:
            for cell, queue in self._queues.items():
                self._build(cell, queue)
            self._queues.clear()
        if not self._pending:
            return
        pending = self._pending
        self._pending = []
        seq = self._n_records
        config = self.config
        steps = iter(pending)
        for venue, keys, users, timestamp, cls in zip(steps, steps, steps, steps, steps):
            node = self._root
            for key in (venue, keys[0], keys[1]):
                child = node.children.get(key)
                if child is None:
                    if node.children is NO_CHILDREN:
                        node.children = {}
                    child = node.children[key] = _SocialNode(
                        [InfluenceRecord(users, timestamp, 1.0, cls, 1, seq)]
                    )
                    seq += 1
                    node = child
                    continue
                for rec in child.records:
                    if rec.users is users:
                        rec.reinforce(timestamp, config)
                        break
                else:
                    child.records.append(InfluenceRecord(users, timestamp, 1.0, cls, 1, seq))
                    seq += 1
                node = child
            slot = node.children.get(keys[2])
            if slot is None:
                # the first write of this slot node
                if node.children is NO_CHILDREN:
                    node.children = {}
                slot = node.children[keys[2]] = self._cells[keys[2]][venue]
            for rec in slot.records:
                if rec.users is users:
                    if rec.seq < 0:
                        # the first write of this record
                        rec.seq = seq
                        seq += 1
                    break
        self._n_records = seq

    def members(self, classes: Iterable[str]) -> set[str]:
        """The users of the records of ``classes``: the user sets written
        under those classes."""
        out: set[str] = set()
        for users, cls in self._set_class.items():
            if cls in classes:
                out |= users
        return out

    def slot_node(
        self,
        venue: str,
        temporal: TemporalContext,
        classes: frozenset[str] | None = None,
    ) -> _SocialNode | None:
        """The node for the venue's full temporal context.

        Returns None when the exact cell holds no records of ``classes``;
        evidence from other slots or days deliberately does not leak across
        cells.
        """
        node = self.slots_at(temporal).get(venue)
        if node is None or not _holds(node, classes):
            return None
        return node

    def path_nodes(self, venue: str, temporal: TemporalContext) -> list[_SocialNode]:
        """Existing nodes along venue → day class → day → slot, root excluded."""
        nodes = []
        node = self.root
        for key in (venue, *calendar_keys(temporal)):
            node = node.children.get(key)
            if node is None:
                break
            nodes.append(node)
        return nodes

    def venues_at(
        self,
        temporal: TemporalContext,
        users: Iterable[str] | None = None,
        classes: frozenset[str] | None = None,
    ) -> list[str]:
        """Venues holding records at this exact temporal context
        (optionally restricted to records overlapping the given users)."""
        cell = self.slots_at(temporal)
        if not cell:
            return []
        user_set = None if users is None else frozenset(users)
        out = []
        for venue, node in cell.items():
            if user_set is not None and node.users.isdisjoint(user_set):
                continue
            if classes is None or any(
                rec.cls in classes
                and (user_set is None or not rec.users.isdisjoint(user_set))
                for rec in node.records
            ):
                out.append(venue)
        return sorted(out)

    def normalizer_nodes(
        self, path: Sequence[_SocialNode], classes: frozenset[str] | None = None
    ) -> list[_SocialNode]:
        """Estimator A's normalizing set for the node ending ``path``: every
        venue node, and the children of each node above it on the path."""
        groups = [self.root.children.values()]
        groups.extend(parent.children.values() for parent in path[:-1])
        if classes is None:
            return [node for group in groups for node in group]
        return [node for group in groups for node in _in_creation_order(group, classes)]

    @staticmethod
    def effective_counter(
        node: _SocialNode,
        users_now: Iterable[str],
        tie: Mapping[str, float],
        now: int,
        config: SostConfig,
        classes: frozenset[str] | None = None,
        jaccard: dict[frozenset[str], float] | None = None,
    ) -> float:
        """Jaccard-weighted sum of the node's decayed record counters.

        ``jaccard`` keeps each record user set's overlap with ``users_now``
        under ``tie``, for calls that share both.
        """
        total = 0.0
        users_now = frozenset(users_now)
        if jaccard is None:
            jaccard = {}
        for rec in node.records:
            if classes is not None and rec.cls not in classes:
                continue
            j = jaccard.get(rec.users)
            if j is None:
                j = jaccard[rec.users] = influence_jaccard(users_now, rec.users, tie)
            if j > 0.0:
                total += rec.value_at(now, config) * j
        return total

    @staticmethod
    def raw_total(
        node: _SocialNode,
        now: int,
        config: SostConfig,
        classes: frozenset[str] | None = None,
    ) -> float:
        return sum(
            rec.value_at(now, config)
            for rec in node.records
            if classes is None or rec.cls in classes
        )


class EventMemo:
    """What the models of one target share within one event.

    Those are the trend prediction, the social candidates and factors of
    each reading (``SostModel._reads``), and each stored user set's
    tie-weighted overlap with the active situation.  All of them hold for
    one event only, as the trees, records and tie masses change after it:
    make a new memo for each event and target.
    """

    __slots__ = ("trend", "factors", "jaccard")

    def __init__(self):
        self.trend: list = []  # the trend prediction, once made
        self.factors: dict[tuple, tuple] = {}
        self.jaccard: dict[frozenset[str], float] = {}


@dataclass
class PredictOutcome:
    """Prediction plus the diagnostics needed to audit which path fired."""

    venue: str | None
    prob: float
    branch: str  # "main" | "trend"
    active_situation: bool
    social_matched: bool


class SostModel:
    """Per-target social model: influence records, tie masses, trend view.

    The model reads its records from ``social``, a store it may share with
    models of other configurations for the same target (one per evaluation
    variant).  A new store admits the model's own classes.  A shared store
    admits the union of its readers' classes and is written through one
    model, whose drift setting decays the stored counters; every reader
    skips the records of classes it does not admit, and a reader without
    drift sees occurrence counts instead of the decayed counters.
    """

    def __init__(
        self,
        target: str,
        neighbors: Iterable[str],
        config: SostConfig | None = None,
        trend: ContextTree | MergedContextView | None = None,
        social: SocialTree | None = None,
    ):
        self.target = target
        self.neighbors = frozenset(neighbors)
        self.config = config or SostConfig()
        self.social = (
            social if social is not None else SocialTree(self.config.classes, self.config)
        )
        # the class filter of every read; None when the store holds no
        # class this model does not admit
        self.class_filter = (
            None if self.social.classes <= self.config.classes else self.config.classes
        )
        self._circle = self.neighbors | {target}
        # the situation of a friend with nobody of the circle nearby
        self._alone: dict[str, frozenset[str]] = {}
        # models of one target whose social reads agree, given one store and
        # one set of tie masses, share this key (``EventMemo.factors``, and
        # ``evaluate``'s groups of variants)
        self._reads = (
            self.class_filter,
            self.config.drift,
            self.config.beta,
            self.config.stay_hours,
            self.config.estimator,
        )
        self.trend = trend
        # raw co-location masses; influence_jaccard is scale invariant so
        # these never need normalizing
        self.tie_mass: dict[str, float] = {}

    # -- training ----------------------------------------------------------

    def record_social_context(
        self,
        user: str,
        others: Iterable[str],
        venue: str,
        temporal: TemporalContext,
        timestamp: int,
    ) -> str | None:
        """Store the situation of one check-in if the store admits its class.

        ``user``, the target or one of their friends, checked in with
        ``others`` present.  The situation is ``user`` and those of
        ``others`` in the target's circle; the target alone is none.  The
        check-in was at ``venue``, in the calendar context ``temporal``.
        Returns the class that was recorded, or None.
        """
        near = self._circle.intersection(others) if others else None
        if near:
            users = near.union((user,))
            cls = classify_situation(users, self.target)
        elif user == self.target:
            return None
        else:
            users = self._alone.get(user)
            if users is None:
                users = self._alone[user] = frozenset((user,))
            cls = CLASS_III
        if cls not in self.social.classes:
            return None
        self.social.record(venue, temporal, users, timestamp, cls)
        return cls

    @property
    def influencers(self) -> set[str]:
        """The friends in the stored situations of this model's classes."""
        out = self.social.members(self.config.classes)
        out.discard(self.target)
        return out

    def add_tie_mass(self, friend: str, mass: float) -> None:
        if mass > 0.0:
            self.tie_mass[friend] = self.tie_mass.get(friend, 0.0) + mass

    # -- estimation ---------------------------------------------------------

    def _prob_at(
        self,
        eta: _SocialNode,
        venue: str,
        temporal: TemporalContext,
        now: int,
        counter: Callable[[_SocialNode], float],
    ) -> float:
        """Social probability mass of ``venue`` under the active situation
        ``users_now``, given the venue's slot node ``eta``, which holds
        records of this model's classes.  ``counter`` gives a node's
        effective counter."""
        num = counter(eta)
        if num <= 0.0:
            return 0.0
        if self.config.estimator == "B":
            den = SocialTree.raw_total(eta, now, self.config, self.class_filter)
            return num / den if den > 0.0 else 0.0
        # estimator A: normalize over the node, its ancestors, and their
        # sibling nodes
        siblings = self.social.normalizer_nodes(
            self.social.path_nodes(venue, temporal), self.class_filter
        )
        den = float(len(siblings))
        for node in siblings:
            den += counter(node)
        return num / den if den > 0.0 else 0.0

    def social_factors(
        self,
        candidates: Iterable[str],
        users_now: frozenset[str] | None,
        temporal: TemporalContext,
        now: int,
        memo: EventMemo | None = None,
    ) -> dict[str, float] | None:
        """Multiplicative social factor per candidate venue.

        Returns None when no situation is active or no stored record
        matches the current one: every factor is then 1 and the model
        degrades to the individual component.  Each node's effective
        counter is computed once per call, and each stored user set's
        overlap with ``users_now`` once per ``memo``.
        """
        if not users_now or len(users_now) < 2:
            return None
        # a venue without a slot node in this temporal cell scores 0.0
        probs = dict.fromkeys(candidates, 0.0)
        classes = self.class_filter
        jaccard = {} if memo is None else memo.jaccard
        counters: dict[_SocialNode, float] = {}

        def counter(node: _SocialNode) -> float:
            total = counters.get(node)
            if total is None:
                total = counters[node] = SocialTree.effective_counter(
                    node, users_now, self.tie_mass, now, self.config, classes, jaccard
                )
            return total

        for q, eta in self.social.slots_at(temporal).items():
            if q in probs and _holds(eta, classes):
                probs[q] = self._prob_at(eta, q, temporal, now, counter)
        if all(p <= 0.0 for p in probs.values()):
            return None
        return probs

    # -- prediction ----------------------------------------------------------

    def rank_with(
        self,
        key: ContextKey,
        dist: Mapping[str, float],
        unseen: float,
        timestamp: int,
        users_now: frozenset[str] | None = None,
        memo: EventMemo | None = None,
        best: tuple[str | None, float] | None = None,
    ) -> PredictOutcome:
        """Prediction given a precomputed individual distribution.

        ``dist``/``unseen`` must come from the individual tree at ``key``;
        the engine computes them once per event and shares them across
        model variants, and ``best``, when given, is ``argmax(dist)``.
        Without an active situation only ``best`` and ``unseen`` are read,
        so the engine passes an empty ``dist`` with the tree's ``best``.  The
        main branch multiplies each candidate by its social factor; the
        trend model takes over when even the best candidate is no more
        likely than a never-seen venue would be (the gate threshold), that
        is, when the main model has no evidence above its uniform floor.

        A user with no history yet passes the empty ``dist`` and ``unseen``
        0.0.  Such a user gets no social candidate, active situation or
        not: the trend model predicts, and without it ModelEmpty is raised.

        ``memo`` lets the models of one target that share the store, the
        tie masses and the trend view compute within one event one trend
        prediction and, for each reading (class filter, drift, beta, stay
        time and estimator), one set of social candidates and factors.
        """
        active = bool(users_now and len(users_now) >= 2)
        factors: dict[str, float] | None = None
        scored = dist
        if active and dist:
            shared = None if memo is None else memo.factors.get(self._reads)
            if shared is None:
                social_venues = self.social.venues_at(
                    key.temporal, users_now, self.class_filter
                )
                if any(q not in dist for q in social_venues):
                    scored = dict(dist)
                    for q in social_venues:
                        scored.setdefault(q, unseen)
                factors = self.social_factors(
                    scored.keys(), users_now, key.temporal, timestamp, memo
                )
                if memo is not None:
                    memo.factors[self._reads] = (scored, factors)
            else:
                scored, factors = shared
        matched = factors is not None
        if matched:
            scored = {q: p * factors[q] for q, p in scored.items()}
        if best is None or scored is not dist:
            best = argmax(scored)
        best_q, best_p = best
        if self.config.enable_trend and best_p <= unseen:
            trend_pred = self._trend_prediction(key.spatial, key.temporal, memo)
            if trend_pred is not None:
                return PredictOutcome(
                    venue=trend_pred[0],
                    prob=trend_pred[1],
                    branch="trend",
                    active_situation=active,
                    social_matched=matched,
                )
        if best_q is None:
            raise ModelEmpty("neither the individual nor the trend model has data")
        return PredictOutcome(
            venue=best_q,
            prob=best_p,
            branch="main",
            active_situation=active,
            social_matched=matched,
        )

    def _trend_prediction(
        self,
        spatial: Sequence[str],
        temporal: TemporalContext,
        memo: EventMemo | None = None,
    ) -> tuple[str, float] | None:
        """The trend model's best venue with its probability, or None.

        ``memo`` lets the variants of one target share the prediction
        within one event, as they share the trend view and the tree
        configuration.
        """
        if memo is not None and memo.trend:
            return memo.trend[0]
        pred = None
        if self.trend is not None:
            tkey = ContextKey(
                spatial=tuple(spatial)[len(spatial) - self.config.tree.kappa :]
                if len(spatial) > self.config.tree.kappa
                else tuple(spatial),
                temporal=temporal,
            )
            try:
                ranked = self.trend.predict(tkey, limit=1)
            except ModelEmpty:
                ranked = []
            pred = ranked[0] if ranked else None
        if memo is not None:
            memo.trend.append(pred)
        return pred
