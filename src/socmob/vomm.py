"""Spatial-temporal sequence model: prediction by partial matching over a
variable-order context tree.

A context combines the most recent venues (up to ``kappa`` of them) with
calendar features of the target time (day class, day of week, hour slot).
Training increments symbol counters along the context and all of its
fallback suffixes; prediction blends counter estimates with escape mass
routed to progressively shorter contexts, ending in a uniform share over
the registered alphabet.

The fallback order peels the finest temporal feature first (slot, then
day, then day class), then shortens the venue suffix by its oldest entry
and re-applies the temporal refinement, so coarse calendar patterns
remain available at every spatial order.

The trie holds spatial contexts only: the root and one node per venue
suffix, each with a child per next venue.  A spatial node keeps the
counters of its calendar refinements in one flat map keyed by a small
integer (``calendar_keys``), so a calendar context costs a counter and
no node.  Dumps still write the calendar as nested ``W``/``D``/``S``
nodes.

Most contexts are seen once, so a counter that has counted one event is
that event's symbol, not a one-entry dict, and a node that training only
passes through holds None.  The root's counters stay a dict: they are the
alphabet.  Readers test for the one-event form before they test for
emptiness, as a venue id may be the empty string; ``counts_at`` and dumps
give every counter as a dict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .core import CheckIn, DEFAULT_UTC_OFFSET_HOURS, TemporalContext
from .errors import ModelEmpty, ParseError, dump_field, parse_dump

Label = tuple[str, object]
Context = tuple[Label, ...]
# a context's counters: symbol counts, or the symbol of the one event counted
Counts = Mapping[str, int] | str


@dataclass(frozen=True, slots=True)
class TreeConfig:
    """Structural knobs shared by every context tree in a run."""

    kappa: int = 3
    slot_hours: int = 1
    utc_offset_hours: float = DEFAULT_UTC_OFFSET_HOURS

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if self.slot_hours <= 0 or 24 % self.slot_hours != 0:
            raise ValueError("slot_hours must be a positive divisor of 24")
        # also false for NaN
        if not -24 <= self.utc_offset_hours <= 24:
            raise ValueError("utc_offset_hours must be a finite number within ±24")

    def temporal(self, timestamp: int) -> TemporalContext:
        return TemporalContext.from_timestamp(
            timestamp, slot_hours=self.slot_hours, utc_offset_hours=self.utc_offset_hours
        )


@dataclass(frozen=True, slots=True)
class ContextKey:
    """A prediction context: recent venues plus the target's calendar slot."""

    spatial: tuple[str, ...]
    temporal: TemporalContext


def calendar_keys(t: TemporalContext) -> tuple[int, int, int]:
    """The day-class, day and cell keys of a calendar context, ``w`` (1 on
    weekends), ``2 + dow`` and ``9 + dow * 24 + slot``: the keys of its
    counters in a context trie and of its nodes in a social tree."""
    return _CALENDAR_KEYS[t.day_of_week * 24 + t.slot]


# the day class of each day of week, Sunday = 0: 1 on weekends
_DAY_CLASS = (1, 0, 0, 0, 0, 0, 1)
_CALENDAR_KEYS = tuple(
    (_DAY_CLASS[dow], 2 + dow, 9 + dow * 24 + slot) for dow in range(7) for slot in range(24)
)


def _labels_key(labels: Sequence[Label], n_slots: int) -> int | None:
    """The ``cal`` key of a calendar refinement ``(W,)``, ``(W, D)`` or
    ``(W, D, S)``; None for one that ``observe`` never makes: another
    nesting, a value out of range or a day under the other day class."""
    depth = len(labels)
    if not 1 <= depth <= 3 or tuple(kind for kind, _ in labels) != ("W", "D", "S")[:depth]:
        return None
    w = labels[0][1]
    if w not in (0, 1):
        return None
    if depth == 1:
        return w
    d = labels[1][1]
    if d not in range(7) or _DAY_CLASS[d] != w:
        return None
    if depth == 2:
        return 2 + d
    s = labels[2][1]
    return 9 + d * 24 + s if s in range(n_slots) else None


# the child map of every trie node without children, here and in the social
# tree, and the calendar map of a context node no event reached: read-only,
# so a node gets a dict of its own on its first entry
NO_CHILDREN: Mapping = MappingProxyType({})


class _Node:
    """A spatial context: ``children`` by next venue, the context's own
    ``counts`` (None until an event counts there), and the counters of its
    calendar refinements in ``cal``."""

    __slots__ = ("children", "counts", "cal")

    def __init__(self):
        self.children: Mapping[str, _Node] = NO_CHILDREN
        self.counts: Counts | None = None
        self.cal: Mapping[int, Counts] = NO_CHILDREN


def _bumped(counts: Counts | None, symbol: str) -> Counts:
    """``counts`` after one more event of ``symbol``: the symbol itself
    after the first event, a dict in first-seen order after the second."""
    if counts is None:
        return symbol
    if counts.__class__ is str:
        return {symbol: 2} if counts == symbol else {counts: 1, symbol: 1}
    counts[symbol] = counts.get(symbol, 0) + 1
    return counts


def _as_dict(counts: Counts | None) -> Mapping[str, int]:
    """A counter as a dict: ``{s: 1}`` for a symbol, ``{}`` for None."""
    if counts.__class__ is str:
        return {counts: 1}
    return {} if counts is None else counts


class ContextTree:
    """Counter trie over contexts with escape-based probability estimates."""

    def __init__(self, config: TreeConfig | None = None):
        self.config = config or TreeConfig()
        self.root = _Node()
        # the root counts every event: its dict is the alphabet
        self.root.counts = {}
        self.n_events = 0

    # -- training -------------------------------------------------------

    def observe(self, symbol: str, spatial: Sequence[str], temporal: TemporalContext) -> None:
        """Record one event: bump the symbol's counter at every fallback context."""
        keys = calendar_keys(temporal)
        n = len(spatial)
        if n > self.config.kappa:
            spatial = spatial[n - self.config.kappa :]
            n = self.config.kappa
        for k in range(n, -1, -1):
            node = self.root
            for v in spatial[n - k :]:
                child = node.children.get(v)
                if child is None:
                    if node.children is NO_CHILDREN:
                        node.children = {}
                    child = node.children[v] = _Node()
                node = child
            node.counts = _bumped(node.counts, symbol)
            cal = node.cal
            if cal is NO_CHILDREN:
                cal = node.cal = {}
            for key in keys:
                cal[key] = _bumped(cal.get(key), symbol)
        self.n_events += 1

    def train_event(self, venue: str, timestamp: int, prev_venues: Sequence[str]) -> None:
        self.observe(venue, tuple(prev_venues), self.config.temporal(timestamp))

    def train_history(self, history: Sequence[CheckIn]) -> None:
        """Feed a time-sorted single-user history event by event."""
        prev: list[str] = []
        for ci in history:
            self.train_event(ci.venue_id, ci.timestamp, prev)
            prev.append(ci.venue_id)
            if len(prev) > self.config.kappa:
                prev.pop(0)
        return None

    # -- queries --------------------------------------------------------

    @property
    def alphabet(self) -> Mapping[str, int]:
        """Registered symbols with their total event counts."""
        return self.root.counts

    def counts_at(self, context: Context) -> Mapping[str, int] | None:
        """The counters of a label context as a dict; None where no event
        reached it or where ``observe`` cannot make it."""
        node = self.root
        for i, (kind, value) in enumerate(context):
            if kind != "L":
                key = _labels_key(context[i:], 24 // self.config.slot_hours)
                counts = None if key is None else node.cal.get(key)
                return None if counts is None else _as_dict(counts)
            node = node.children.get(value)
            if node is None:
                return None
        return _as_dict(node.counts)

    def key(self, prev_venues: Sequence[str], timestamp: int) -> ContextKey:
        sp = tuple(prev_venues)
        if len(sp) > self.config.kappa:
            sp = sp[len(sp) - self.config.kappa :]
        return ContextKey(spatial=sp, temporal=self.config.temporal(timestamp))

    def distribution(
        self, key: ContextKey, candidates: Iterable[str] | None = None
    ) -> tuple[dict[str, float], float]:
        """Per-candidate probabilities and the mass of a never-seen symbol.

        Without an explicit candidate set the registered alphabet is used.
        The second value is the probability any single unregistered symbol
        would receive (the explicitly reported residual escape mass).
        """
        counters = _chain_counts(self.root, key.spatial, calendar_keys(key.temporal))
        return _ppm(counters, self.root.counts, candidates)

    def best(self, key: ContextKey) -> tuple[tuple[str, float], float]:
        """``argmax`` of the full distribution and the mass of a never-seen
        symbol, without building the distribution."""
        counters = _chain_counts(self.root, key.spatial, calendar_keys(key.temporal))
        return _ppm_best(counters, self.root.counts)

    def predict(self, key: ContextKey, limit: int | None = None) -> list[tuple[str, float]]:
        """Known symbols ranked by probability, ties broken by symbol id."""
        if limit == 1:
            return [self.best(key)[0]]
        return _ranked(self.distribution(key)[0], limit)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "socmob-context-tree",
            "version": 1,
            "config": {
                "kappa": self.config.kappa,
                "slot_hours": self.config.slot_hours,
                "utc_offset_hours": self.config.utc_offset_hours,
            },
            "n_events": self.n_events,
            "root": _encode_node(self.root, 24 // self.config.slot_hours),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ContextTree":
        """Rebuild a dumped tree; a malformed dump raises ParseError."""
        is_dump = isinstance(data, dict) and data.get("format") == "socmob-context-tree"
        if not is_dump or data.get("version") != 1:
            raise ValueError("not a version-1 context tree dump")
        cfg = dump_field(data, "config", dict, "context tree")
        try:
            config = TreeConfig(
                kappa=dump_field(cfg, "kappa", int, "config"),
                slot_hours=dump_field(cfg, "slot_hours", int, "config"),
                utc_offset_hours=dump_field(cfg, "utc_offset_hours", (int, float), "config"),
            )
        except ValueError as exc:
            raise ParseError(f"config: {exc}") from None
        tree = cls(config)
        root = dump_field(data, "root", dict, "context tree")
        tree.root = _decode_node(root, None, 24 // config.slot_hours)
        tree.n_events = dump_field(data, "n_events", int, "context tree")
        # observe adds one count to the root per event
        if tree.n_events != sum(tree.root.counts.values()):
            raise ParseError("context tree: n_events differs from the root's count total")
        return tree

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ContextTree":
        return cls.from_dict(parse_dump(text))


def _encode_label(label: Label) -> str:
    kind, value = label
    return f"{kind}:{value}"


def _decode_label(text: str) -> Label:
    """A context label from its dump form ``kind:value``; ParseError when a
    calendar label's value is not an integer."""
    kind, _, value = text.partition(":")
    if kind == "L":
        return (kind, value)
    try:
        return (kind, int(value))
    except ValueError:
        raise ParseError(f"bad context label {text!r}") from None


def _encoded(counts: Counts | None, children: dict[str, dict]) -> dict:
    """A dumped node: its counts and its children, each in key order."""
    return {"c": dict(sorted(_as_dict(counts).items())), "k": dict(sorted(children.items()))}


def _encode_node(node: _Node, n_slots: int) -> dict:
    """A spatial node as a dump writes it: its calendar counters become
    the nested ``W:w`` → ``D:dow`` → ``S:slot`` nodes of the nested trie."""
    children = {f"L:{v}": _encode_node(child, n_slots) for v, child in node.children.items()}
    cal = node.cal
    for w in (0, 1):
        if w not in cal:
            continue
        days = {}
        for d in range(7):
            if _DAY_CLASS[d] != w or 2 + d not in cal:
                continue
            base = 9 + d * 24
            slots = {
                f"S:{s}": _encoded(cal[base + s], {})
                for s in range(n_slots)
                if base + s in cal
            }
            days[f"D:{d}"] = _encoded(cal[2 + d], slots)
        children[f"W:{w}"] = _encoded(cal[w], days)
    return _encoded(node.counts, children)


def _decode_counts(data: dict, alphabet: Mapping[str, int] | None) -> dict[str, int]:
    """A dumped node's counts: positive integers, over symbols that
    ``alphabet`` (the root's counts) registers unless it is None."""
    counts = dict(dump_field(data, "c", dict, "context tree node"))
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in counts.values()):
        raise ParseError("context tree node: counts must be integers")
    if any(n < 1 for n in counts.values()):
        raise ParseError("context tree node: counts must be at least 1")
    if alphabet is not None and not counts.keys() <= alphabet.keys():
        raise ParseError("context tree node: counts a symbol the root does not")
    return counts


def _decode_node(data: dict, alphabet: Mapping[str, int] | None, n_slots: int) -> _Node:
    """A dumped spatial node; its ``L:`` children stay nodes, and its
    ``W:`` subtrees fold into its calendar counters.  ``alphabet`` is the
    root's counts, None when ``data`` is the root."""
    node = _Node()
    node.counts = _decode_counts(data, alphabet)
    if alphabet is None:
        alphabet = node.counts
    for text, child in dump_field(data, "k", dict, "context tree node").items():
        label = _decode_label(text)
        if label[0] == "L":
            if node.children is NO_CHILDREN:
                node.children = {}
            node.children[label[1]] = _decode_node(child, alphabet, n_slots)
        else:
            _decode_calendar(node, (label,), child, alphabet, n_slots)
    return node


def _decode_calendar(
    node: _Node, labels: Context, data: dict, alphabet: Mapping[str, int], n_slots: int
) -> None:
    """Fold a dumped calendar node, reached from ``node`` by ``labels``, and
    its descendants into ``node.cal``."""
    key = _labels_key(labels, n_slots)
    if key is None:
        path = "/".join(_encode_label(lab) for lab in labels)
        raise ParseError(f"context tree node: {path} is not a calendar context")
    if node.cal is NO_CHILDREN:
        node.cal = {}
    node.cal[key] = _decode_counts(data, alphabet)
    for text, child in dump_field(data, "k", dict, "context tree node").items():
        _decode_calendar(node, labels + (_decode_label(text),), child, alphabet, n_slots)


class MergedContextView:
    """Read-only view over several trees as if their counters were summed.

    Serves as the general-trend model: the merged view over the individual
    trees of a user's friends behaves exactly like one tree trained on all
    of their trajectories, without duplicating storage.
    """

    def __init__(self, trees: Sequence[ContextTree]):
        if not trees:
            raise ValueError("need at least one tree")
        self.trees = list(trees)

    @property
    def alphabet(self) -> Mapping[str, None]:
        """Every symbol some tree registered, in first-seen order: only the
        symbols and their number enter the estimate, not their counts."""
        return dict.fromkeys(chain.from_iterable(t.root.counts for t in self.trees))

    def _counters(self, key: ContextKey) -> list[Counts | None]:
        keys = calendar_keys(key.temporal)
        columns = zip(*(_chain_counts(t.root, key.spatial, keys) for t in self.trees))
        return [_merged(column) for column in columns]

    def predict(self, key: ContextKey) -> tuple[str, float]:
        """The best venue, with its probability, of the tree trained on
        every trajectory of the view."""
        return _ppm_best(self._counters(key), self.alphabet)[0]


def argmax(dist: Mapping[str, float]) -> tuple[str | None, float]:
    """The most probable venue and its probability, ties going to the
    smallest venue id; (None, -1.0) for an empty distribution."""
    best_q: str | None = None
    best_p = -1.0
    for q, p in dist.items():
        if p > best_p or (p == best_p and (best_q is None or q < best_q)):
            best_q, best_p = q, p
    return best_q, best_p


def _ranked(dist: Mapping[str, float], limit: int | None) -> list[tuple[str, float]]:
    """The symbols by falling probability, ties by symbol id; the first
    ``limit`` of them."""
    ranked = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:limit] if limit is not None else ranked


def _chain_counts(
    root: _Node, spatial: Sequence[str], keys: tuple[int, int, int]
) -> list[Counts | None]:
    """The counters of the fallback chain of ``spatial`` and a calendar
    context with ``keys``, without its final empty context, in chain order,
    as the trie holds them; None where no event reached a context.  The
    chain runs longest first: for k = len(spatial) … 0, the last k venues
    refined by slot, day, day class and no calendar feature.

    One descent per spatial order reaches the node after its venues; the
    calendar contexts of that order are three keys of its ``cal`` map
    (``calendar_keys(temporal)``), read finest first.  A missing venue node
    leaves its whole order None.
    """
    w, d, s = keys
    out: list[Counts | None] = []
    n = len(spatial)
    for k in range(n, -1, -1):
        node = root
        for v in spatial[n - k :]:
            node = node.children.get(v)
            if node is None:
                break
        if node is None:
            out += (None, None, None, None)
            continue
        cal = node.cal
        out.append(cal.get(s))
        out.append(cal.get(d))
        out.append(cal.get(w))
        if k:
            out.append(node.counts)
    return out


def _merged(column: Iterable[Counts | None]) -> Counts | None:
    """One context's counters summed over trees in tree order: the first
    non-empty counter, with each later one added to a dict copy of it."""
    merged = None
    copied = False
    for counts in column:
        one = counts.__class__ is str
        if not one and not counts:
            continue
        if merged is None:
            merged = counts
            continue
        if not copied:
            merged = {merged: 1} if merged.__class__ is str else dict(merged)
            copied = True
        if one:
            merged[counts] = merged.get(counts, 0) + 1
            continue
        for q, c in counts.items():
            merged[q] = merged.get(q, 0) + c
    return merged


def _escape(
    counters: Iterable[Counts | None], alphabet: Mapping[str, object]
) -> tuple[dict[str, float], float]:
    """The escape walk over the counters of a fallback chain, longest
    context first: each symbol's probability at the first context that
    counts it, and the share of the leftover mass that the empty context
    gives each symbol of ``alphabet``, the never-seen mass."""
    if not alphabet:
        raise ModelEmpty("model has no training events")
    out: dict[str, float] = {}
    acc = 1.0
    for counts in counters:
        if counts.__class__ is str:
            # one event: the dict path's acc * c / denom and
            # len(counts) / denom for {q: 1}, with the same floats
            if counts not in out:
                out[counts] = acc * 1 / 2
            acc *= 1 / 2
            continue
        if not counts:
            continue
        total = sum(counts.values())
        denom = len(counts) + total
        for q, c in counts.items():
            if q not in out:
                out[q] = acc * c / denom
        acc *= len(counts) / denom
    return out, acc / len(alphabet)


def _ppm(
    counters: Iterable[Counts | None],
    alphabet: Mapping[str, object],
    candidates: Iterable[str] | None,
) -> tuple[dict[str, float], float]:
    """Escape-blended estimate over the counters of a fallback chain, longest
    context first; the empty context spreads what is left uniformly over
    ``alphabet``'s symbols."""
    explicit, unseen = _escape(counters, alphabet)
    wanted = alphabet if candidates is None else candidates
    dist = {q: explicit.get(q, unseen) for q in wanted}
    return dist, unseen


def _ppm_best(
    counters: Iterable[Counts | None], alphabet: Mapping[str, object]
) -> tuple[tuple[str, float], float]:
    """``argmax`` of ``_ppm``'s distribution over ``alphabet``, and its
    never-seen mass.  Every other symbol of the alphabet gets that mass, so
    the smallest of them competes with the best explicit estimate."""
    explicit, unseen = _escape(counters, alphabet)
    best = argmax(explicit)
    if best[1] <= unseen and len(explicit) < len(alphabet):
        q = min(q for q in alphabet if q not in explicit)
        if best[1] < unseen or q < best[0]:
            best = (q, unseen)
    return best, unseen
