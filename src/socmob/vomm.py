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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .core import CheckIn, DEFAULT_UTC_OFFSET_HOURS, TemporalContext
from .errors import ModelEmpty, ParseError, dump_field, parse_dump

Label = tuple[str, object]
Context = tuple[Label, ...]


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

    def temporal(self, timestamp: int) -> TemporalContext:
        return TemporalContext.from_timestamp(
            timestamp, slot_hours=self.slot_hours, utc_offset_hours=self.utc_offset_hours
        )


@dataclass(frozen=True, slots=True)
class ContextKey:
    """A prediction context: recent venues plus the target's calendar slot."""

    spatial: tuple[str, ...]
    temporal: TemporalContext


def temporal_labels(t: TemporalContext) -> tuple[Label, Label, Label]:
    """The day-class, day and slot labels of a calendar context: one shared
    tuple per day of week and slot."""
    return _TEMPORAL_LABELS[t.day_of_week * 24 + t.slot]


_TEMPORAL_LABELS = tuple(
    (("W", 1 if dow in (0, 6) else 0), ("D", dow), ("S", slot))
    for dow in range(7)
    for slot in range(24)
)


def escape_chain(spatial: Sequence[str], temporal: TemporalContext) -> list[Context]:
    """All fallback contexts, longest first, ending with the empty context.

    This is the order in which ``distribution`` reads counters; it collects
    them with one trie descent per spatial order (``_chain_counts``).
    """
    tl = temporal_labels(temporal)
    chain: list[Context] = []
    n = len(spatial)
    for k in range(n, -1, -1):
        sp = tuple(("L", v) for v in spatial[n - k :])
        for t in (3, 2, 1, 0):
            chain.append(sp + tl[:t])
    return chain


# the child map of every trie node without children, here and in the social
# tree: read-only, so a node gets a dict of its own on its first child
NO_CHILDREN: Mapping = MappingProxyType({})


class _Node:
    __slots__ = ("children", "counts")

    def __init__(self):
        self.children: Mapping[Label, _Node] = NO_CHILDREN
        self.counts: dict[str, int] = {}


class ContextTree:
    """Counter trie over contexts with escape-based probability estimates."""

    def __init__(self, config: TreeConfig | None = None):
        self.config = config or TreeConfig()
        self.root = _Node()
        self.n_events = 0

    # -- training -------------------------------------------------------

    def observe(self, symbol: str, spatial: Sequence[str], temporal: TemporalContext) -> None:
        """Record one event: bump the symbol's counter at every fallback context."""
        tl = temporal_labels(temporal)
        n = len(spatial)
        if n > self.config.kappa:
            spatial = spatial[n - self.config.kappa :]
            n = self.config.kappa
        for k in range(n, -1, -1):
            node = self.root
            for v in spatial[n - k :]:
                child = node.children.get(("L", v))
                if child is None:
                    if node.children is NO_CHILDREN:
                        node.children = {}
                    child = node.children["L", v] = _Node()
                node = child
            counts = node.counts
            counts[symbol] = counts.get(symbol, 0) + 1
            for lab in tl:
                child = node.children.get(lab)
                if child is None:
                    if node.children is NO_CHILDREN:
                        node.children = {}
                    child = node.children[lab] = _Node()
                node = child
                counts = node.counts
                counts[symbol] = counts.get(symbol, 0) + 1
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
        node = self.root
        for lab in context:
            node = node.children.get(lab)
            if node is None:
                return None
        return node.counts

    def key(self, prev_venues: Sequence[str], timestamp: int) -> ContextKey:
        sp = tuple(prev_venues)
        if len(sp) > self.config.kappa:
            sp = sp[len(sp) - self.config.kappa :]
        return ContextKey(spatial=sp, temporal=self.config.temporal(timestamp))

    def prob(self, symbol: str, key: ContextKey) -> float:
        """Probability of ``symbol`` after the given context."""
        return self.distribution(key, (symbol,))[0][symbol]

    def distribution(
        self, key: ContextKey, candidates: Iterable[str] | None = None
    ) -> tuple[dict[str, float], float]:
        """Per-candidate probabilities and the mass of a never-seen symbol.

        Without an explicit candidate set the registered alphabet is used.
        The second value is the probability any single unregistered symbol
        would receive (the explicitly reported residual escape mass).
        """
        counters = _chain_counts(self.root, key.spatial, temporal_labels(key.temporal))
        return _ppm(counters, self.root.counts, candidates)

    def predict(self, key: ContextKey, limit: int | None = None) -> list[tuple[str, float]]:
        """Known symbols ranked by probability, ties broken by symbol id."""
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
            "root": _encode_node(self.root),
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
        tree.root = _decode_node(dump_field(data, "root", dict, "context tree"))
        tree.n_events = dump_field(data, "n_events", int, "context tree")
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


def _encode_node(node: _Node) -> dict:
    return {
        "c": dict(sorted(node.counts.items())),
        "k": {
            _encode_label(lab): _encode_node(child)
            for lab, child in sorted(node.children.items(), key=lambda kv: _encode_label(kv[0]))
        },
    }


def _decode_node(data: dict) -> _Node:
    node = _Node()
    node.counts = dict(dump_field(data, "c", dict, "context tree node"))
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in node.counts.values()):
        raise ParseError("context tree node: counts must be integers")
    if any(n < 1 for n in node.counts.values()):
        raise ParseError("context tree node: counts must be at least 1")
    children = dump_field(data, "k", dict, "context tree node")
    if children:
        node.children = {_decode_label(k): _decode_node(v) for k, v in children.items()}
    return node


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
        self.config = self.trees[0].config

    @property
    def alphabet(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for t in self.trees:
            for q, c in t.root.counts.items():
                merged[q] = merged.get(q, 0) + c
        return merged

    def distribution(
        self, key: ContextKey, candidates: Iterable[str] | None = None
    ) -> tuple[dict[str, float], float]:
        """Per-candidate probabilities and the new-symbol mass of the tree
        trained on every trajectory of the view."""
        tl = temporal_labels(key.temporal)
        columns = zip(*(_chain_counts(t.root, key.spatial, tl) for t in self.trees))
        return _ppm([_merged(column) for column in columns], self.alphabet, candidates)

    def predict(self, key: ContextKey, limit: int | None = None) -> list[tuple[str, float]]:
        return _ranked(self.distribution(key)[0], limit)


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
    ``limit`` of them.  The top one alone takes no sort."""
    if limit == 1:
        best = argmax(dist)
        return [] if best[0] is None else [best]
    ranked = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:limit] if limit is not None else ranked


def _chain_counts(
    root: _Node, spatial: Sequence[str], tl: tuple[Label, Label, Label]
) -> list[Mapping[str, int] | None]:
    """The counters of ``escape_chain(spatial, temporal)`` without its final
    empty context, in chain order; None where the trie has no node.

    One descent per spatial order reaches the node after its venues; the
    calendar contexts of that order are its W, D and S descendants, read
    finest first.  A missing venue node leaves its whole order None.
    """
    w_lab, d_lab, s_lab = tl
    out: list[Mapping[str, int] | None] = []
    n = len(spatial)
    for k in range(n, -1, -1):
        node = root
        for v in spatial[n - k :]:
            node = node.children.get(("L", v))
            if node is None:
                break
        if node is None:
            out += (None, None, None, None)
            continue
        w = node.children.get(w_lab)
        d = None if w is None else w.children.get(d_lab)
        s = None if d is None else d.children.get(s_lab)
        out.append(None if s is None else s.counts)
        out.append(None if d is None else d.counts)
        out.append(None if w is None else w.counts)
        if k:
            out.append(node.counts)
    return out


def _merged(column: Iterable[Mapping[str, int] | None]) -> Mapping[str, int] | None:
    """One context's counters summed over trees in tree order: the first
    non-empty counter, with each later one added to a copy of it."""
    merged = None
    copied = False
    for counts in column:
        if not counts:
            continue
        if merged is None:
            merged = counts
            continue
        if not copied:
            merged = dict(merged)
            copied = True
        for q, c in counts.items():
            merged[q] = merged.get(q, 0) + c
    return merged


def _ppm(
    counters: Iterable[Mapping[str, int] | None],
    alphabet: Mapping[str, int],
    candidates: Iterable[str] | None,
) -> tuple[dict[str, float], float]:
    """Escape-blended estimate over the counters of a fallback chain, longest
    context first; the empty context spreads what is left uniformly over
    ``alphabet``."""
    if not alphabet:
        raise ModelEmpty("model has no training events")
    out: dict[str, float] = {}
    acc = 1.0
    for counts in counters:
        if not counts:
            continue
        total = sum(counts.values())
        denom = len(counts) + total
        for q, c in counts.items():
            if q not in out:
                out[q] = acc * c / denom
        acc *= len(counts) / denom
    unseen = acc / len(alphabet)
    wanted = alphabet.keys() if candidates is None else candidates
    dist = {q: out.get(q, unseen) for q in wanted}
    return dist, unseen
