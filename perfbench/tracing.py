"""Spans around socmob's public functions, installed from outside the program.

``Tracer.installed()`` replaces each target function with a wrapper in
every socmob module namespace that binds it (``group_by_venue``, for
example, is bound in both ``core`` and ``homophily``), and on the class for
methods.  Leaving the block restores the originals.

Spans are aggregated in memory per (span name, parent span name): calls,
inclusive seconds and self seconds, where self time is the span's duration
minus the time its traced children took.  Each thread keeps its own stack
and tallies, because ``socmob homophily`` computes pairs on a thread pool.
Functions marked "calls only" are counted, not timed, so that the cheapest
and most frequent calls cost little to trace; their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

ROOT = "-"


def _records_added(fn, count):
    def probe(tree, *args, **kwargs):
        before = tree.n_records
        try:
            return fn(tree, *args, **kwargs)
        finally:
            count("sost.records_stored", tree.n_records - before)

    return probe


def _outcome_flags(fn, count):
    def probe(*args, **kwargs):
        outcome = fn(*args, **kwargs)
        count("sost.rank_with.active", int(outcome.active_situation))
        count("sost.rank_with.matched", int(outcome.social_matched))
        count("sost.rank_with.trend", int(outcome.branch == "trend"))
        return outcome

    return probe


def _elements_scanned(fn, count):
    def probe(a, b, *args, **kwargs):
        count("kernels.elements_scanned", len(a) + len(b))
        return fn(a, b, *args, **kwargs)

    return probe


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` under ``socmob`` and its qualified name."""

    module: str
    qualname: str
    timed: bool = True
    probe: Callable | None = None
    counts: tuple[str, ...] = ()  # per-layer counts the probe records, each listed once

    @property
    def span(self) -> str:
        return f"{self.module}.{self.qualname}"


TARGETS = (
    Target("ingestion", "load_dataset"),
    Target("ingestion", "descriptive_stats"),
    Target("synthgen", "generate"),
    Target("synthgen", "write_corpus"),
    Target("core", "TemporalContext.from_timestamp", timed=False),
    Target("core", "group_by_venue"),
    Target("vomm", "ContextTree.observe"),
    Target("vomm", "ContextTree.distribution"),
    Target("vomm", "ContextTree.counts_at", timed=False),
    Target("vomm", "MergedContextView.predict"),
    Target("sost", "SostModel.record_social_context"),
    Target("sost", "SocialTree.record", probe=_records_added, counts=("sost.records_stored",)),
    Target(
        "sost",
        "SostModel.rank_with",
        probe=_outcome_flags,
        counts=("sost.rank_with.active", "sost.rank_with.matched", "sost.rank_with.trend"),
    ),
    Target("sost", "SocialTree.venues_at"),
    Target("evaluation", "evaluate"),
    Target("homophily", "colocation_count"),
    Target("homophily", "scol_rate"),
    Target("homophily", "spatial_cosine"),
    Target("homophily", "social_situation_rate"),
    Target(
        "kernels",
        "count_pairs_within",
        probe=_elements_scanned,
        counts=("kernels.elements_scanned",),  # the weighted kernel adds to it too
    ),
    Target("kernels", "count_pairs_within_weighted", probe=_elements_scanned),
    Target("cohesion", "enumerate_cliques"),
    Target("cohesion", "enumerate_two_plexes"),
    Target("cohesion", "common_neighbors"),
    Target("cohesion", "adamic_adar"),
    Target("cohesion", "jaccard_users"),
    Target("cohesion", "degree_of_cliquishness"),
    Target("cohesion", "clustering_coefficient"),
    Target("cohesion", "avg_path_length"),
    Target("correlation", "sample_pairs"),
    Target("correlation", "correlation_matrix"),
)


class _ThreadTally:
    __slots__ = ("stack", "spans", "counts")

    def __init__(self):
        self.stack: list[list] = []  # [span name, seconds spent in traced children]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, inclusive s, self s]
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._tallies: list[_ThreadTally] = []
        self.absent: list[str] = []

    def _tally(self) -> _ThreadTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = _ThreadTally()
            self._tallies.append(tally)
        return tally

    def count(self, name: str, n: int = 1) -> None:
        counts = self._tally().counts
        counts[name] = counts.get(name, 0) + n

    def take(self) -> tuple[dict, dict]:
        """Merged (spans, counts) of every thread since the last take."""
        spans: dict[tuple[str, str], list] = {}
        counts: dict[str, int] = {}
        for tally in self._tallies:
            for key, (n, total, own) in tally.spans.items():
                agg = spans.setdefault(key, [0, 0.0, 0.0])
                agg[0] += n
                agg[1] += total
                agg[2] += own
            for name, n in tally.counts.items():
                counts[name] = counts.get(name, 0) + n
            tally.spans = {}
            tally.counts = {}
        return spans, counts

    def _timed(self, name: str, fn):
        tally_of = self._tally
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tally = tally_of()
            stack = tally.stack
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                    parent = stack[-1][0]
                else:
                    parent = ROOT
                agg = tally.spans.get((name, parent))
                if agg is None:
                    agg = tally.spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]

        return span

    def _counted(self, name: str, fn):
        count = self.count

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count(name + ".calls")
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, target: Target, fn):
        if target.probe is not None:
            fn = target.probe(fn, self.count)
        return self._timed(target.span, fn) if target.timed else self._counted(target.span, fn)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        modules = [
            m for name, m in sys.modules.items() if name == "socmob" or name.startswith("socmob.")
        ]
        self.absent = []
        try:
            for target in TARGETS:
                owner = sys.modules.get(f"socmob.{target.module}")
                *cls_path, attr = target.qualname.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.absent.append(target.span)
                    continue
                if cls_path:
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(target, raw.__func__))
                    else:
                        wrapped = self._wrap(target, raw)
                    restore.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                wrapped = self._wrap(target, raw)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            restore.append((module, name, raw))
                            setattr(module, name, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)


def layer_metrics(spans: dict, counts: dict, per: float, absent) -> dict[str, float]:
    """Per-layer figures per unit of work (a round, or a set-up repetition).

    ``<module>.<function>.calls`` and ``.s`` (inclusive seconds) for timed
    functions, ``.calls`` alone for counted ones, ``<module>.self_s`` per
    module, and the probe counts.  Absent functions get no entry.
    """
    out: dict[str, float] = {}
    present = [t for t in TARGETS if t.span not in absent]
    for target in present:
        if target.timed:
            rows = [v for (name, _), v in spans.items() if name == target.span]
            out[target.span + ".calls"] = sum(r[0] for r in rows) / per
            out[target.span + ".s"] = sum(r[1] for r in rows) / per
        else:
            out[target.span + ".calls"] = counts.get(target.span + ".calls", 0) / per
        for name in target.counts:
            out[name] = counts.get(name, 0) / per
    for module in dict.fromkeys(t.module for t in present):
        own = sum(v[2] for (name, _), v in spans.items() if name.startswith(module + "."))
        out[module + ".self_s"] = own / per
    return out
