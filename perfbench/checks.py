"""Checks of socmob command outputs against computations made apart from socmob.

Nothing here imports socmob.  The corpus is read back from the CSV files
with the ``csv`` module, the sequence model is replayed with a flat
dictionary, homophily measures are evaluated by brute force over every
pair of visits, and graph results are compared with networkx.  Each check
raises ``CheckFailed`` with a one-line reason when an output is wrong.

The constants mirror the defaults a user gets from the command line:
activity threshold 50, context depth kappa = 3, one-hour slots at UTC-8,
a one-week co-location window and a one-hour situation window.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

ACTIVITY_THRESHOLD = 50
KAPPA = 3
UTC_OFFSET_S = -8 * 3600
DAY_S = 86_400
HOUR_S = 3_600
WEEK_S = 7 * DAY_S
TOL = 1e-9


def _networkx():
    """networkx, imported on first use.  Imported with this module, its
    objects would sit in the heap that every garbage collection of the
    timed commands traverses, and the program does not use it."""
    import networkx

    return networkx


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


class Corpus:
    """The check-in and edge files as plain rows, plus derived tallies."""

    def __init__(self, checkins_path, edges_path):
        rows = []
        with open(checkins_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                if row:
                    rows.append((int(row[2]), row[0], row[1]))
        rows.sort()
        self.rows: list[tuple[int, str, str]] = rows
        with open(edges_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            self.edges = {(min(a, b), max(a, b)) for a, b in (r for r in reader if r)}

        self.visits: dict[str, list[tuple[int, str]]] = {}
        visitors: dict[str, Counter] = {}
        for ts, user, venue in rows:
            self.visits.setdefault(user, []).append((ts, venue))
            visitors.setdefault(venue, Counter())[user] += 1
        self.users = sorted(self.visits)
        self.active = {u for u, v in self.visits.items() if len(v) >= ACTIVITY_THRESHOLD}
        self.venue_weight = {
            v: 1.0 / (1.0 + entropy(c.values())) for v, c in visitors.items()
        }
        self.n_venues = len(visitors)
        self.span = (rows[0][0], rows[-1][0])

    def edge_graph(self) -> nx.Graph:
        nx = _networkx()
        return nx.Graph(list(self.edges))

    def full_graph(self) -> nx.Graph:
        g = self.edge_graph()
        g.add_nodes_from(self.users)
        return g


def entropy(counts) -> float:
    counts = [c for c in counts if c > 0]
    total = float(sum(counts))
    return max(-sum((c / total) * math.log(c / total) for c in counts), 0.0)


# --- evaluate ----------------------------------------------------------------


def temporal_labels(ts: int) -> tuple:
    local = ts + UTC_OFFSET_S
    dow = (local // DAY_S + 4) % 7
    return (("W", 1 if dow in (0, 6) else 0), ("D", dow), ("S", (local % DAY_S) // HOUR_S))


def ppm_hits(corpus: Corpus) -> Counter:
    """Per-user hits of the individual model, replayed test-then-train.

    Each user's counts live in one flat dictionary keyed by (recent venues,
    calendar labels).  A symbol's probability is fixed at the longest
    context that has seen it, with escape method A (escape count = number
    of distinct symbols); the residual mass is spread uniformly over the
    user's alphabet.  Ties go to the smaller venue id.
    """
    tables: dict[str, dict] = {}
    recent: dict[str, list[str]] = {}
    hits: Counter = Counter()
    for ts, user, venue in corpus.rows:
        tl = temporal_labels(ts)
        sp = tuple(recent.get(user, ())[-KAPPA:])
        chain = [(sp[len(sp) - k :], tl[:t]) for k in range(len(sp), -1, -1) for t in (3, 2, 1, 0)]
        table = tables.setdefault(user, {})
        alphabet = table.get(((), ()))
        if user in corpus.active and alphabet:
            probs: dict[str, float] = {}
            acc = 1.0
            for ctx in chain[:-1]:
                counts = table.get(ctx)
                if not counts:
                    continue
                denom = len(counts) + sum(counts.values())
                for q, n in counts.items():
                    probs.setdefault(q, acc * n / denom)
                acc *= len(counts) / denom
            unseen = acc / len(alphabet)
            best = min(alphabet, key=lambda q: (-probs.get(q, unseen), q))
            if best == venue:
                hits[user] += 1
        for ctx in chain:
            counts = table.setdefault(ctx, {})
            counts[venue] = counts.get(venue, 0) + 1
        recent.setdefault(user, []).append(venue)
    return hits


def check_evaluate(report: dict, corpus: Corpus, hits: Counter, planted_sweep: bool) -> None:
    """Scored count, ST hits, entropy bound and Fano range of an evaluate report.

    With ``planted_sweep`` the report must also show the properties a
    planted-influence corpus gives the five-variant run.
    """
    n_active_rows = sum(len(corpus.visits[u]) for u in corpus.active)
    n = report["n_scored"]
    expect(n == n_active_rows, f"n_scored {n} != {n_active_rows} rows of active users")
    per_user = {r["user"]: r for r in report["per_user"]}
    expect(set(per_user) == corpus.active, "per_user does not list exactly the active users")
    scored = sum(r["scored"] for r in per_user.values())
    expect(scored == n, f"per-user scored sums to {scored}, not n_scored {n}")
    for user, r in per_user.items():
        expect(r["scored"] == len(corpus.visits[user]), f"{user}: scored {r['scored']}")
        got = round(r["st_accuracy"] * r["scored"])
        expect(got == hits[user], f"{user}: {got} ST hits, oracle {hits[user]}")
    total = round(report["accuracy_st"] * n)
    expect(total == sum(hits.values()), f"{total} ST hits, oracle {sum(hits.values())}")

    entropies = [
        entropy(Counter(v for _, v in corpus.visits[u]).values()) for u in sorted(corpus.active)
    ]
    mean_h = sum(entropies) / len(entropies)
    lower = report["bounds"]["lower"]
    expect(close(lower, math.exp(-mean_h)), f"bounds.lower {lower} != exp(-{mean_h})")
    n_locs = sum(len({v for _, v in corpus.visits[u]}) for u in corpus.active) / len(corpus.active)
    fano = report["bounds"]["fano"]
    expect(1.0 / max(n_locs, 2.0) - TOL <= fano <= 1.0, f"fano {fano} outside [1/N, 1]")

    if planted_sweep:
        gain = report["accuracy_sost"] - report["accuracy_st"]
        expect(gain > 0.0, f"SOST gain {gain} is not positive")
        cum = report["class_cumulative"]
        a1, a12, a123 = (
            cum[k]["accuracy"] for k in ("classes_I", "classes_I_II", "classes_I_II_III")
        )
        expect(a1 <= a12 <= a123, f"class gains decrease: {a1}, {a12}, {a123}")
        drift = report["drift_comparison"]
        expect(
            drift["with_drift"] >= drift["without_drift"] - 0.01,
            f"drift {drift['with_drift']} below no-drift {drift['without_drift']} - 0.01",
        )


# --- stats -------------------------------------------------------------------


def check_stats(stats: dict, corpus: Corpus) -> None:
    nx = _networkx()
    g = corpus.full_graph()
    expected = {
        "n_checkins": len(corpus.rows),
        "n_users": g.number_of_nodes(),
        "n_edges": len(corpus.edges),
        "n_locations": corpus.n_venues,
        "n_active_users": len(corpus.active),
    }
    for key, value in expected.items():
        expect(stats[key] == value, f"stats {key} {stats[key]} != {value}")
    cc = nx.average_clustering(g)
    got = stats["clustering_coefficient"]
    expect(close(got, cc), f"stats clustering_coefficient {got} != networkx {cc}")


# --- homophily -----------------------------------------------------------------


class PairOracle:
    """Brute-force homophily over all visit pairs of two users.

    Venues are weighted by 1/(1 + H_v), with H_v the entropy of the venue's
    visitors, or all by 1 when ``weighted`` is False.
    """

    def __init__(self, corpus: Corpus, weighted: bool = True):
        self.corpus = corpus
        self.weight = corpus.venue_weight if weighted else dict.fromkeys(corpus.venue_weight, 1.0)
        ids = {v: i for i, v in enumerate(sorted(self.weight))}
        self.arrays = {}
        for user, visits in corpus.visits.items():
            ts = np.array([t for t, _ in visits], dtype=np.int64)
            vid = np.array([ids[v] for _, v in visits], dtype=np.int64)
            w = np.array([self.weight[v] for _, v in visits])
            self.arrays[user] = (ts, vid, w)

    def _pairs(self, a: str, b: str, window: int):
        ta, va, wa = self.arrays[a]
        tb, vb, wb = self.arrays[b]
        near = np.abs(ta[:, None] - tb[None, :]) <= window
        same = va[:, None] == vb[None, :]
        return near, same, wa, wb

    def col(self, a: str, b: str) -> float:
        near, same, wa, _ = self._pairs(a, b, WEEK_S)
        return float((wa[:, None] * (near & same)).sum())

    def srate(self, a: str, b: str) -> float:
        near, same, wa, wb = self._pairs(a, b, HOUR_S)
        num = float((wa[:, None] * (near & same)).sum())
        den = float((np.sqrt(wa)[:, None] * np.sqrt(wb)[None, :] * near).sum())
        return 0.0 if den <= 0.0 else min(num / den, 1.0)

    def scos(self, a: str, b: str) -> float:
        w = self.weight
        ca = Counter(v for _, v in self.corpus.visits[a])
        cb = Counter(v for _, v in self.corpus.visits[b])
        dot = sum(w[v] * n * w[v] * cb[v] for v, n in ca.items() if v in cb)
        na = math.sqrt(sum((w[v] * n) ** 2 for v, n in ca.items()))
        nb = math.sqrt(sum((w[v] * n) ** 2 for v, n in cb.items()))
        return min(dot / (na * nb), 1.0)

    def scol(self, a: str, b: str) -> float:
        start, end = self.corpus.span
        n_weeks = math.ceil((end - start + 1) / WEEK_S)

        def weekly(user):
            weeks: dict[str, set] = {}
            for t, v in self.corpus.visits[user]:
                weeks.setdefault(v, set()).add((t - start) // WEEK_S)
            return {v: len(s) / n_weeks for v, s in weeks.items()}

        pa, pb = weekly(a), weekly(b)
        return min(sum(p * pb[v] for v, p in pa.items() if v in pb), 1.0)


def read_pairs(path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.strip().split(",")) for line in fh if line.strip()]


def check_homophily(text: str, measure: str, pairs, oracle: PairOracle) -> None:
    lines = text.splitlines()
    expect(lines[0] == "user_a,user_b,value", f"{measure}: bad header {lines[0]!r}")
    expect(len(lines) - 1 == len(pairs), f"{measure}: {len(lines) - 1} rows for {len(pairs)} pairs")
    fn = getattr(oracle, measure)
    for line, (a, b) in zip(lines[1:], pairs):
        ra, rb, value = line.split(",")
        expect((ra, rb) == (a, b), f"{measure}: row {ra},{rb} out of order")
        want = fn(a, b)
        expect(close(float(value), want), f"{measure}({a},{b}) = {value}, brute force {want}")


# --- cohesion ------------------------------------------------------------------


def read_groups(text: str, kind: str) -> list[frozenset]:
    groups = []
    for line in text.splitlines():
        if not line:
            continue
        rec = json.loads(line)
        expect("truncated" not in rec, f"{kind} enumeration truncated")
        expect(rec["kind"] == kind, f"group of kind {rec['kind']!r}, expected {kind!r}")
        groups.append(frozenset(rec["members"]))
    return groups


def check_cliques(text: str, corpus: Corpus) -> None:
    nx = _networkx()
    got = read_groups(text, "clique")
    expect(len(got) == len(set(got)), "duplicate cliques")
    want = {frozenset(c) for c in nx.find_cliques(corpus.edge_graph()) if len(c) >= 3}
    expect(set(got) == want, f"{len(set(got) ^ want)} cliques differ from networkx")


def check_plexes(text: str, corpus: Corpus, cliques_text: str) -> None:
    """Every group is a maximal 2-plex of size >= 3, listed once, and every
    maximal clique of size >= 3 lies inside one of them."""
    g = corpus.edge_graph()
    adj = {u: set(g[u]) for u in g}
    got = read_groups(text, "two_plex")
    expect(len(got) == len(set(got)), "duplicate 2-plexes")
    for s in got:
        expect(len(s) >= 3, f"2-plex of size {len(s)}")
        expect(all(len(adj[u] & s) >= len(s) - 2 for u in s), f"{sorted(s)} is not a 2-plex")
        for v in set().union(*(adj[u] for u in s)) - s:
            grown = s | {v}
            extendable = all(len(adj[u] & grown) >= len(grown) - 2 for u in grown)
            expect(not extendable, f"{sorted(s)} is not maximal: {v} extends it")
    for c in read_groups(cliques_text, "clique"):
        expect(any(c <= s for s in got), f"clique {sorted(c)} lies in no 2-plex")


# --- correlate -----------------------------------------------------------------


def sample_pairs(corpus: Corpus, source: str, n: int, seed: int, plexes_text: str) -> list:
    """The pairs ``socmob correlate`` draws: uniform with replacement, two
    distinct users, from all users (``global``) or from one uniformly chosen
    maximal 2-plex, in output order (``two_plex``); Python's seeded RNG."""
    rng = random.Random(seed)
    groups = [sorted(json.loads(line)["members"]) for line in plexes_text.splitlines() if line]
    pairs = []
    for _ in range(n):
        pop = groups[rng.randrange(len(groups))] if source == "two_plex" else corpus.users
        i = rng.randrange(len(pop))
        j = rng.randrange(len(pop) - 1)
        pairs.append((pop[i], pop[j + (j >= i)]))
    return pairs


def check_correlate(
    text: str, corpus: Corpus, source: str, n: int, seed: int, plexes_text: str
) -> None:
    """Each cell is the Pearson r, to the six printed decimals, of series
    recomputed here: unweighted scos and srate by brute force, and common
    neighbours, Adamic-Adar, Jaccard and neighbourhood density with
    networkx.  A cell is empty exactly when a series is constant.  On the
    planted-influence corpora the benchmark writes, globally sampled pairs
    correlate positively with cn, aa and jacc."""
    nx = _networkx()
    pairs = sample_pairs(corpus, source, n, seed, plexes_text)
    oracle = PairOracle(corpus, weighted=False)
    g = corpus.full_graph()
    series: dict[str, list[float]] = {k: [] for k in ("scos", "srate", "cn", "aa", "jacc", "doc")}
    for a, b in pairs:
        series["scos"].append(oracle.scos(a, b))
        series["srate"].append(oracle.srate(a, b))
        series["cn"].append(float(len(list(nx.common_neighbors(g, a, b)))))
        series["aa"].append(next(nx.adamic_adar_index(g, [(a, b)]))[2])
        series["jacc"].append(next(nx.jaccard_coefficient(g, [(a, b)]))[2])
        series["doc"].append(nx.density(g.subgraph((set(g[a]) | set(g[b])) - {a, b})))

    lines = text.splitlines()
    header = lines[0].split(",")
    expect(header == ["measure", "aa", "cn", "doc", "jacc"], f"bad header {lines[0]!r}")
    rows = {line.split(",", 1)[0]: dict(zip(header[1:], line.split(",")[1:])) for line in lines[1:]}
    expect(sorted(rows) == ["scos", "srate"], f"rows {sorted(rows)}")
    for name, row in rows.items():
        for col, cell in row.items():
            x, y = np.array(series[name]), np.array(series[col])
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                expect(cell == "", f"{source}: {name}/{col} = {cell!r} for a constant series")
                continue
            expect(cell != "", f"{source}: {name}/{col} is empty")
            r, want = float(cell), float(np.corrcoef(x, y)[0, 1])
            expect(-1.0 <= r <= 1.0, f"{source}: {name}/{col} = {r} outside [-1, 1]")
            expect(abs(r - want) <= 2e-6, f"{source}: {name}/{col} = {r}, recomputed {want}")
            if source == "global" and col in ("cn", "aa", "jacc"):
                expect(r > 0.0, f"{source}: {name}/{col} = {r} is not positive")
