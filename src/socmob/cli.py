"""Command-line interface: every pipeline stage as a subcommand.

Exit codes: 0 success, 2 usage, 3 parse error, 4 integrity error,
5 numeric or infeasible input.  Failures print a one-line JSON error
record to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import cohesion as cohesion_mod
from . import correlation as correlation_mod
from . import evaluation, homophily, ingestion, sost, synthgen
from .core import SocialGraph
from .errors import (
    ConfigError,
    DegenerateInput,
    InsufficientSpan,
    IntegrityError,
    ModelEmpty,
    NoData,
    ParseError,
    SocmobError,
    UnknownNode,
    UnsupportedScheme,
)
from .vomm import ContextTree, TreeConfig

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTEGRITY = 4
EXIT_NUMERIC = 5

# What a subcommand raises, mapped to its exit code: the first entry whose
# classes match wins, and anything else is a bug that keeps its traceback.
_ERROR_CODES = (
    (ParseError, EXIT_PARSE),
    ((IntegrityError, UnknownNode), EXIT_INTEGRITY),
    (
        (
            NoData,
            InsufficientSpan,
            DegenerateInput,
            ModelEmpty,
            ConfigError,
            UnsupportedScheme,
            ValueError,
        ),
        EXIT_NUMERIC,
    ),
    (OSError, EXIT_USAGE),
    (SocmobError, EXIT_NUMERIC),
)


class UsageError(Exception):
    """A command line that the argument parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage text and exiting, so
    that `main` reports a bad command line as one JSON record; subparsers
    inherit the class."""

    # the names of the subcommands, which `build_parser` sets on the
    # top-level parser
    subcommands: tuple[str, ...] = ()

    def error(self, message: str):
        raise UsageError(message)


def _fail(exc: Exception, code: int) -> int:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)
    return code


def _read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key = value file (strings, numbers, booleans).

    Lines starting with # are comments.  Flags given on the command line
    take precedence over file values.
    """
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"expected key = value, got {line!r}", line_no)
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip().strip('"')
    return out


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkins", required=True, help="check-in CSV file")
    p.add_argument("--edges", required=True, help="edge-list CSV file")
    p.add_argument("--activity-threshold", type=int, default=50)


def _load(args) -> ingestion.Dataset:
    return ingestion.load_dataset(
        args.checkins,
        args.edges,
        ingestion.IngestConfig(activity_threshold=args.activity_threshold),
    )


def _out(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_ingest(args) -> int:
    ds = _load(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ingestion.save_dataset(ds, outdir / "checkins.csv", outdir / "edges.csv")
    summary = {
        "n_checkins": len(ds.checkins),
        "n_users": len(ds.graph.nodes),
        "n_venues": len(ds.venues),
        "n_edges": ds.graph.edge_count,
        "n_active_users": len(ds.active_users),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_stats(args) -> int:
    ds = _load(args)
    stats = ingestion.descriptive_stats(ds, seed=args.seed)
    _out(ingestion.stats_to_json(stats) + "\n", args.out)
    return 0


def _cmd_homophily(args) -> int:
    ds = _load(args)
    index = homophily.index_histories(ds.histories())
    scheme = homophily.WeightScheme(kind=args.weight)
    lines = ["user_a,user_b,value"]
    with open(args.pairs, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, _, b = line.partition(",")
            a, b = a.strip(), b.strip()
            ia, ib = index.get(a, ()), index.get(b, ())
            if args.measure == "col":
                val = homophily.colocation_count(ia, ib, scheme=scheme, venues=ds.venues)
            elif args.measure == "scol":
                val = homophily.scol_rate(ia, ib, span=ds.span())
            elif args.measure == "scos":
                val = homophily.spatial_cosine(ia, ib, scheme=scheme, venues=ds.venues)
            else:
                val = homophily.social_situation_rate(ia, ib, scheme=scheme, venues=ds.venues)
            lines.append(f"{a},{b},{val!r}")
    _out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cohesion(args) -> int:
    edges = ingestion.load_edges(args.graph)
    g = SocialGraph(edges)
    if args.plexes:
        groups, truncated = cohesion_mod.enumerate_two_plexes(
            g, min_size=args.min_size, max_count=args.max_count
        )
    else:
        groups, truncated = cohesion_mod.enumerate_cliques(
            g, min_size=args.min_size, max_count=args.max_count
        )
    lines = list(cohesion_mod.subgroups_to_jsonl(groups))
    if truncated:
        lines.append(json.dumps({"truncated": True}))
    _out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_correlate(args) -> int:
    ds = _load(args)
    histories = ds.histories()
    population = sorted(histories)
    subgroups = None
    if args.source == "home_city":
        population = _home_city_users(histories, radius_km=args.home_radius_km)
    elif args.source == "two_plex":
        # the pairs need only the members, not each group's cohesion
        members, _ = cohesion_mod._two_plex_members(ds.graph, min_size=3)
        subgroups = [sorted(m) for m in members]
    sample = correlation_mod.sample_pairs(
        population, args.sample_size, source=args.source, seed=args.seed, subgroups=subgroups
    )
    index = homophily.index_histories(histories)
    homos: dict[str, list[float]] = {"scos": [], "srate": []}
    cohs: dict[str, list[float]] = {"cn": [], "aa": [], "jacc": [], "doc": []}
    for a, b in sample.pairs:
        ha, hb = index.get(a, ()), index.get(b, ())
        try:
            homos["scos"].append(homophily.spatial_cosine(ha, hb))
        except NoData:
            homos["scos"].append(0.0)
        try:
            homos["srate"].append(homophily.social_situation_rate(ha, hb))
        except NoData:
            homos["srate"].append(0.0)
        cohs["cn"].append(float(cohesion_mod.common_neighbors(ds.graph, a, b)))
        cohs["aa"].append(cohesion_mod.adamic_adar(ds.graph, a, b))
        cohs["jacc"].append(cohesion_mod.jaccard_users(ds.graph, a, b))
        cohs["doc"].append(cohesion_mod.degree_of_cliquishness(ds.graph, a, b))
    table = correlation_mod.correlation_matrix(homos, cohs)
    _out(correlation_mod.matrix_to_csv(table), args.out)
    return 0


def _home_city_users(histories, radius_km: float = 25.0) -> list[str]:
    """Users whose home lies within radius_km of the population's median home."""
    from statistics import median

    from .core import haversine_km, home_location

    homes = {u: home_location(h) for u, h in histories.items() if h}
    lat0 = median(lat for lat, _ in homes.values())
    lon0 = median(lon for _, lon in homes.values())
    return sorted(
        u for u, (lat, lon) in homes.items() if haversine_km(lat, lon, lat0, lon0) <= radius_km
    )


def _cmd_train(args) -> int:
    ds = _load(args)
    history = ds.histories().get(args.user)
    if not history:
        raise NoData(f"user {args.user!r} has no check-ins")
    tree = ContextTree(TreeConfig(kappa=args.kappa, slot_hours=args.slot_hours))
    tree.train_history(history)
    _out(tree.dumps() + "\n", args.out)
    return 0


def _cmd_evaluate(args) -> int:
    ds = _load(args)
    classes = frozenset(args.classes.split(",")) if args.classes else sost.ALL_CLASSES
    config = sost.SostConfig(
        beta=args.beta,
        drift=args.drift,
        estimator=args.estimator,
        classes=classes,
        enable_trend=not args.no_trend,
        tree=TreeConfig(kappa=args.kappa, slot_hours=args.slot_hours),
    )
    report = evaluation.evaluate(
        ds,
        config,
        class_sweep=args.class_sweep,
        drift_compare=args.drift_compare,
    )
    _out(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_synth(args) -> int:
    cfg = synthgen.GenConfig(
        n_users=args.users,
        n_venues=args.venues,
        days=args.days,
        seed=args.seed,
        p_cositu=args.cositu,
        p_meetup=args.meetup,
        p_follow=args.follow,
        activity_threshold=args.activity_threshold,
    )
    dataset, truth = synthgen.generate(cfg)
    paths = synthgen.write_corpus(dataset, truth, args.out)
    print(json.dumps({k: str(v) for k, v in sorted(paths.items())}))
    return 0


def _cmd_bounds(args) -> int:
    bounds = evaluation.predictability_bounds(
        args.entropy,
        args.locations,
        new_location_fraction=args.new_fraction,
        avg_visits=args.avg_visits,
    )
    _out(json.dumps(bounds.to_dict(), indent=2, sort_keys=True) + "\n", args.out)
    return 0


_PER_USER_FIELDS = (
    "user",
    "scored",
    "st_accuracy",
    "sost_accuracy",
    "improvement",
    "situation_rate",
    "degree",
    "entropy",
    "n_locations",
    "influencers",
)


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _read_report(path: str) -> dict:
    """An evaluation report, checked for the fields `report` reads."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParseError(f"report is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("report: expected a JSON object")
    rows = data.get("per_user", [])
    if not isinstance(rows, list):
        raise ParseError("report: per_user must be a list")
    for n, row in enumerate(rows):
        missing = [k for k in _PER_USER_FIELDS if not isinstance(row, dict) or k not in row]
        if missing:
            raise ParseError(f"report: per_user row {n} lacks {', '.join(missing)}")
        # the breakdowns compute with every field but the user id
        bad = [k for k in _PER_USER_FIELDS if k != "user" and not _is_finite_number(row[k])]
        if bad:
            raise ParseError(f"report: per_user row {n}: not a finite number: {', '.join(bad)}")
    hours = data.get("per_hour_shares", {})
    if not isinstance(hours, dict) or not all(isinstance(v, list) for v in hours.values()):
        raise ParseError("report: per_hour_shares must map day classes to lists")
    return data


def _cmd_report(args) -> int:
    data = _read_report(args.eval)
    rows = data.get("per_user", [])
    lines = [",".join(_PER_USER_FIELDS)]
    for row in rows:
        lines.append(",".join(str(row[k]) for k in _PER_USER_FIELDS))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "per_user.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        breakdowns = evaluation.improvement_breakdowns(rows)
    except NoData:
        pass  # fewer than 3 scored users: nothing to correlate
    else:
        (outdir / "breakdowns.csv").write_text(
            evaluation.breakdowns_to_csv(breakdowns), encoding="utf-8"
        )
    hours = data.get("per_hour_shares", {})
    hlines = ["day_class,hour,share"]
    for day_class in sorted(hours):
        for h, share in enumerate(hours[day_class]):
            hlines.append(f"{day_class},{h},{share!r}")
    (outdir / "per_hour.csv").write_text("\n".join(hlines) + "\n", encoding="utf-8")
    summary = {
        k: data.get(k)
        for k in (
            "accuracy_st",
            "accuracy_sost",
            "absolute_improvement",
            "relative_improvement",
            "n_scored",
            "bounds",
            "significance_p",
        )
    }
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps({"out": str(outdir)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations at the top level: `_splice_config` reads only the
    # full `--config` spelling, so `--conf FILE` must not reach it as one
    parser = _Parser(
        prog="socmob",
        description="Check-in analytics: homophily, cohesion, and social next-location prediction",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key = value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize a corpus")
    _add_dataset_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="descriptive statistics as JSON")
    _add_dataset_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("homophily", help="pairwise homophily measures")
    _add_dataset_args(p)
    p.add_argument("--pairs", required=True, help="CSV of user_a,user_b rows")
    p.add_argument("--measure", choices=["col", "scol", "scos", "srate"], required=True)
    p.add_argument("--weight", choices=list(homophily.WEIGHT_KINDS), default="none")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_homophily)

    p = sub.add_parser("cohesion", help="enumerate maximal cliques or 2-plexes")
    p.add_argument("--graph", required=True, help="edge-list CSV file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cliques", action="store_true")
    group.add_argument("--plexes", action="store_true")
    p.add_argument("--min-size", type=int, default=3)
    p.add_argument("--max-count", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cohesion)

    p = sub.add_parser("correlate", help="homophily x cohesion correlation table")
    _add_dataset_args(p)
    p.add_argument("--sample-size", type=int, default=100_000)
    p.add_argument("--source", choices=list(correlation_mod.SOURCES), default="global")
    p.add_argument("--home-radius-km", type=float, default=25.0,
                   help="home_city source: radius around the median home")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spearman", action="store_true",
                   help="accepted for compatibility; the table holds Pearson r only")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("train", help="train and dump one user's context tree")
    _add_dataset_args(p)
    p.add_argument("--user", required=True)
    p.add_argument("--kappa", type=int, default=3)
    p.add_argument("--slot-hours", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="prequential evaluation report")
    _add_dataset_args(p)
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--drift", choices=list(sost.DRIFT_KINDS), default="exponential")
    p.add_argument("--estimator", choices=list(sost.ESTIMATORS), default="B")
    p.add_argument("--classes", help="comma-separated subset of I,II,III")
    p.add_argument("--no-trend", action="store_true")
    p.add_argument("--kappa", type=int, default=3)
    p.add_argument("--slot-hours", type=int, default=1)
    p.add_argument("--class-sweep", action="store_true")
    p.add_argument("--drift-compare", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--venues", type=int, default=None,
                   help="venue count (default: sized from the population)")
    p.add_argument("--days", type=int, default=60)
    p.add_argument("--cositu", type=float, default=0.9)
    p.add_argument("--meetup", type=float, default=0.6)
    p.add_argument("--follow", type=float, default=0.5)
    p.add_argument("--activity-threshold", type=int, default=50)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bounds", help="predictability bounds from summary statistics")
    p.add_argument("--entropy", type=float, required=True)
    p.add_argument("--locations", type=float, required=True)
    p.add_argument("--new-fraction", type=float, default=None)
    p.add_argument("--avg-visits", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("report", help="expand an evaluation JSON into plot data")
    p.add_argument("--eval", required=True, help="report JSON from `evaluate`")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    parser.subcommands = tuple(sub.choices)
    return parser


def _splice_config(argv: list[str], subcommands: tuple[str, ...]) -> list[str]:
    """Turn `--config FILE` or `--config=FILE` into flags inserted right
    after the first token of ``argv`` that is one of ``subcommands``.

    Flags written by the user come later on the line and therefore
    override the file values.
    """
    for idx, token in enumerate(argv):
        if token == "--config":
            if idx + 1 == len(argv):
                raise ValueError("--config expects a file path")
            path, argv = argv[idx + 1], argv[:idx] + argv[idx + 2 :]
            break
        if token.startswith("--config="):
            path, argv = token[len("--config=") :], argv[:idx] + argv[idx + 1 :]
            break
    else:
        return argv
    file_values = _read_config_file(path)
    extra: list[str] = []
    for key, value in file_values.items():
        if value.lower() == "false":
            continue
        extra.append(f"--{key.replace('_', '-')}")
        if value.lower() != "true":
            extra.append(value)
    for pos, token in enumerate(argv):
        if token in subcommands:
            return argv[: pos + 1] + extra + argv[pos + 1 :]
    return argv + extra


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_splice_config(argv, parser.subcommands))
    except (OSError, ValueError, UsageError) as exc:
        return _fail(exc, EXIT_USAGE)
    except ParseError as exc:
        return _fail(exc, EXIT_PARSE)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except Exception as exc:
        for classes, code in _ERROR_CODES:
            if isinstance(exc, classes):
                return _fail(exc, code)
        raise


if __name__ == "__main__":
    sys.exit(main())
