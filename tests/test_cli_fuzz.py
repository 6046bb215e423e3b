"""Property test of the command line's input boundaries.

Each example writes a tiny check-in file, edge file, pairs file, config
file and evaluation report, one of them possibly mutated, into a fresh
working directory, and runs one command with flags and values drawn from
a fixed vocabulary.  Whatever the inputs, `main` must return a documented exit
code, and a failure must leave exactly one JSON error record on stderr.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from socmob.cli import main

CHECKINS = """user_id,venue_id,timestamp,lat,lon
u0,v0,1000,37.75,-122.45
u1,v0,1600,37.75,-122.45
u0,v1,5000,37.76,-122.44
u1,v1,5300,37.76,-122.44
u2,v1,5400,37.76,-122.44
u0,v0,90000,37.75,-122.45
u2,v0,90200,37.75,-122.45
u1,v0,90300,37.75,-122.45
"""

EDGES = """user_a,user_b
u0,u1
u1,u2
u0,u2
"""

PAIRS = "u0,u1\nu1,u2\nu0,u9\n"

REPORT = json.dumps({
    "accuracy_st": 0.5,
    "accuracy_sost": 0.6,
    "n_scored": 4,
    "per_hour_shares": {"workday": [0.0, 0.5], "weekend": [0.5, 0.0]},
    "per_user": [{
        "user": "u0", "scored": 4, "st_accuracy": 0.5, "sost_accuracy": 0.6,
        "improvement": 0.1, "situation_rate": 0.25, "degree": 2, "entropy": 0.6,
        "n_locations": 2, "influencers": 1,
    }],
})

FILES = {
    "c.csv": CHECKINS,
    "e.csv": EDGES,
    "pairs.csv": PAIRS,
    "report.json": REPORT,
}

DATA = ["--checkins", "c.csv", "--edges", "e.csv"]
DATASET_FLAGS = ["--checkins", "--edges", "--activity-threshold", "--out"]

# per command: the arguments it needs to get past the parser, the flags it
# takes, and the contents of a config file for it
COMMANDS = {
    "stats": (DATA, [*DATASET_FLAGS, "--seed"], "activity_threshold = 1\nseed = 3\n"),
    "homophily": (
        [*DATA, "--pairs", "pairs.csv", "--measure", "srate"],
        [*DATASET_FLAGS, "--pairs", "--measure", "--weight"],
        "activity_threshold = 1\nweight = entropy\n",
    ),
    "cohesion": (
        ["--graph", "e.csv"],
        ["--graph", "--cliques", "--plexes", "--min-size", "--max-count", "--out"],
        "plexes = true\nmin_size = 2\n",
    ),
    "correlate": (
        [*DATA, "--sample-size", "5"],
        [*DATASET_FLAGS, "--sample-size", "--source", "--home-radius-km", "--seed",
         "--spearman"],
        "activity_threshold = 1\nspearman = true\nsource = two_plex\n",
    ),
    "evaluate": (
        DATA,
        [*DATASET_FLAGS, "--beta", "--drift", "--estimator", "--classes", "--no-trend",
         "--kappa", "--slot-hours", "--class-sweep", "--drift-compare"],
        "activity_threshold = 1\nclass_sweep = true\nestimator = A\n",
    ),
    "train": (
        [*DATA, "--user", "u0"],
        [*DATASET_FLAGS, "--user", "--kappa", "--slot-hours"],
        "activity_threshold = 1\nkappa = 2\n",
    ),
    "bounds": (
        ["--entropy", "1.5", "--locations", "4"],
        ["--entropy", "--locations", "--new-fraction", "--avg-visits", "--out"],
        "new_fraction = 0.2\navg_visits = 3\n",
    ),
    "report": (
        ["--eval", "report.json", "--out", "expanded"],
        ["--eval", "--out"],
        "eval = report.json\n",
    ),
}

NUMBERS = ["0", "1", "2.5", "-1", "1e400", "nan", "-inf", "x"]
COUNTS = ["0", "1", "2", "-1", "3", "100000", "x"]
PATHS = ["c.csv", "e.csv", "pairs.csv", "report.json", "run.conf", "missing.csv", "."]

# values for each flag, valid and not; flags without an entry take none
FLAG_VALUES = {
    "--checkins": PATHS, "--edges": PATHS, "--pairs": PATHS, "--graph": PATHS,
    "--eval": PATHS, "--out": ["out.json", "outdir", "."],
    "--activity-threshold": COUNTS, "--seed": COUNTS, "--min-size": COUNTS,
    "--max-count": COUNTS, "--sample-size": COUNTS, "--kappa": COUNTS,
    "--slot-hours": COUNTS,
    "--beta": NUMBERS, "--home-radius-km": NUMBERS, "--entropy": NUMBERS,
    "--locations": NUMBERS, "--new-fraction": NUMBERS, "--avg-visits": NUMBERS,
    "--measure": ["col", "scol", "scos", "srate", "x"],
    "--weight": ["none", "entropy", "density", "population", "distance_from_home", "x"],
    "--source": ["global", "two_plex", "home_city", "x"],
    "--drift": ["none", "geometric", "exponential", "x"],
    "--estimator": ["A", "B", "x"],
    "--classes": ["I", "I,II", "I,II,III", "IV", ""],
    "--user": ["u0", "u2", "u9"],
}

GLOBAL = [[], [], ["--config", "run.conf"], ["--config=run.conf"], ["--config"]]

INSERTS = [
    "", ",", "\n", "\r\n", '"', "x", "-", "9", "nan", "1e999", "\x00", "é", "{", "]",
    "9" * 310,  # an integer too large for a float
    '"' + "x" * (csv.field_size_limit() + 1),  # a quoted field past the csv module's limit
]


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` with a few random deletions, insertions, and dropped lines
    and comma-separated fields."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "insert", "drop-line", "dup-line", "drop-field"]))
        if op == "drop-field":
            fields = text.split(",")
            del fields[draw(st.integers(0, len(fields) - 1))]
            text = ",".join(fields)
        elif op in ("delete", "insert"):
            i = draw(st.integers(0, len(text)))
            j = min(len(text), i + draw(st.integers(0, 4)))
            keep = draw(st.sampled_from(INSERTS)) if op == "insert" else ""
            text = text[:i] + keep + text[j if op == "delete" else i:]
        else:
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if op == "drop-line" else [lines[k], lines[k]]
            text = "\n".join(lines)
    return text


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, flags, config_text = COMMANDS[command]
    files = {**FILES, "run.conf": config_text}
    if draw(st.integers(0, 3)):
        # mutate a file the command reads
        name = draw(st.sampled_from([p for p in required if p in files] + ["run.conf"]))
        files[name] = draw(mutated(files[name]))
    if draw(st.integers(0, 4)) == 0:
        # drop a trailing part of the required arguments
        required = required[: draw(st.integers(0, len(required)))]
    extra: list[str] = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 9)) == 0:  # a stray token
            extra.append(draw(st.sampled_from(["--bogus", "-h", "x", "1"])))
            continue
        flag = draw(st.sampled_from(flags))
        extra.append(flag)
        if flag in FLAG_VALUES:
            extra.append(draw(st.sampled_from(FLAG_VALUES[flag])))
    if command in ("stats", "correlate", "evaluate", "train") and draw(st.booleans()):
        extra += ["--activity-threshold", "1"]
    config = draw(st.sampled_from(GLOBAL))
    before = draw(st.booleans())
    # a stray token before the command, which makes `main` build every subparser
    lead = [draw(st.sampled_from(["--bogus", "-1", "x"]))] if draw(st.integers(0, 9)) == 0 else []
    argv = (
        (config if before else [])
        + [*lead, command, *required, *extra]
        + ([] if before else config)
    )
    return files, argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_cli_maps_any_input_to_a_documented_exit(case):
    files, argv = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative output paths land in the temporary directory
        try:
            for name, text in files.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4, 5), (argv, code, err.getvalue())
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, err.getvalue())
        record = json.loads(lines[0])
        assert isinstance(record["error"], str) and isinstance(record["message"], str)
