"""Record the reports of a loopforge checkout, and compare two records.

    python tools/compare_reports.py record CHECKOUT RECORD.json
    python tools/compare_reports.py diff A.json B.json

`record` runs a fixed list of commands (COMMANDS) with CHECKOUT's `src` on
the import path, each three times: with `--no-cache`, on a fresh cache
directory of its own, and again on that directory, now warm.  A command
without the oracle options runs three times as given.  It keeps
stdout and the exit code of every run, and the cache rows each command
wrote, sorted by key.  The runs are sequential, one process at a time.

`diff` prints every command, cache state and field in which two records
differ, and exits 1 if there is any difference, else 0.  Two checkouts give
the same reports and caches when `diff` of their records prints nothing.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import subprocess
import sys
import tempfile
from pathlib import Path

LADDER = "v 2 {} 2 v"
COMMANDS: list[list[str]] = (
    [["enumerate", "--n", "2", "--k", str(k)] for k in range(1, 7)]
    + [["enumerate", "--n", "1", "--k", "6"]]
    + [["graph", "--n", "2", "--k", str(k)] for k in (4, 5, 6)]
    + [["graph", "--n", "1", "--k", "4"]]
    + [["selfint", "--n", "2", LADDER.format(" ".join(["0 1"] * m))] for m in range(6, 13)]
    + [["pairint", "--n", "2", "--hemi2", "S", "v 2 0 1 2 v", "v 2 1 0 1 2 v"],
       ["pairint", "--n", "2", "0 1 2 1", "0 2 0 1 2 1"]]
    # a chord inside a gap: of an open word, and the closing chord of a closed one
    + [["selfint", "--n", "2", "v 2 0 0 1 2 v"], ["selfint", "--n", "2", "0 1 1 2 2 0"]]
    # the reflection through v: the chord-in-gap word reflected (value 1), and a
    # pair with one curve reflected (value 0; without the reflection it is 2)
    + [["selfint", "--n", "2", "v 2 1 1 0 2 v"],
       ["pairint", "--n", "2", "v 2 0 2 v", "v 2 1 2 v"]]
    + [["graph", "--n", n, "--k", "4", "--jobs", "2"] for n in ("1", "2")]
    # options a command does not read (exit 2): `--jobs` of a catalog, and a
    # hemisphere given with x-words
    + [["enumerate", "--n", "2", "--k", "3", "--jobs", "2"], ["growth", "--kmax", "2", "--jobs", "2"],
       ["canon", "--n", "2", "--hemisphere", "S", "0 1 2 1"],
       ["pairint", "--n", "2", "--hemi1", "S", "0 1 2 1", "1 2"]]
    # budget limits: one walk prefix left undecided (exit 0), and a catalog
    # stopped at its first inexact candidate (exit 3)
    + [["enumerate", "--n", "2", "--k", "4", "--budget", b] for b in ("30", "1")]
    # a search stopped by its budget one unit short of finishing (exit 3), and
    # the same search finished at its last unit (exit 0): they pin its units,
    # for two ladders
    + [["selfint", "--n", "2", "--budget", b, LADDER.format(" ".join(["0 1"] * m))]
       for m, units in ((10, 1221), (11, 3215)) for b in (str(units - 1), str(units))]
    # the commands that need no oracle
    + [["bounds", "--n", "2", "--k", "5"],
       ["windings", "--n", "2", "v 2 0 1 0 2 1 2 v"],
       ["decompose", "--n", "2", "2 0 1 0 1 2"],
       ["count-expansions", "--l", "4", "--k", "9"],
       ["count-expansions", "--sweep"],
       ["count-expansions", "--sweep", "--format", "csv"],
       ["reduce", "--n", "2", "v 0 1 2 0 0 2 1 v"],
       ["canon", "--n", "2", "--hemisphere", "S", "v 1 2 0 1 2 v"],
       ["equiv", "--n", "2", "0 1 2 2 1 0", "0 1 1 0"]]
    # every branch of the bounds report: one puncture, a non-square and a square
    # sqrt(nk), the ratio power, a null power of two, and a refusal (exit 2)
    + [["bounds", "--n", n, "--k", k]
       for n, k in (("1", "3"), ("2", "3"), ("2", "8"), ("10", "2"), ("4", "10"),
                    ("9216", "1024"))]
    # windings: basepoint and x-word windings at an end are dropped, other end
    # windings kept; the abab form; two windings of one obstacle against two obstacles
    + [["windings", "--n", "2", word]
       for word in ("v 2 0 1 0 v", "v 0 1 0 2 1 2 v", "0 1 0 2 1 2", "1 2 0 1 0 1 2 0",
                    "v 2 0 1 0 2 1 0 1 2 v", "v 2 0 2 0 2 1 2 1 2 v")]
    # the word rules' refusals (exit 2): 'v' at one end or inside, an odd x-word,
    # mixed kinds, and an oracle command refused in every cache state
    + [["reduce", "--n", "2", "2 v"], ["reduce", "--n", "2", "v 2 v 2 v"],
       ["canon", "--n", "2", "v 2 v 2"], ["windings", "--n", "2", "0 1 2"],
       ["decompose", "--n", "2", "v v 2 v"], ["equiv", "--n", "2", "v 2 v", "0 1"],
       ["selfint", "--n", "2", "2 v 2"]]
)
ORACLE_COMMANDS = ("enumerate", "graph", "growth", "pairint", "selfint")  # take --no-cache
STATES = ("no-cache", "fresh", "warm")
RUN = "import sys; from loopforge.cli import main; main(sys.argv[1:], prog_name='loopforge')"


def _rows(directory: Path) -> list[list[str]]:
    path = directory / "entries.sqlite"
    if not path.is_file():
        return []
    conn = sqlite3.connect(path)
    try:
        return [list(row) for row in conn.execute("SELECT key, entry FROM entries ORDER BY key")]
    finally:
        conn.close()


def _run(checkout: Path, args: list[str], work: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "LOOPFORGE_CACHE": os.path.join(work, "default-cache")}
    done = subprocess.run([sys.executable, "-c", RUN, *args], cwd=work, env=env,
                          capture_output=True, text=True)
    return {"exit": done.returncode, "stdout": done.stdout}


def record(checkout: Path, out: Path) -> None:
    runs = []
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as work:
        for index, args in enumerate(COMMANDS):
            cache = Path(work, f"cache{index}")
            oracle = args[0] in ORACLE_COMMANDS
            cached = [*args, "--cache-dir", str(cache)] if oracle else args
            uncached = [*args, "--no-cache"] if oracle else args
            run = {"args": args, "no-cache": _run(checkout, uncached, work),
                   "fresh": _run(checkout, cached, work), "rows": _rows(cache),
                   "warm": _run(checkout, cached, work)}
            warm_rows = _rows(cache)  # a warm run that writes rows changes them
            run["warm rows"] = "unchanged" if warm_rows == run["rows"] else warm_rows
            runs.append(run)
            print(" ".join(args), *(run[s]["exit"] for s in STATES), len(run["rows"]),
                  file=sys.stderr)
    out.write_text(json.dumps({"checkout": str(checkout), "runs": runs}))


def _first_difference(a: str, b: str) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"first difference at character {at}: {a[at:at + 60]!r} vs {b[at:at + 60]!r}"


def diff(a: dict, b: dict) -> list[str]:
    """One line per command, cache state and field in which the records differ."""
    lines = []
    runs_a = {json.dumps(r["args"]): r for r in a["runs"]}
    runs_b = {json.dumps(r["args"]): r for r in b["runs"]}
    for name in sorted(runs_a.keys() ^ runs_b.keys()):
        lines.append(f"{' '.join(json.loads(name))}: recorded in one record only")
    for name in sorted(runs_a.keys() & runs_b.keys()):
        ra, rb, command = runs_a[name], runs_b[name], " ".join(json.loads(name))
        for state in STATES:
            if ra[state]["exit"] != rb[state]["exit"]:
                lines.append(f"{command}: {state} exit code {ra[state]['exit']} vs "
                             f"{rb[state]['exit']}")
            if ra[state]["stdout"] != rb[state]["stdout"]:
                lines.append(f"{command}: {state} stdout, "
                             + _first_difference(ra[state]["stdout"], rb[state]["stdout"]))
        for field in ("rows", "warm rows"):
            if ra[field] == rb[field]:
                continue
            rows_a = dict(ra[field]) if isinstance(ra[field], list) else {}
            rows_b = dict(rb[field]) if isinstance(rb[field], list) else {}
            changed = sorted(k for k in rows_a.keys() & rows_b.keys() if rows_a[k] != rows_b[k])
            lines.append(f"{command}: {field}, {len(rows_a.keys() - rows_b.keys())} only in the "
                         f"first, {len(rows_b.keys() - rows_a.keys())} only in the second, "
                         f"{len(changed)} changed{', e.g. ' + changed[0] if changed else ''}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the commands of a checkout into a record")
    rec.add_argument("checkout", type=Path)
    rec.add_argument("out", type=Path)
    dif = sub.add_parser("diff", help="print the differences of two records")
    dif.add_argument("a", type=Path)
    dif.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.command == "record":
        record(args.checkout.resolve(), args.out)
        return 0
    lines = diff(*(json.loads(path.read_text()) for path in (args.a, args.b)))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
