"""Record the three perfbench workloads of a loopforge checkout in one file.

    python tools/bench_record.py [CHECKOUT] [--out DIR]

For each of catalog_cold, catalog_warm and ladder, one after another, runs

    python perfbench/run.py --workload W --seed 1 --seconds 40 --trace 0

in CHECKOUT (default: the checkout holding this script) and keeps the last
two lines of its stdout: the environment line and the result line.  All
three are written to DIR/BENCH_<short commit of CHECKOUT>.json (default
DIR: the current directory), and the path is printed.  The file names the
commit it measures, so a checkout with uncommitted changes is refused, and
so is an existing BENCH file.  A run that fails stops the recording with
its exit code.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("catalog_cold", "catalog_warm", "ladder")


def _git(root: Path, *words: str) -> str:
    return subprocess.run(["git", "-C", str(root), *words],
                          capture_output=True, text=True, check=True).stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parents[1])
    parser.add_argument("--out", default=".", help="directory of the BENCH file")
    args = parser.parse_args()
    root = Path(args.checkout).resolve()
    if _git(root, "status", "--porcelain"):
        sys.exit(f"{root} has uncommitted changes; commit them or record a clean checkout")
    commit = _git(root, "rev-parse", "--short", "HEAD")
    path = Path(args.out) / f"BENCH_{commit}.json"
    if path.exists():
        sys.exit(f"{path} exists; remove it to record again")
    runs = []
    for workload in WORKLOADS:
        command = ["perfbench/run.py", "--workload", workload, "--seed", "1",
                   "--seconds", "40", "--trace", "0"]
        proc = subprocess.run([sys.executable, *command], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        env, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        runs.append({"command": " ".join(["python", *command]), **env, "result": result})
    path.write_text(json.dumps({"commit": commit, "runs": runs}, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
