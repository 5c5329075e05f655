"""Time and peak memory of a budget-limited `selfint` on the ladder words.

    python tools/ladder_budget.py [M ...] [--budget B] [--checkout DIR]

For each M (default: 200 400), runs

    loopforge selfint --n 2 --no-cache --budget B "v 2 (0 1)^M 2 v"

in a child process with DIR's `src` on the import path (default DIR: the
checkout holding this script, B: 10), one child at a time, and prints one
line per run: M, the child's wall time in seconds, its peak resident set
in MB (`ru_maxrss` of that child alone) and its exit code.  A budget that
bounds the search but not the table build shows here as time and memory
growing with M at a fixed B.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

RUN = "import sys; from loopforge.cli import main; main(sys.argv[1:], prog_name='loopforge')"


def measure(checkout: Path, m: int, budget: int) -> tuple[float, float, int]:
    """Seconds, peak MB and exit code of one child run."""
    word = " ".join(["v", "2", *["0", "1"] * m, "2", "v"])
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = ["selfint", "--n", "2", "--no-cache", "--budget", str(budget), word]
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", RUN, *args], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return seconds, usage.ru_maxrss / 1024, child.returncode  # ru_maxrss is in KB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("m", nargs="*", type=int, default=[200, 400])
    parser.add_argument("--budget", type=int, default=10)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args()
    print("m seconds peak_mb exit")
    for m in args.m:
        seconds, peak, code = measure(args.checkout.resolve(), m, args.budget)
        print(f"{m} {seconds:.2f} {peak:.0f} {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
