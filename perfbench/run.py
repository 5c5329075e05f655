"""loopforge benchmark: one closed-loop caller drives the public library API.

Run from the root of a loopforge checkout:

    python3 perfbench/run.py --workload catalog_cold --seed 1 --seconds 40 --trace 0

A run lasts about ``--seconds``: it repeats passes of the workload until the
next pass would end later (at least one pass), checks every answer outside
the timed region, and prints one JSON object as its last line of output.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
SETUP_SAMPLES = 5  # reference searches timed before and after each set-up


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(load_1m: float) -> dict:
    """What the numbers were measured on, recorded beside them."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "loopforge").glob("*.py")
    )
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": load_1m,
        "commit": commit,
        "src_lines": src_lines,
    }


def setup_seconds(name: str, seed: int) -> tuple[float, list[float]]:
    """Median time, at the reference speed, for a fresh interpreter to
    import loopforge and build the workload's inputs; one untimed start
    first fills the bytecode cache.  Also returns the wall times."""
    command = [
        sys.executable, "-c",
        "import sys; sys.path[:0] = ['src', 'perfbench']; import workloads; "
        f"workloads.make({name!r}, {seed})",
    ]
    subprocess.run(command, cwd=ROOT, check=True)
    wall, at_ref = [], []
    for _ in range(SETUP_REPEATS):
        samples = [speed.sample() for _ in range(SETUP_SAMPLES)]
        t0 = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True)
        wall.append(time.perf_counter() - t0)
        samples += [speed.sample() for _ in range(SETUP_SAMPLES)]
        at_ref.append(speed.at_reference(wall[-1], samples))
    return statistics.median(at_ref), wall


def timed_pass(workload, tmp: Path, probe):
    """One pass: its wall time less the time spent sampling, that time at
    the reference speed, and the pass's outcome."""
    with probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        outcome = workload.run_pass(tmp)
        elapsed = time.perf_counter() - t0
    samples = probe.samples if probe else []
    work = elapsed - sum(samples)
    return work, speed.at_reference(work, samples or [speed.sample()]), outcome


def run_passes(workload, tmp: Path, deadline: float, probe=None, tracer=None):
    """Passes until the next one would end past ``deadline``.  With a tracer,
    untraced and traced passes alternate, at least one of each.  Returns the
    (wall, reference-speed) times of untraced and of traced passes, the
    answers attempted and failed, and the peak resident set in MB at the end
    of the first pass, which later passes would only nudge."""
    plain, traced = [], []
    attempted = failed = 0
    peak_mb = None
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.install()
        try:
            work, at_ref, outcome = timed_pass(workload, tmp, probe)
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else plain).append((work, at_ref))
        attempted += workload.attempted
        failed += workload.failures(outcome)
        del outcome  # so the next pass starts without this one's reports alive
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pending_trace = tracer is not None and not traced
        typical = statistics.median(w for w, _ in plain + traced)
        if not pending_trace and time.perf_counter() + typical > deadline:
            return plain, traced, attempted, failed, peak_mb


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loopforge" / "__init__.py").is_file():
        print(f"perfbench: no src/loopforge under {ROOT}; run from a loopforge checkout",
              file=sys.stderr)
        return 2
    load_1m = os.getloadavg()[0]
    # one core for the passes, the speed samples and the set-up children alike
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.make(args.workload, args.seed)

    probe = tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    else:
        probe = speed.SpeedProbe()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        deadline = time.perf_counter() + args.seconds
        workload.start(tmp)
        plain, traced, attempted, failed, peak_mb = run_passes(
            workload, tmp, deadline, probe, tracer
        )
        cache_files = workload.cache_files()
        cache_bytes = sum(p.stat().st_size for p in cache_files)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(load_1m)
    env.update(workload=args.workload, seed=args.seed,
               pass_wall_s=[w for w, _ in plain], traced_pass_wall_s=[w for w, _ in traced])
    if tracer is None:
        setup_s, env["setup_wall_s"] = setup_seconds(args.workload, args.seed)
        metrics = {
            "pass_s": statistics.median(r for _, r in plain),
            "peak_rss_mb": peak_mb,
            "ok_ratio": (attempted - failed) / attempted,
            "setup_s": setup_s,
        }
        wanted = spec["end_to_end"]
    else:
        metrics = tracer.layer_metrics(workloads.K, len(traced))
        metrics["cache.entries"] = len(cache_files)
        metrics["cache.bytes"] = cache_bytes
        metrics["trace.overhead_s"] = (
            statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in plain)
        )
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
        wanted = spec["per_layer"]

    print(json.dumps({"env": env}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
