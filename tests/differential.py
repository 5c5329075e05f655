"""Differential check of the crossing oracle between two checkouts.

Records one JSON line per `minimize_crossings` call, including the calls
made inside the library: the inputs, value, exact flag, threshold verdict,
budget units, a digest of the witness and whether the witness recounts to
the value.  Each catalog family adds one line with its values, edges and
family bounds.  Families:

* `catalog n=1 k=4` and `catalog n=2 k=4`: `enumerate_classes`, then
  `compatibility_graph` and `family_bounds`, without cache;
* `ladder m=6..11`: `self_intersection_number` of `v 2 (0 1)^m 2 v`;
* `clean gap`: `self_intersection_number` over 11 punctures of
  `v (10 0 1 0 2 0 ... 9 0)^2 10 0 10 v`, whose gap 0 holds 21 points and no
  chord, so the search orders it last;
* `random`: seeded single curves and curve pairs (n in {1, 2, 3}, open,
  closed and `v`-ended) at every budget of BUDGETS and cutoff of CUTOFFS.

Run it on each checkout, then compare the two records, which are matched
by their inputs, so that one side may make fewer or more searches:

    python tests/differential.py --src OLD_CHECKOUT > old.jsonl
    python tests/differential.py --src NEW_CHECKOUT > new.jsonl
    python tests/differential.py --compare old.jsonl new.jsonl

Uses the standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import Counter, defaultdict
from pathlib import Path

BUDGETS = (1, 3, 10, 100, 10**8)
CUTOFFS = (None, 0, 1, 3, 5)
FIELDS = ("value", "exact", "verdict", "units", "witness", "recounts", "report")
INPUTS = ("family", "n", "tally", "curves", "budget", "cutoff")


def _verdict(value: int, exact: bool, cutoff: int | None) -> bool | None:
    """The answer of a threshold search, as `segment_self_at_least` reads it:
    True for min >= cutoff, False for min < cutoff, None if undecided."""
    if cutoff is None:
        return None
    if value < cutoff:
        return False
    return True if exact else None


def _digest(witness) -> str:
    """Digest of a witness; gaps without crossings are left out, since only
    some versions list them."""
    obj = witness.to_json()
    obj["gapOrders"] = {g: order for g, order in obj["gapOrders"].items() if order}
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Recorder:
    """Rebinds `oracle.minimize_crossings` so that every call writes a
    record, and `_Search.run` so that the record carries the units spent."""

    def __init__(self, oracle, out):
        self.family = ""
        self.out = out
        units = {}
        run = oracle._Search.run

        def counted_run(search):
            try:
                return run(search)
            finally:
                units["last"] = search.units

        original = oracle.minimize_crossings

        def recorded(n, curves, tally, budget=oracle.DEFAULT_BUDGET, cutoff=None):
            units.pop("last", None)
            value, witness, exact = original(n, curves, tally, budget, cutoff)
            self.write({
                "n": n,
                "tally": tally,
                "curves": [c.to_json() for c in curves],
                "budget": budget,
                "cutoff": cutoff,
                "value": value,
                "exact": exact,
                "verdict": _verdict(value, exact, cutoff),
                "units": units.get("last"),
                "witness": _digest(witness),
                "recounts": oracle.count_crossings(witness, tally) == value,
            })
            return value, witness, exact

        oracle._Search.run = counted_run
        oracle.minimize_crossings = recorded

    def write(self, record: dict) -> None:
        self.out.write(json.dumps({"family": self.family, **record}, sort_keys=True) + "\n")


def _random_curve(rng: random.Random, n: int, size: int, lf):
    letters = [rng.randint(0, n) for _ in range(rng.randint(1, size))]
    closed = rng.random() < 0.4
    if closed:
        letters = letters[:len(letters) // 2 * 2] or [0, n]
    else:
        letters = [lf.V] * rng.randint(0, 1) + letters + [lf.V] * rng.randint(0, 1)
    return lf.CurveSpec(tuple(letters), closed, rng.choice((lf.NORTH, lf.SOUTH)))


def run_families(lf, oracle, recorder: Recorder, seed: int, count: int) -> None:
    nocache = lf.OracleConfig(use_cache=False)
    for n in (1, 2):
        recorder.family = f"catalog n={n} k=4"
        catalog = lf.enumerate_classes(n, 4, nocache)
        graph = lf.compatibility_graph(catalog, nocache)
        recorder.write({"report": {
            "selfint": [[e.selfint, e.exact] for e in catalog.entries],
            "graph": graph.to_json(),
            "familyBounds": lf.family_bounds(graph).to_json(),
        }})
    recorder.family = "ladder"
    alpha = lf.GapAlphabet(2)
    for m in range(6, 12):
        lf.self_intersection_number(lf.Word.v_word((2,) + (0, 1) * m + (2,)), alpha, nocache)
    recorder.family = "clean gap"
    spokes = tuple(x for g in (10, *range(1, 10)) for x in (g, 0))  # 10 0 1 0 ... 9 0
    lf.self_intersection_number(
        lf.Word.v_word(spokes * 2 + (10, 0, 10)), lf.GapAlphabet(11), nocache
    )
    recorder.family = "random"
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((1, 2, 3))
        tally = rng.choice(("self", "inter"))
        curves = tuple(
            _random_curve(rng, n, 4 if tally == "inter" else 8, lf)
            for _ in range(2 if tally == "inter" else 1)
        )
        for budget in BUDGETS:
            for cutoff in CUTOFFS:
                oracle.minimize_crossings(n, curves, tally, budget, cutoff)


def _by_inputs(path: str) -> dict[str, list[dict]]:
    """The records of one file, grouped by their inputs in file order."""
    groups: dict[str, list[dict]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            groups[json.dumps([record.get(f) for f in INPUTS])].append(record)
    return groups


def compare(path_a: str, path_b: str) -> None:
    """Match the records of A and B by their inputs, as multisets: the i-th
    record of some inputs in A with the i-th of the same inputs in B, so a
    side that searches less misaligns nothing.  Print how many records are
    only in A or only in B, how many matched ones differ in each field, in
    all and per family, how many at the default budget differ in an exact
    search's value or witness or in a threshold value below its cutoff,
    which way exact flags, verdicts and the values of searches stopped on
    either side moved from A to B, and, among searches completed on both
    sides, how many spent more or fewer units in B."""
    a, b = _by_inputs(path_a), _by_inputs(path_b)
    counts = Counter()
    for inputs in sorted(a.keys() | b.keys()):
        in_a, in_b = a.get(inputs, []), b.get(inputs, [])
        counts["only in A"] += max(0, len(in_a) - len(in_b))
        counts["only in B"] += max(0, len(in_b) - len(in_a))
        for ra, rb in zip(in_a, in_b):
            counts["records"] += 1
            _compare_pair(ra, rb, counts)
    head = ("records", "only in A", "only in B", *FIELDS)
    for name in head:
        print(f"{name}: {counts[name]}")
    for name in sorted(counts.keys() - set(head)):
        print(f"{name}: {counts[name]}")


def _compare_pair(ra: dict, rb: dict, counts: Counter) -> None:
    """Count the differences of one matched pair of records."""
    for f in FIELDS:
        if ra.get(f) != rb.get(f):
            counts[f] += 1
            counts[f"{ra['family']}: {f} differs"] += 1
    if "report" in ra:
        return
    counts["B witness does not recount"] += not rb["recounts"]
    if ra["budget"] == 10**8:
        # a threshold value at or above its cutoff only proves min >= cutoff,
        # and older versions stop a threshold search at the first drawing
        # below it, so across checkouts its verdict has to agree and, from
        # versions that search on below the cutoff, its value below it
        kind = "exact search" if ra["cutoff"] is None else "threshold search"
        counts[f"default budget: {kind} value differs"] += ra["value"] != rb["value"]
        if ra["cutoff"] is None:
            counts["default budget: exact search witness differs"] += ra["witness"] != rb["witness"]
        else:
            counts["default budget: threshold value below cutoff differs"] += (
                ra["value"] != rb["value"] and min(ra["value"], rb["value"]) < ra["cutoff"])
        counts["default budget: exact differs"] += ra["exact"] != rb["exact"]
        counts["default budget: verdict differs"] += ra["verdict"] != rb["verdict"]
    counts["exact True -> False"] += ra["exact"] and not rb["exact"]
    counts["exact False -> True"] += rb["exact"] and not ra["exact"]
    va, vb = ra["verdict"], rb["verdict"]
    counts["verdict undecided -> decided"] += va is None and vb is not None
    counts["verdict decided -> undecided"] += va is not None and vb is None
    counts["verdict contradicts"] += None not in (va, vb) and va != vb
    if not (ra["exact"] and rb["exact"]):
        # the value of a search stopped on either side is an upper bound
        counts["inexact value rose"] += rb["value"] > ra["value"]
        counts["inexact value fell"] += rb["value"] < ra["value"]
    counts["units A"] += ra["units"] or 0
    counts["units B"] += rb["units"] or 0
    if ra["exact"] and rb["exact"]:
        # a tighter bound may only shorten a completed search
        rise = (rb["units"] or 0) - (ra["units"] or 0)
        counts["exact on both: units rose"] += rise > 0
        counts["exact on both: units fell"] += rise < 0
        top = "exact on both: largest units rise"
        counts[top] = max(counts[top], rise)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="checkout whose src/ is imported first")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=400, help="random instances")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.src:
        sys.path.insert(0, str(Path(args.src).resolve() / "src"))
    import loopforge as lf
    from loopforge import oracle

    print(f"loopforge from {Path(lf.__file__).parent}", file=sys.stderr)
    run_families(lf, oracle, Recorder(oracle, sys.stdout), args.seed, args.count)


if __name__ == "__main__":
    main()
