"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks of every answer.

Each workload is a single caller in a closed loop: it issues a query to the
public loopforge API only after the previous one has returned.  Library
functions are looked up on the ``loopforge`` package at call time, so the
tracer in ``spans.py`` sees every call it wraps.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import tempfile
import traceback
from pathlib import Path

import loopforge as lf

N, K = 2, 5
EXPECTED = Path(__file__).with_name("expected_k5.json")
# ladder word v 2 (0 1)^m 2 v -> its self-intersection number
LADDER = {6: 17, 7: 20, 8: 23, 9: 26}


def dumps(obj: dict) -> str:
    """Serialize a report the way the CLI prints it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def class_key(loop_class) -> tuple[tuple[int, ...], str]:
    return tuple(loop_class.core), loop_class.start_hemisphere


def parse_core(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(".")) if text else ()


def witness_recounts(result, value: int) -> bool:
    return result.witness is not None and lf.count_crossings(result.witness) == value


def _run_guarded(fn):
    """Run one pass.  A raised exception is printed and the pass's outcome
    is None: every answer it owed counts as failed."""
    try:
        return fn()
    except Exception:  # the run must go on and count the failure
        traceback.print_exc(file=sys.stderr)
        return None


class Catalog:
    """``loopforge graph --n 2 --k 5`` through the library, in one process:
    enumerate_classes, then compatibility_graph and family_bounds on the
    catalog, serializing both reports.

    The seed permutes the catalog order before the graph, afresh on each
    pass so that a run's median spans several orders; seed 0 keeps it.
    ``warm`` fills the cache once before the timed passes and then reuses it;
    otherwise every pass starts from an empty cache directory.
    """

    def __init__(self, seed: int, warm: bool):
        self.warm = warm
        expected = json.loads(EXPECTED.read_text())
        self.expected = expected
        self.index = {
            (parse_core(core), hemi): i for i, (core, hemi, _) in enumerate(expected["classes"])
        }
        self.selfint = {key: expected["classes"][i][2] for key, i in self.index.items()}
        count = len(expected["classes"])
        self.pair_value = [[None] * count for _ in range(count)]
        values = iter(expected["pairs"])
        for i in range(count):
            for j in range(i + 1, count):
                self.pair_value[i][j] = self.pair_value[j][i] = next(values)
        self.count = count
        self.rng = random.Random(seed) if seed else None
        self.attempted = 1 + count + len(expected["pairs"]) + 1
        self.cache_dir: Path | None = None

    def start(self, tmp: Path) -> None:
        if self.warm:
            self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=tmp))
            self.run_pass(tmp)

    def run_pass(self, tmp: Path):
        return _run_guarded(lambda: self._pass(tmp))

    def _pass(self, tmp: Path):
        cache_dir = self.cache_dir or tempfile.mkdtemp(prefix="cache-", dir=tmp)
        config = lf.OracleConfig(cache_dir=cache_dir)
        self.last_cache_dir = Path(cache_dir)
        catalog = lf.enumerate_classes(N, K, config)
        dumps(catalog.to_json())
        if self.rng is not None and catalog.count == self.count:
            order = self.rng.sample(range(self.count), self.count)
            catalog = dataclasses.replace(catalog, entries=tuple(catalog.entries[i] for i in order))
        graph = lf.compatibility_graph(catalog, config)
        bounds = lf.family_bounds(graph)
        report = graph.to_json()
        report["familyBounds"] = bounds.to_json()
        dumps(report)
        return graph, bounds

    def failures(self, outcome) -> int:
        """Failed answers of one pass: the catalog's size, each class, each
        edge and the clique, compared by value, witnesses recounted."""
        if outcome is None:
            return self.attempted
        graph, bounds = outcome
        catalog = graph.catalog
        expected = self.expected
        failed = 0
        if catalog.count != expected["count"] or catalog.count_uncertainty != expected["countUncertainty"]:
            failed += 1
        for entry in catalog.entries:
            key = class_key(entry.loop_class)
            ok = entry.exact and entry.selfint == self.selfint.get(key)
            if ok and key[0]:
                ok = witness_recounts(entry, entry.selfint)
            failed += not ok
        failed += max(0, len(self.index) - catalog.count)  # classes never reported
        entries = catalog.entries
        for (i, j), edge in graph.edges.items():
            a = self.index.get(class_key(entries[i].loop_class))
            b = self.index.get(class_key(entries[j].loop_class))
            want = None if a is None or b is None else self.pair_value[a][b]
            failed += not (edge.exact and edge.value == want and edge.present == (want < K))
        failed += max(0, len(expected["pairs"]) - len(graph.edges))  # edges never reported
        clique = expected["clique"]
        failed += not (bounds.exact and bounds.clique_found == clique and bounds.clique_upper == clique)
        return min(failed, self.attempted)

    def cache_files(self) -> list[Path]:
        return list(self.last_cache_dir.glob("*.json"))


class Ladder:
    """``self_intersection_number`` on v 2 (0 1)^m 2 v for m = 6..9, no cache.

    The seed picks each word's reversal and the hemisphere in which its
    witness is re-counted (the search itself always starts north, and the
    value does not depend on it); seed 0 keeps every word as written, north.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.alphabet = lf.GapAlphabet(N)
        self.words = []
        for m, value in LADDER.items():
            core = (2,) + (0, 1) * m + (2,)
            reverse = bool(seed) and rng.random() < 0.5
            hemisphere = lf.SOUTH if seed and rng.random() < 0.5 else lf.NORTH
            self.words.append((lf.Word.v_word(core[::-1] if reverse else core), hemisphere, value))
        self.attempted = len(self.words)

    def start(self, tmp: Path) -> None:
        pass

    def run_pass(self, tmp: Path):
        return _run_guarded(self._pass)

    def _pass(self):
        config = lf.OracleConfig(use_cache=False)
        results = []
        for word, _, _ in self.words:
            result = lf.self_intersection_number(word, self.alphabet, config)
            dumps(result.to_json())
            results.append(result)
        return results

    def failures(self, outcome) -> int:
        if outcome is None:
            return self.attempted
        failed = 0
        for (_, hemisphere, value), result in zip(self.words, outcome):
            ok = result.exact and result.value == value and witness_recounts(result, value)
            if ok:
                mirrored = dataclasses.replace(
                    result.witness,
                    curves=tuple(
                        dataclasses.replace(c, hemisphere=hemisphere) for c in result.witness.curves
                    ),
                )
                ok = lf.count_crossings(mirrored) == value
            failed += not ok
        return failed

    def cache_files(self) -> list[Path]:
        return []


WORKLOADS = {
    "catalog_cold": lambda seed: Catalog(seed, warm=False),
    "catalog_warm": lambda seed: Catalog(seed, warm=True),
    "ladder": Ladder,
}


def make(name: str, seed: int):
    """Build a workload's inputs from its seed."""
    return WORKLOADS[name](seed)
