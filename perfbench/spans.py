"""Tracing from outside the program: wrap the public functions of each
loopforge layer, keep one span per call in memory (name, start, end,
parent), and derive per-layer metrics from the spans.

Nothing under ``src/`` is edited.  A function is wrapped by rebinding every
module attribute that refers to it, so calls made inside the library, such
as the walk calling ``segment_self_at_least``, are traced too.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import loopforge
from loopforge import bounds, cache, extremal, oracle
from loopforge.words import V

_OWNERS = (loopforge, extremal, oracle, bounds, cache, cache.CacheStore)
_BUCKETS = ("gap_le4", "gap5_6", "gap7_8", "gap_ge9")
_SEARCH_KINDS = ("threshold", "self", "inter")
_PUBLIC_QUERIES = (
    "oracle.segment_self_at_least",
    "oracle.self_intersection_number",
    "oracle.pair_intersection_number",
)


def gap_bucket(curves) -> str:
    """Bucket of a search by the point count of its largest gap."""
    counts = Counter(g for c in curves for g in c.letters if g != V)
    largest = max(counts.values(), default=0)
    if largest <= 4:
        return _BUCKETS[0]
    if largest <= 6:
        return _BUCKETS[1]
    if largest <= 8:
        return _BUCKETS[2]
    return _BUCKETS[3]


def _search_name(n, curves, tally, budget=None, cutoff=None):
    kind = "threshold" if cutoff is not None else tally
    return f"oracle.minimize_crossings.{kind}.{gap_bucket(curves)}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.outcomes: dict[str, Counter] = defaultdict(Counter)
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, outcome=None) -> None:
        """Trace every call of ``owner.attr``.  ``name`` is a span name or a
        function of the call's arguments; ``outcome`` maps a result to the
        counts it adds under that name."""
        original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: {owner.__name__}.{attr} not found; not traced", file=sys.stderr)
            return
        name_of = name if callable(name) else (lambda *a, **k: name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = name_of(*args, **kwargs)
            idx = tracer._open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if outcome is not None:
                tracer.outcomes[span].update(outcome(result))
            return result

        for target in _OWNERS:
            if vars(target).get(attr) is original:
                self._undo.append((target, attr, original))
                setattr(target, attr, traced)

    def install(self) -> None:
        wrap = self.wrap
        wrap(extremal, "enumerate_classes", "extremal.enumerate_classes")
        wrap(extremal, "_collect_core_candidates", "extremal.walk", lambda r: {"candidates": len(r)})
        wrap(extremal, "prefix_winding_lb", "extremal.prefix_winding_lb", lambda r: {r: 1})
        wrap(extremal, "_evaluate_words", "extremal.evaluate", lambda r: Counter(c.value for c in r))
        wrap(extremal, "compatibility_graph", "extremal.compatibility_graph")
        wrap(extremal, "family_bounds", "extremal.family_bounds")
        wrap(bounds, "depth_family_bound", "bounds.depth_family_bound")
        wrap(oracle, "segment_self_at_least", "oracle.segment_self_at_least",
             lambda r: {{True: "proved", False: "refuted", None: "undecided"}[r]: 1})
        wrap(oracle, "self_intersection_number", "oracle.self_intersection_number")
        wrap(oracle, "pair_intersection_number", "oracle.pair_intersection_number")
        wrap(oracle, "minimize_crossings", _search_name)
        wrap(cache.CacheStore, "get", "cache.get", lambda r: {"hits": r is not None})
        wrap(cache.CacheStore, "put", "cache.put")

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Write the spans as columns; parent -1 marks a root span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        path.write_text(json.dumps({
            "names": table,
            "name": [code[n] for n in self.names],
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
        }, separators=(",", ":")))

    def layer_metrics(self, k: int, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass: calls, seconds (inclusive),
        self seconds, latency percentiles and outcome counts."""
        durations: dict[str, list[int]] = defaultdict(list)
        child_ns = [0] * len(self.names)
        searched = set()
        for idx, name in enumerate(self.names):
            duration = self.ends[idx] - self.starts[idx]
            durations[name].append(duration)
            parent = self.parents[idx]
            if parent >= 0:
                child_ns[parent] += duration
                if name.startswith("oracle.minimize_crossings."):
                    searched.add(parent)
        self_ns: dict[str, int] = Counter()
        for idx, name in enumerate(self.names):
            self_ns[name] += self.ends[idx] - self.starts[idx] - child_ns[idx]

        out: dict[str, float] = {}

        def span(name: str, members: tuple[str, ...] = (), *, selfs=False, pct=False) -> None:
            """Metrics of the spans called ``name``, or of ``members`` together."""
            members = members or (name,)
            samples = [d for m in members for d in durations.get(m, ())]
            out[f"{name}.calls"] = len(samples) / passes
            out[f"{name}.s"] = sum(samples) / 1e9 / passes
            if selfs:
                out[f"{name}.self_s"] = sum(self_ns[m] for m in members) / 1e9 / passes
            if pct:
                out[f"{name}.p50_ms"] = _percentile(samples, 0.50) / 1e6
                out[f"{name}.p99_ms"] = _percentile(samples, 0.99) / 1e6

        def count(name: str, key, metric: str) -> None:
            out[metric] = self.outcomes[name][key] / passes

        span("oracle.segment_self_at_least", pct=True)
        for key in ("proved", "refuted", "undecided"):
            count("oracle.segment_self_at_least", key, f"oracle.segment_self_at_least.{key}")
        span("oracle.self_intersection_number")
        span("oracle.pair_intersection_number", selfs=True, pct=True)
        for kind in _SEARCH_KINDS:
            base = f"oracle.minimize_crossings.{kind}"
            span(base, tuple(f"{base}.{b}" for b in _BUCKETS))
            for bucket in _BUCKETS:
                span(f"{base}.{bucket}")
        public = [i for i, n in enumerate(self.names) if n in _PUBLIC_QUERIES]
        answered = sum(1 for i in public if i not in searched)
        out["oracle.cache_answer_ratio"] = answered / len(public) if public else 0.0

        span("cache.get")
        count("cache.get", "hits", "cache.get.hits")
        span("cache.put")

        span("extremal.enumerate_classes")
        span("extremal.walk")
        count("extremal.walk", "candidates", "extremal.walk.candidates")
        windings = self.outcomes["extremal.prefix_winding_lb"]
        out["extremal.walk.pruned_winding"] = sum(c for v, c in windings.items() if v >= k) / passes
        out["extremal.walk.kept"] = sum(
            c for v, c in self.outcomes["extremal.evaluate"].items() if v < k
        ) / passes
        span("extremal.prefix_winding_lb")
        span("extremal.evaluate")
        span("extremal.compatibility_graph")
        span("extremal.family_bounds")
        span("bounds.depth_family_bound")
        out["trace.spans"] = len(self.names) / passes
        return out


def _percentile(samples: list[int], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])
