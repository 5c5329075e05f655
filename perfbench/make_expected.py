"""Write expected_k5.json: the reference answers the catalog workloads check.

Run from the root of a loopforge checkout whose answers are trusted:

    python3 perfbench/make_expected.py

It records, in catalog order, each class of enumerate_classes(2, 5) with its
self-intersection number, and the pair value of every class pair i < j.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")

import loopforge as lf  # noqa: E402

from workloads import EXPECTED, K, N  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory(dir=".") as cache_dir:
        config = lf.OracleConfig(cache_dir=cache_dir)
        catalog = lf.enumerate_classes(N, K, config)
        graph = lf.compatibility_graph(catalog, config)
        bounds = lf.family_bounds(graph)
    if not (catalog.to_json()["exact"] and graph.complete and bounds.exact):
        sys.exit("make_expected: an answer is not exact; nothing written")
    classes = [
        [".".join(map(str, e.loop_class.core)), e.loop_class.start_hemisphere, e.selfint]
        for e in catalog.entries
    ]
    count = catalog.count
    pairs = [graph.edges[(i, j)].value for i in range(count) for j in range(i + 1, count)]
    expected = {
        "n": N,
        "k": K,
        "count": count,
        "countUncertainty": catalog.count_uncertainty,
        "clique": bounds.clique_found,
        "classes": classes,
        "pairs": pairs,
    }
    Path(EXPECTED).write_text(json.dumps(expected, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
