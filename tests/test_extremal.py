import contextlib
import itertools
import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cache_rows import cache_rows
from loopforge import (
    GapAlphabet,
    OracleConfig,
    PreconditionError,
    VLoopClass,
    Word,
    XLoopClass,
    compatibility_graph,
    enumerate_classes,
    family_bounds,
    growth_report,
    length_cap,
    winding_self_lower_bound,
)
from loopforge import extremal, oracle
from loopforge.extremal import (
    CompatibilityGraph,
    FamilyBounds,
    GraphEdge,
    max_clique,
    prefix_winding_lb,
)
from loopforge.words import NORTH, SOUTH, V, equator_position
from reference_walk import (
    circle_drawing,
    reference_core_candidates,
    reference_grow_segment,
    reference_winding_lb,
)


def test_length_cap_values():
    assert length_cap(1, 1) == 4
    assert length_cap(5, 1) == 12
    assert length_cap(1, 2) == 25
    assert length_cap(2, 2) == 37
    assert length_cap(3, 2) == 49
    for k in range(1, 8):
        assert length_cap(k + 1, 2) >= length_cap(k, 2)
        assert length_cap(k + 1, 1) >= length_cap(k, 1)
    with pytest.raises(PreconditionError):
        length_cap(1, 3)


def _carried_windings(word: tuple[int, ...], n: int) -> list[tuple]:
    """The winding state of each prefix of `word`, carried as the walk does."""
    winds = [extremal._winding_start(n)]
    for i in range(1, len(word)):
        winds.append(extremal._wound(winds[-1], word[:i], word[i], n))
    return winds


def test_prefix_winding_lb_counts_pending_blocks(alpha2):
    # an open alternating block will wind in every completed core word
    for prefix, bound in (((2, 0, 2, 0), 1), ((2, 0, 1, 0), 1), ((2, 0, 1, 2), 0)):
        assert reference_winding_lb(prefix, alpha2) == bound
        assert prefix_winding_lb(_carried_windings(prefix, 2)[-1]) == bound


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((1, 2)), max_size=30))
def test_walk_state_matches_reference(steps):
    """At every prefix of a reduced word over {0, 1, 2} that starts with 2,
    the carried winding bound is the one found from the prefix's letters,
    and the carried drawing is the one grown from the letters alone."""
    alphabet = GapAlphabet(2)
    word = [2]
    for step in steps:
        word.append((word[-1] + step) % 3)
    word = tuple(word)
    drawn, reference = oracle._segment_start(2), ((0,), 0)
    for i, wind in enumerate(_carried_windings(word, 2), 1):
        prefix, anchored = word[:i], (V,) + word[:i]
        assert prefix_winding_lb(wind) == reference_winding_lb(prefix, alphabet), prefix
        drawn = oracle._grow_segment(drawn, anchored)
        reference = reference_grow_segment(reference, anchored)
        assert drawn[:2] == reference, prefix
        places = [equator_position(anchored[p]) for p in drawn[0]]
        assert drawn[2] == tuple(places.count(r) for r in range(4)), prefix


def test_enumerate_single_puncture(config):
    catalog = enumerate_classes(1, 2, config)
    assert catalog.count == 5
    words = [e.loop_class.reduced for e in catalog.entries]
    assert words == [(), (0, 1), (1, 0), (0, 1, 0, 1), (1, 0, 1, 0)]
    assert all(e.exact for e in catalog.entries)
    assert catalog.count_uncertainty == 0


def test_enumerate_two_punctures_k1(config):
    catalog = enumerate_classes(2, 1, config)
    cores = {(e.loop_class.core, e.loop_class.start_hemisphere) for e in catalog.entries}
    assert cores == {
        ((), NORTH),
        ((), SOUTH),
        ((2,), NORTH),
        ((2,), SOUTH),
    }
    assert catalog.count_uncertainty == 1


def test_enumerate_two_punctures_k2(config):
    catalog = enumerate_classes(2, 2, config)
    cores = sorted({e.loop_class.core for e in catalog.entries})
    assert cores == [(), (2,), (2, 0, 2), (2, 1, 2)]
    assert catalog.count == 8


def test_catalog_nested_in_k(config):
    prev = set()
    for k in (1, 2, 3, 4):
        catalog = enumerate_classes(2, k, config)
        current = {
            (e.loop_class.core, e.loop_class.start_hemisphere)
            for e in catalog.entries
        }
        assert prev <= current
        prev = current


def test_catalog_entries_respect_winding_bound(config, alpha2):
    catalog = enumerate_classes(2, 3, config)
    for entry in catalog.entries:
        word = entry.loop_class.word()
        assert entry.selfint >= winding_self_lower_bound(word, alpha2)
        assert entry.selfint < 3


def test_catalog_k4_structure(config):
    """The per-pair subword cap extends to k=4 on the exhaustive catalog."""
    from loopforge import maximal_two_letter_words

    catalog = enumerate_classes(2, 4, config)
    assert catalog.count == 40
    for entry in catalog.entries:
        core = entry.loop_class.core
        assert len(core) <= length_cap(4, 2)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            assert len(maximal_two_letter_words(core, a, b)) ** 2 <= 16 * 4


def test_enumerate_rejects_bad_args(config):
    with pytest.raises(PreconditionError):
        enumerate_classes(3, 1, config)
    with pytest.raises(PreconditionError):
        enumerate_classes(2, 0, config)
    with pytest.raises(PreconditionError, match="jobs must be at least 1"):
        compatibility_graph(enumerate_classes(2, 1, config), config, jobs=0)


@pytest.mark.parametrize("n, message", [
    (1, "budget exhausted on 0 1 0 1"),
    (2, "budget exhausted on core (2, 0, 1, 2)"),
])
def test_enumerate_names_the_first_inexact_candidate(n, message):
    config = OracleConfig(budget=1, use_cache=False)
    with pytest.raises(extremal.EnumerationIncompleteError) as info:
        enumerate_classes(n, 4, config)
    assert str(info.value) == message


def test_evaluation_stops_at_the_first_inexact_candidate(alpha2, monkeypatch):
    """Candidates are evaluated in order up to the first whose query runs out
    of budget, which the error names."""
    config, k = OracleConfig(budget=1, use_cache=False), 4
    words = _candidates(2, k, config)
    first = next(i for i, w in enumerate(words)
                 if not oracle._solve(2, *oracle._self_form(2, "v", w.letters), config, k).exact)
    assert first + 1 < len(words)
    message = f"budget exhausted on core {words[first].inner()}"
    assert message == "budget exhausted on core (2, 0, 1, 2)"
    solved, solve = [], extremal._solve
    monkeypatch.setattr(extremal, "_solve", lambda *a: solved.append(a) or solve(*a))
    with pytest.raises(extremal.EnumerationIncompleteError) as info:
        enumerate_classes(2, k, config)
    assert str(info.value) == message and len(solved) == first + 1


def _candidates(n, k, config):
    """The words a catalog evaluates, in its order."""
    if n == 1:
        return extremal._enumerate_x_words(length_cap(k, 1))
    alphabet = GapAlphabet(2)
    return [Word.v_word(core) for core in
            extremal._collect_core_candidates(k, length_cap(k, 2), alphabet, config)]


@pytest.mark.parametrize("n", [1, 2])
def test_threshold_evaluation_agrees_with_exact(n, tmp_path, nocache_config):
    """Every catalog candidate's cutoff-k answer is the exact query's answer
    (value and witness bytes) below k, and an exact k with no witness at or
    above k, with no cache and with a cache that earlier k have warmed."""
    alphabet = GapAlphabet(n)
    warm = OracleConfig(cache_dir=tmp_path)
    exact = {}
    for k in range(1, 6):
        words = _candidates(n, k, nocache_config)
        for word in words:
            if word not in exact:
                exact[word] = oracle.self_intersection_number(word, alphabet, nocache_config)
        for config in (nocache_config, warm, warm):  # the first warm pass searches
            for word, got in zip(words, extremal._evaluate_words(words, k, alphabet, config)):
                want = exact[word]
                if want.value < k:
                    assert got.to_json() == want.to_json(), (word, k)
                else:
                    assert (got.value, got.exact, got.witness) == (k, True, None), (word, k)


def _unread(*args):
    raise AssertionError("a query built a form or read a witness")


def _no_forms_or_witnesses(monkeypatch):
    monkeypatch.setattr(oracle._Form, "of", _unread)
    monkeypatch.setattr(oracle.Drawing, "from_json", _unread)


@pytest.mark.parametrize("n", [1, 2])
def test_catalog_report_same_in_every_cache_state(n, tmp_path, nocache_config, monkeypatch):
    """No cache, a fresh cache, a warm one, and one in which `selfint` has
    replaced the `at_least` row of each candidate at or above k by its exact
    entry all give the same catalog bytes.  An exact entry at or above k
    answers a threshold query without its witness."""
    k = 5
    want = json.dumps(enumerate_classes(n, k, nocache_config).to_json())
    config = OracleConfig(cache_dir=tmp_path)
    assert json.dumps(enumerate_classes(n, k, config).to_json()) == want  # fresh
    assert json.dumps(enumerate_classes(n, k, config).to_json()) == want  # warm
    keys = {oracle._self_key(n, w.kind, w.letters)[0]: w for w in _candidates(n, k, config)}
    rows = cache_rows(tmp_path)
    dropped = [key for key in keys if "at_least" in json.loads(rows[key])]
    assert dropped
    for key in dropped:
        assert oracle.self_intersection_number(keys[key], GapAlphabet(n), config).value >= k
    rows = cache_rows(tmp_path)
    for key in dropped:
        entry = json.loads(rows[key])
        assert entry["exact"] and entry["value"] >= k
    assert json.dumps(enumerate_classes(n, k, config).to_json()) == want
    _no_forms_or_witnesses(monkeypatch)
    words = [keys[key] for key in dropped]
    assert all((res.value, res.exact, res.witness) == (k, True, None)
               for res in extremal._evaluate_words(words, k, GapAlphabet(n), config))


def test_warm_threshold_queries_read_only_the_cache(tmp_path, alpha2, monkeypatch):
    """A threshold query that a cache entry answers at or above its cutoff
    builds no form and parses no witness: the walk's queries answered by an
    `at_least` row, and the warm catalog's candidates at or above k.  Nor
    does a warm walk, whose verdicts never read a witness, also where an
    exact entry below k answers."""
    k = 4
    config = OracleConfig(cache_dir=tmp_path)
    enumerate_classes(2, k, config)
    asked, ask = [], extremal.segment_self_at_least
    monkeypatch.setattr(extremal, "segment_self_at_least",
                        lambda letters, *a: asked.append(letters) or ask(letters, *a))
    words = _candidates(2, k, config)
    rows = cache_rows(tmp_path)
    proved = [letters for letters in asked
              if "at_least" in json.loads(rows[oracle._self_key(2, "seg", letters)[0]])]
    dropped = [w for w, res in zip(words, extremal._evaluate_words(words, k, alpha2, config))
               if res.value >= k]
    assert proved and dropped
    _no_forms_or_witnesses(monkeypatch)
    assert all(ask(letters, k, alpha2, config) is True for letters in proved)
    assert all((res.value, res.exact, res.witness) == (k, True, None)
               for res in extremal._evaluate_words(dropped, k, alpha2, config))
    below = [letters for letters in asked
             if "exact" in json.loads(rows[oracle._self_key(2, "seg", letters)[0]])]
    assert below
    monkeypatch.setattr(oracle._Form, "back", _unread)
    assert _candidates(2, k, config) == words


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_walk_settles_prefixes_by_their_drawings(k, alpha2, nocache_config, monkeypatch):
    """Every prefix drawing the walk grows recounts to its count, and the
    oracle is asked only about prefixes not drawn below k."""
    grown, asked = {}, []
    grow, ask = extremal._grow_segment, extremal.segment_self_at_least

    def recorded_grow(drawn, letters):
        grown[letters] = out = grow(drawn, letters)
        return out

    def recorded_ask(letters, *args):
        asked.append(letters)
        return ask(letters, *args)

    monkeypatch.setattr(extremal, "_grow_segment", recorded_grow)
    monkeypatch.setattr(extremal, "segment_self_at_least", recorded_ask)
    extremal._collect_core_candidates(k, length_cap(k, 2), alpha2, nocache_config)
    assert grown
    for letters, (circle, count, _) in grown.items():
        assert oracle.count_crossings(circle_drawing(2, letters, circle), "self") == count
    assert all(letters not in grown or grown[letters][1] >= k for letters in asked)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_walk_matches_reference_walk(k, alpha2):
    """Settling prefixes by their drawings, and reading the cores below
    (2, 1) as the reflections of those below (2, 0), keeps every candidate
    of the walk that asks the oracle at every prefix of the whole tree, in
    the same order, also at budgets that leave prefixes undecided."""
    cap = length_cap(k, 2)
    for budget in (1, 3, 10, oracle.DEFAULT_BUDGET):
        config = OracleConfig(budget=budget, use_cache=False)
        assert (extremal._collect_core_candidates(k, cap, alpha2, config)
                == reference_core_candidates(k, cap, alpha2, config)), budget


def test_walk_visits_one_mirror_half(alpha2, nocache_config, monkeypatch):
    """No prefix below (2, 1) is grown or asked about, yet the candidates
    below (2, 1) are those below (2, 0) with 0 and 1 swapped."""
    k, seen, grow, ask = 5, [], extremal._grow_segment, extremal.segment_self_at_least
    monkeypatch.setattr(extremal, "_grow_segment",
                        lambda drawn, letters: seen.append(letters) or grow(drawn, letters))
    monkeypatch.setattr(extremal, "segment_self_at_least",
                        lambda letters, *a: seen.append(letters) or ask(letters, *a))
    cores = extremal._collect_core_candidates(k, length_cap(k, 2), alpha2, nocache_config)
    assert seen and all(letters[1:3] != (2, 1) for letters in seen)
    swap = {0: 1, 1: 0, 2: 2}
    below = {c: [core for core in cores if core[:2] == c] for c in ((2, 0), (2, 1))}
    assert below[(2, 0)] and cores == [(2,)] + below[(2, 0)] + below[(2, 1)]
    assert below[(2, 1)] == sorted(tuple(swap[a] for a in core) for core in below[(2, 0)])


def test_enumerate_stable_under_larger_cap(alpha2, config):
    """The prefix prunes terminate every branch well below the provable cap,
    so a walk to a larger cap finds the same candidates."""
    assert (extremal._collect_core_candidates(2, 60, alpha2, config)
            == extremal._collect_core_candidates(2, length_cap(2, 2), alpha2, config))


# -- compatibility graph -----------------------------------------------------------


def test_graph_single_vertex(config):
    catalog = enumerate_classes(1, 1, config)
    assert catalog.count == 3
    graph = compatibility_graph(catalog, config)
    assert len(graph.edges) == 3
    fb = family_bounds(graph)
    assert fb.exact


def test_graph_trivial_pair_edge(config, alpha2):
    catalog = enumerate_classes(2, 1, config)
    graph = compatibility_graph(catalog, config)
    # (v2v, N) and (v2v, S) meet only at the basepoint: edge present
    idx = {
        (e.loop_class.core, e.loop_class.start_hemisphere): i
        for i, e in enumerate(catalog.entries)
    }
    i = idx[((2,), NORTH)]
    j = idx[((2,), SOUTH)]
    edge = graph.edges[(min(i, j), max(i, j))]
    assert edge.present
    assert edge.value == 0
    assert graph.complete


@pytest.mark.parametrize("n", [1, 2])
def test_graph_jobs_match(nocache_config, n):
    # the workers get each distinct key's form, x-pair forms at n=1
    catalog = enumerate_classes(n, 2, nocache_config)
    g1 = compatibility_graph(catalog, nocache_config)
    g2 = compatibility_graph(catalog, nocache_config, jobs=2)
    assert g2.to_json() == g1.to_json()


def test_cached_jobs_match_sequential(tmp_path):
    """Forked graph workers write a fresh cache directory that the parent's
    catalog has already opened, each through its own connection: the reports
    and the stored rows equal those of one process."""
    runs = {}
    for jobs in (1, 2):
        config = OracleConfig(cache_dir=tmp_path / f"jobs{jobs}")
        catalog = enumerate_classes(2, 3, config)
        graph = compatibility_graph(catalog, config, jobs=jobs)
        runs[jobs] = catalog.to_json(), graph.to_json(), cache_rows(config.cache_dir)
    assert runs[2] == runs[1]
    assert len(runs[1][2]) > 70  # 82 rows


def test_jobs_workers_open_a_new_cache_together(tmp_path):
    """The workers of a `--jobs` pool that open a cache no process has opened
    yet each set its journal mode, at about the same time: none fails with
    "database is locked", as about one pool in ten did."""
    words = [(V, 0, V), (V, 2, V)]  # two keys: v 1 v is the reflection of v 0 v
    for attempt in range(50):
        config = OracleConfig(cache_dir=tmp_path / str(attempt))
        calls = [(2, *oracle._self_form(2, "v", w), config) for w in words]
        results = extremal._map(oracle._solve, calls, 2)
        assert [r.value for r in results] == [0, 0]
        assert len(cache_rows(config.cache_dir)) == 2


def test_jobs_pool_has_no_more_workers_than_calls_or_cpus(monkeypatch, nocache_config):
    """A process pool starts all its workers at its first call, so `_map`
    sizes it at the fewest of the jobs, the calls and the CPUs.  A stand-in
    pool records its size and maps in this process, so no worker starts."""
    import concurrent.futures

    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    for cpus, jobs, calls, size in ((8, 64, 3, 3), (8, 2, 5, 2), (4, 64, 100, 4), (None, 9, 9, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert extremal._map(pow, [(2, i) for i in range(calls)], jobs) == [2**i for i in range(calls)]
        assert sizes.pop() == size
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    catalog = enumerate_classes(2, 3, nocache_config)
    seq = compatibility_graph(catalog, nocache_config)
    assert compatibility_graph(catalog, nocache_config, jobs=1000).to_json() == seq.to_json()
    assert sizes == [2]


def test_batched_rows_match_rows_written_one_by_one(tmp_path, monkeypatch):
    """A catalog and its graph keep their cache writes in a batch.  Written
    one by one outside a batch, in one batch per stage, or flushed every
    seven rows, the same queries run the same searches and store the same
    rows: a read inside the batch sees the rows it has not written yet."""
    from loopforge import cache

    search = oracle.minimize_crossings
    runs = []
    for batched, rows in ((False, cache.BATCH_ROWS), (True, cache.BATCH_ROWS), (True, 7)):
        monkeypatch.setattr(cache, "BATCH_ROWS", rows)
        if not batched:
            monkeypatch.setattr(extremal, "batched_writes", contextlib.nullcontext)
        calls = []
        monkeypatch.setattr(oracle, "minimize_crossings",
                            lambda *a: calls.append(a) or search(*a))
        config = OracleConfig(cache_dir=tmp_path / str(len(runs)))
        catalog = enumerate_classes(2, 4, config)
        graph = compatibility_graph(catalog, config)
        runs.append((catalog.to_json(), graph.to_json(), len(calls), cache_rows(config.cache_dir)))
        monkeypatch.undo()
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert len(runs[0][3]) > 200  # 252 rows


def test_graph_searches_each_key_once(nocache_config, monkeypatch):
    """Pairs of one cache key share one answer: the k=4 graph has 780 pairs
    and 75 distinct keys (132 without the reflection through v), and even
    without a cache each is searched once, in the form of its first pair.  A
    pair whose image under the reflection came earlier reuses that pair's
    key, so keys are built once per orbit of pairs under the reflection."""
    catalog = enumerate_classes(2, 4, nocache_config)
    classes = [e.loop_class for e in catalog.entries]
    texts = [oracle._class_text(c, 2) for c in classes]
    pairs = list(itertools.combinations(range(len(classes)), 2))
    want = {}
    for i, j in pairs:
        key, form = oracle._pair_form(2, texts[i], texts[j])
        want.setdefault(key, form)
    swap = {0: 1, 1: 0, 2: 2}
    image = [classes.index(VLoopClass(tuple(swap[a] for a in c.core), c.start_hemisphere))
             for c in classes]
    orbits = {frozenset({(i, j), tuple(sorted((image[i], image[j])))}) for i, j in pairs}
    search, solve, pair_form = oracle.minimize_crossings, extremal._solve, extremal._pair_form
    searches, solved, formed = [], [], []
    monkeypatch.setattr(oracle, "minimize_crossings",
                        lambda *a: searches.append(a) or search(*a))
    monkeypatch.setattr(extremal, "_solve", lambda *a: solved.append(a[1:3]) or solve(*a))
    monkeypatch.setattr(extremal, "_pair_form", lambda *a: formed.append(a) or pair_form(*a))
    graph = compatibility_graph(catalog, nocache_config)
    assert len(graph.edges) == 780
    assert len(searches) == len(want) == 75
    assert solved == list(want.items())
    assert len(formed) == len(orbits) < len(pairs)


@pytest.mark.parametrize("n, k", [(2, 4), (1, 4)])
def test_graph_keys_are_pair_keys(config, nocache_config, n, k):
    # the graph asks one query per key, built from texts made once per
    # class: every edge is the answer of its own pair's query
    catalog = enumerate_classes(n, k, config)
    graph = compatibility_graph(catalog, config)
    alphabet = GapAlphabet(n)
    classes = [e.loop_class for e in catalog.entries]
    for (i, j), edge in graph.edges.items():
        res = oracle.pair_intersection_number(classes[i], classes[j], alphabet, nocache_config)
        assert (edge.value, edge.exact) == (res.value, res.exact), (classes[i], classes[j])


def test_warm_graph_reads_only_the_cache(tmp_path, monkeypatch):
    """A graph on a warm cache builds no form, and neither parses nor draws
    a witness."""
    config = OracleConfig(cache_dir=tmp_path)
    catalog = enumerate_classes(2, 4, config)
    want = compatibility_graph(catalog, config).to_json()
    _no_forms_or_witnesses(monkeypatch)
    monkeypatch.setattr(oracle._Form, "back", _unread)
    assert compatibility_graph(catalog, config).to_json() == want


def test_graph_rejects_mixed_kinds(config):
    v = enumerate_classes(2, 1, config).entries[0]
    x = enumerate_classes(1, 1, config).entries[0]
    for entries in ((v, x), (x, v)):
        with pytest.raises(PreconditionError, match="different kinds"):
            compatibility_graph(extremal.ClassCatalog(2, 1, 1, entries, 0), config)


# -- cliques ------------------------------------------------------------------------


def test_max_clique_complete_graph():
    neigh = {i: {j for j in range(5) if j != i} for i in range(5)}
    clique, exact = max_clique(neigh)
    assert exact and len(clique) == 5


def test_max_clique_edgeless():
    neigh = {i: set() for i in range(4)}
    clique, exact = max_clique(neigh)
    assert exact and len(clique) == 1


def test_max_clique_structured():
    # two triangles sharing one vertex
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    neigh = {i: set() for i in range(5)}
    for a, b in edges:
        neigh[a].add(b)
        neigh[b].add(a)
    clique, exact = max_clique(neigh)
    assert exact and len(clique) == 3


def _neighbors(size, edges):
    neigh = {i: set() for i in range(size)}
    for a, b in edges:
        neigh[a].add(b)
        neigh[b].add(a)
    return neigh


def test_max_clique_beats_greedy():
    """The greedy clique takes vertex 2, of highest degree, then 0, and can
    add no third vertex; the search must find the larger clique {1, 2, 4}."""
    neigh = _neighbors(5, [(0, 2), (0, 3), (1, 2), (1, 4), (2, 4)])
    assert sorted(extremal._greedy_clique(neigh)) == [0, 2]
    clique, exact = max_clique(neigh)
    assert exact and sorted(clique) == [1, 2, 4]


def test_max_clique_matches_brute_force():
    """On small random graphs the search finds a clique as large as the
    largest vertex subset whose vertices are all adjacent, on some of them
    larger than the greedy clique."""
    rng = random.Random(97)
    beaten = 0
    for _ in range(300):
        size = rng.randint(0, 9)
        density = rng.random()
        neigh = _neighbors(size, [(i, j) for i, j in itertools.combinations(range(size), 2)
                                  if rng.random() < density])

        def is_clique(vertices):
            return all(b in neigh[a] for a, b in itertools.combinations(vertices, 2))

        largest = max(r for r in range(size + 1)
                      if any(map(is_clique, itertools.combinations(range(size), r))))
        clique, exact = max_clique(neigh)
        assert exact and is_clique(clique) and len(set(clique)) == len(clique) == largest
        beaten += largest > len(extremal._greedy_clique(neigh))
    assert beaten > 0


def test_family_bounds_on_empty_graph(config):
    catalog = extremal.ClassCatalog(2, 1, 1, (), 0)
    graph = compatibility_graph(catalog, config)
    assert graph.edges == {} and graph.complete
    assert family_bounds(graph) == FamilyBounds(0, 0, True)


def test_family_bounds_on_catalog(config):
    catalog = enumerate_classes(1, 2, config)
    graph = compatibility_graph(catalog, config)
    fb = family_bounds(graph)
    assert fb.exact
    assert fb.clique_upper is not None
    assert fb.clique_found <= fb.clique_upper <= catalog.count
    # the catalog size matches the closed-form family cap for one puncture
    assert catalog.count == 2 * 2 + 1


def test_family_bounds_greedy_fallback(config, monkeypatch):
    """Past the node limit the clique search keeps the greedy clique and
    claims no upper bound.  On a 5-cycle the coloring bound (3) exceeds the
    greedy clique (2), so the search must go below its root."""
    catalog = enumerate_classes(1, 2, config)
    cycle = {(i, (i + 1) % 5) for i in range(5)}
    edges = {
        (i, j): GraphEdge(0, True, (i, j) in cycle or (j, i) in cycle)
        for i in range(5)
        for j in range(i + 1, 5)
    }
    graph = CompatibilityGraph(catalog, edges)
    assert family_bounds(graph) == FamilyBounds(2, 2, True)
    monkeypatch.setattr(extremal, "CLIQUE_NODE_LIMIT", 1)
    assert family_bounds(graph) == FamilyBounds(2, None, False)


# -- growth report --------------------------------------------------------------------


def test_growth_report_rows(config):
    rows = growth_report(2, config)
    assert [row["k"] for row in rows] == [1, 2]
    for row in rows:
        assert row["classCountN2"] >= row["classCountN1"]
        assert row["fUpperDoubleExpExponent"] == (2 * row["k"]) ** 4
        float(row["lnCountOverSqrtK"])  # parses as a number
    assert rows[0]["classCountN2"] <= rows[1]["classCountN2"]
    # the rows count the kmax catalogs below each k
    for row in rows:
        assert row["classCountN2"] == enumerate_classes(2, row["k"], config).count
        assert row["classCountN1"] == enumerate_classes(1, row["k"], config).count
