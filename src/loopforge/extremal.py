"""Exhaustive catalogs of loop classes with bounded self-crossing number.

For one puncture the reduced words are the alternating two-letter words, so
the catalog enumerates winding depths directly.  For two punctures the
catalog walks all reduced core words (ends in letter 2) depth-first,
pruning by the winding lower bound of the prefix and by a thresholded
oracle run on the basepoint-anchored prefix segment; both prunes are sound,
so the walk is exhaustive up to the provable length cap.  The walk draws
each anchored prefix by growing its parent's drawing by one point; a prefix
drawn with fewer than k crossings is below k, so the oracle is asked only
about prefixes whose grown drawing has k or more.  The walk visits one
mirror half of the prefix tree, the cores beginning `2 0`: the reflection
through v swaps letters 0 and 1, keeps every crossing minimum and every
prune, and so reads the cores beginning `2 1` off that half.  Each
candidate is a threshold query at k as well: its exact minimum and witness
below k, evaluated in order up to the first that runs out of budget.

Pairwise-compatibility graphs and clique sizes probe the extremal family
sizes.  A clique upper bound is honest in one direction only: any valid
family induces a clique, so the family size is at most the clique number;
the found clique is not claimed to be realizable as a joint drawing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .bounds import block_obstacles, depth_family_bound, double_exp_exponent
from .cache import BATCH_ROWS, batched_writes, flush_batch
from .canon import LoopClass, VLoopClass, XLoopClass
from .expansion import tail_cap
from .oracle import (
    CrossingCount,
    Drawing,
    OracleConfig,
    _class_text,
    _grow_segment,
    _pair_form,
    _reflect,
    _seg_texts,
    _segment_start,
    _self_form,
    _solve,
)
from .words import (
    NORTH,
    SOUTH,
    GapAlphabet,
    PreconditionError,
    V,
    Word,
)


class EnumerationIncompleteError(RuntimeError):
    """The oracle budget ran out on a candidate; no count is reported."""


def expansion_letter_budget(k: int) -> int:
    """Letters one pair's expansions can add to a core word staying below k
    forced crossings: twice the total repeat count, which is bounded both by
    k-1 and by the sum of the tail caps floor(sqrt(k/t))."""
    return 2 * min(k - 1, sum(tail_cap(k, t) for t in range(1, k + 1)))


def length_cap(k: int, n: int) -> int:
    """Provable cap on the length of a reduced word with self-crossing
    number below k.

    n=1: reduced words alternate in the two gaps, so classes are winding
    depths; depth d needs d-1 crossings, and the single-puncture family
    bound 2k+1 pins the catalog to depths |d| <= k, i.e. 2k letters.  The
    cap 2(k+1) includes the first excluded depth.

    n=2: a word below k has at most floor(4*sqrt(k)) maximal two-letter
    subwords per pair (more would force k crossings via windings or
    opposite-polarity arc pairs); a period-2-free core with at most
    3*floor(4*sqrt(k)) maximal subwords has at most 6*floor(4*sqrt(k)) + 1
    letters (three for the first subword, two more for each of the rest),
    and each pair's expansions add at most expansion_letter_budget(k).
    """
    if k < 1:
        raise PreconditionError("k must be at least 1")
    if n == 1:
        return 2 * (k + 1)
    if n == 2:  # math.isqrt(16 * k) is floor(4 sqrt k)
        return 6 * math.isqrt(16 * k) + 1 + 3 * expansion_letter_budget(k)
    raise PreconditionError("catalogs support n in {1, 2}")


@dataclass(frozen=True)
class CatalogEntry:
    loop_class: LoopClass
    selfint: int
    exact: bool
    witness: Drawing | None

    def to_json(self) -> dict:
        return {
            "class": self.loop_class.to_json(),
            "selfint": self.selfint,
            "exact": self.exact,
            "witness": self.witness.to_json() if self.witness else None,
        }


@dataclass(frozen=True)
class ClassCatalog:
    n: int
    k: int
    length_cap: int
    entries: tuple[CatalogEntry, ...]
    count_uncertainty: int

    @property
    def count(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "lengthCap": self.length_cap,
            "count": self.count,
            "countUncertainty": self.count_uncertainty,
            "exact": all(e.exact for e in self.entries),
            "entries": [e.to_json() for e in self.entries],
        }


def prefix_winding_lb(wind: tuple) -> int:
    """Winding lower bound every completed core word of a prefix inherits,
    from the prefix's winding state `wind` (:func:`_wound`).

    Core words start and end in a letter outside {0, 1}, so every maximal
    two-letter block of the prefix ends up bordered validly in any
    completion, with at least its current depth.  As in
    :func:`loopforge.bounds.winding_self_lower_bound`, obstacles do not
    combine additively; the bound is the best single obstacle's.
    """
    closed, best, opened, length = wind
    depth = (length - 1) // 2
    for o in opened if depth else ():
        best = max(best, depth_family_bound(closed[o] + (depth,)))
    return best


def _winding_start(n: int) -> tuple:
    """The winding state of a one-letter prefix: no block yet."""
    return ((),) * (n + 1), 0, (), 1


def _wound(wind: tuple, prefix: tuple[int, ...], letter: int, n: int) -> tuple:
    """The winding state of the reduced word `prefix + (letter,)`, from the
    state `wind` of `prefix`: per obstacle the depths of its closed maximal
    two-letter blocks, the best bound of one obstacle's closed depths, and
    the obstacles and length of the open block, over the last two letters.
    The last two letters end every other block, so a letter either extends
    the open block or closes it and opens the block of the last letter and
    itself."""
    closed, best, opened, length = wind
    if prefix[-2:-1] == (letter,):
        return closed, best, opened, length + 1
    depth = (length - 1) // 2
    if depth and opened:
        closed = list(closed)
        for o in opened:
            closed[o] += (depth,)
            best = max(best, depth_family_bound(closed[o]))
        closed = tuple(closed)
    last = prefix[-1]
    return closed, best, block_obstacles(min(last, letter), max(last, letter), n), 2


def _map(fn, calls: list[tuple], jobs: int) -> list:
    """`[fn(*args) for args in calls]`, run in a pool of processes when there
    is more than one job and more than one call.  The pool starts all its
    processes at the first call, so it has no more than there are jobs,
    calls or CPUs.  The rows of an open cache batch are written first, so
    the workers read them."""
    if jobs <= 1 or len(calls) <= 1:
        return [fn(*args) for args in calls]
    flush_batch()
    from concurrent.futures import ProcessPoolExecutor  # loaded only by a run that forks

    with ProcessPoolExecutor(max_workers=min(jobs, len(calls), os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, *zip(*calls)))


def _evaluate_words(
    words: list[Word], k: int, alphabet: GapAlphabet, config: OracleConfig
) -> list[CrossingCount]:
    """Each word's threshold query at k: its exact minimum below k, up to
    the first word whose query runs out of budget, that one too.  Words of
    one key, such as a core and its reversal, share one read and one search."""
    n, store = alphabet.n, config.store()
    queries = [_self_form(n, w.kind, w.letters) for w in words]
    entries = store.get_many([key for key, _ in queries]) if store else {}
    results = []
    for key, form in queries:
        results.append(_solve(n, key, form, config, k, True, entries))
        if not results[-1].exact:
            break
    return results


def _enumerate_x_words(cap: int) -> list[Word]:
    words = [Word.x_word(())]
    for depth in range(1, cap // 2 + 1):
        words.append(Word.x_word((0, 1) * depth))
        words.append(Word.x_word((1, 0) * depth))
    return words


def _collect_core_candidates(
    k: int, cap: int, alphabet: GapAlphabet, config: OracleConfig
) -> list[tuple[int, ...]]:
    """Depth-first walk over reduced core words (start and end letter 2), in
    lexicographic order.

    Each anchored prefix `(V,) + prefix` is drawn by growing its parent's
    drawing by one point.  A drawing with fewer than k crossings shows that
    the prefix is below k, so the oracle is asked only about prefixes whose
    grown drawing has k or more; growing only adds crossings, so below such
    a prefix no more drawings are grown.  Each prefix hands its children its
    winding state, its drawing and its letter strings (`_seg_texts`), so
    none is rebuilt from the letters.

    Only the root `(2,)` and the subtree below `(2, 0)` are walked.  The
    reflection σ_2 through v keeps 2 and swaps 0 and 1, so it maps that
    subtree onto the one below `(2, 1)`, and a prefix and its image are
    pruned alike: their winding bounds only relabel obstacles, and they
    share the oracle's cache key, so the oracle's verdict.  The candidates
    below `(2, 1)` are the images of those below `(2, 0)`, sorted."""
    candidates: list[tuple[int, ...]] = []
    n = alphabet.n

    def walk(prefix: tuple[int, ...], wind: tuple, drawn: tuple | None, texts: tuple,
             letters: tuple[int, ...] = (0, 1, 2)) -> None:
        # drawn: a drawing of the anchored parent prefix (`_grow_segment`) while
        # its crossings are below k, else None; texts: its `_seg_texts`
        if prefix_winding_lb(wind) >= k:
            return
        anchored = (V,) + prefix
        texts = _seg_texts(texts, prefix[-1], n)
        if drawn is not None:
            drawn = _grow_segment(drawn, anchored)
            if drawn[1] >= k:
                drawn = None
        if drawn is None and len(prefix) >= 4:  # as `segment_self_at_least` asks
            res = _solve(n, *_self_form(n, "seg", anchored, texts), config, k, False)
            if res.exact and res.value >= k:
                return
        if prefix[-1] == 2:
            candidates.append(prefix)
        if len(prefix) >= cap:
            return
        for letter in letters:
            if letter != prefix[-1]:
                walk(prefix + (letter,), _wound(wind, prefix, letter, n), drawn, texts)

    walk((2,), _winding_start(n), _segment_start(n), ("v",) * 4, (0,))
    # every candidate but the root lies below (2, 0)
    return candidates + sorted(_reflect(core, n) for core in candidates[1:])


def enumerate_classes(
    n: int,
    k: int,
    config: OracleConfig = OracleConfig(),
) -> ClassCatalog:
    """All loop classes with exact oracle self-crossing number below k, up
    to the provable length cap: x-classes for n=1, both-polarity v-classes
    for n=2.

    Raises :class:`EnumerationIncompleteError` at the first candidate that
    exhausts the oracle budget, whose later candidates are not evaluated; a
    truncated count is never reported.
    """
    if k < 1:
        raise PreconditionError("k must be at least 1")
    cap = length_cap(k, n)
    alphabet = GapAlphabet(n)
    with batched_writes():
        if n == 1:
            words = _enumerate_x_words(cap)
            kept = []
        else:
            words = [Word.v_word(core)
                     for core in _collect_core_candidates(k, cap, alphabet, config)]
            kept = [(Word.v_word(()), 0, None)]
        results = _evaluate_words(words, k, alphabet, config)
    for word, res in zip(words, results):
        if not res.exact:
            name = word if n == 1 else f"core {word.inner()}"
            raise EnumerationIncompleteError(f"budget exhausted on {name}")
        if res.value < k:
            kept.append((word, res.value, res.witness))

    if n == 1:  # the words are listed by length, then by letters
        entries = [CatalogEntry(XLoopClass(word.letters), value, True, witness)
                   for word, value, witness in kept]
        return ClassCatalog(n, k, cap, tuple(entries), 0)
    entries = [CatalogEntry(VLoopClass(word.inner(), hemisphere), value, True, witness)
               for word, value, witness in kept for hemisphere in (NORTH, SOUTH)]
    entries.sort(key=lambda e: (len(e.loop_class.core), e.loop_class.core,
                                e.loop_class.start_hemisphere))
    # the two polarity tags of the empty core may name one class
    return ClassCatalog(n, k, cap, tuple(entries), 1)


# -- pairwise compatibility ----------------------------------------------------


@dataclass(frozen=True)
class GraphEdge:
    value: int
    exact: bool
    present: bool


@dataclass(frozen=True)
class CompatibilityGraph:
    """Classes as vertices; an edge when the pair oracle stays below k.

    An edge whose oracle call exhausted the budget with a value >= k is kept
    present (pessimistically, so clique numbers stay valid upper bounds for
    family sizes) and the graph is flagged incomplete.
    """

    catalog: ClassCatalog
    edges: dict[tuple[int, int], GraphEdge]

    @property
    def complete(self) -> bool:
        return all(e.exact for e in self.edges.values())

    def neighbors(self) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {i: set() for i in range(self.catalog.count)}
        for (i, j), edge in self.edges.items():
            if edge.present:
                out[i].add(j)
                out[j].add(i)
        return out

    def to_json(self) -> dict:
        return {
            "n": self.catalog.n,
            "k": self.catalog.k,
            "vertices": [e.loop_class.to_json() for e in self.catalog.entries],
            "exact": self.complete,
            "edges": [
                {"i": i, "j": j, "value": e.value, "exact": e.exact, "present": e.present}
                for (i, j), e in sorted(self.edges.items())
            ],
        }


def _images(c: LoopClass, n: int) -> tuple[LoopClass, ...]:
    """A class's images under σ_n, under μ, which mirrors both hemispheres of
    a v-class, and under both; an x-class has no hemisphere, so μ keeps it."""
    if isinstance(c, XLoopClass):
        return (XLoopClass(_reflect(c.reduced, n)),)
    core, hemisphere = _reflect(c.core, n), c.start_hemisphere
    mirror = SOUTH if hemisphere == NORTH else NORTH
    return VLoopClass(core, hemisphere), VLoopClass(c.core, mirror), VLoopClass(core, mirror)


def compatibility_graph(
    catalog: ClassCatalog,
    config: OracleConfig = OracleConfig(),
    jobs: int = 1,
) -> CompatibilityGraph:
    if jobs < 1:
        raise PreconditionError("jobs must be at least 1")
    n, count, store = catalog.n, catalog.count, config.store()
    classes = [e.loop_class for e in catalog.entries]
    texts = [_class_text(c, n) for c in classes]
    # the index of each class and of each of its images (`_images`), -1 for
    # one the catalog does not hold: a pair and its images share one key
    index = {c: i for i, c in enumerate(classes)}
    images = [[i] + [index.get(image, -1) for image in _images(c, n)]
              for i, c in enumerate(classes)]
    # keys[i][j], for i < j: the key of the pair (i, j).  Pairs of one key
    # share one answer, so only the first form of each key is searched or
    # read, and no witness is drawn.  The first pair of each orbit of pairs
    # builds the key of all its pairs.
    keys, forms = [{} for _ in range(count)], {}
    for i, row in enumerate(keys):
        for j in range(i + 1, count):
            if j not in row:
                key, form = _pair_form(n, texts[i], texts[j])
                forms.setdefault(key, form)
                for a, b in zip(images[i], images[j]):
                    if a > b:
                        a, b = b, a
                    if a >= 0:
                        keys[a][b] = key
    calls = [(n, key, form, config, None, False) for key, form in forms.items()]
    with batched_writes():
        if jobs > 1:  # each worker reads its keys one by one
            results = _map(_solve, calls, jobs)
        else:  # the keys are read BATCH_ROWS at once, and their entries kept that long
            results = []
            for i in range(0, len(calls), BATCH_ROWS):
                chunk = calls[i:i + BATCH_ROWS]
                entries = store.get_many([call[1] for call in chunk]) if store else {}
                results += [_solve(*call, entries) for call in chunk]
    edges = {key: GraphEdge(res.value, res.exact, res.value < catalog.k or not res.exact)
             for key, res in zip(forms, results)}
    return CompatibilityGraph(catalog, {(i, j): edges[keys[i][j]] for i in range(count)
                                        for j in range(i + 1, count)})


# -- clique bounds --------------------------------------------------------------


@dataclass(frozen=True)
class FamilyBounds:
    clique_found: int
    clique_upper: int | None
    exact: bool

    def to_json(self) -> dict:
        return {
            "cliqueFound": self.clique_found,
            "cliqueUpper": self.clique_upper,
            "exact": self.exact,
        }


# nodes the exact clique search may visit before it keeps the greedy clique
CLIQUE_NODE_LIMIT = 1_000_000


def _greedy_clique(neigh: dict[int, set[int]]) -> list[int]:
    order = sorted(neigh, key=lambda v: (-len(neigh[v]), v))
    clique: list[int] = []
    for v in order:
        if all(v in neigh[u] for u in clique):
            clique.append(v)
    return clique


def max_clique(neigh: dict[int, set[int]]) -> tuple[list[int], bool]:
    """Exact maximum clique by branch and bound with greedy coloring;
    returns (clique, exact).  Falls back to the greedy clique when the
    search visits more than CLIQUE_NODE_LIMIT nodes."""
    best = _greedy_clique(neigh)
    nodes = 0

    def color_bound(cands: list[int]) -> dict[int, int]:
        colors: dict[int, int] = {}
        classes: list[set[int]] = []
        for v in cands:
            for c, cls in enumerate(classes):
                if not (neigh[v] & cls):
                    cls.add(v)
                    colors[v] = c + 1
                    break
            else:
                classes.append({v})
                colors[v] = len(classes)
        return colors

    def expand(clique: list[int], cands: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > CLIQUE_NODE_LIMIT:
            raise TimeoutError
        if not cands:
            if len(clique) > len(best):
                best = list(clique)
            return
        colors = color_bound(cands)
        ordered = sorted(cands, key=lambda v: colors[v])
        for idx in range(len(ordered) - 1, -1, -1):
            v = ordered[idx]
            if len(clique) + colors[v] <= len(best):
                return
            expand(clique + [v], [u for u in ordered[:idx] if u in neigh[v]])

    try:
        expand([], sorted(neigh))
        return best, True
    except TimeoutError:
        return best, False


def family_bounds(graph: CompatibilityGraph) -> FamilyBounds:
    """Clique sizes of the compatibility graph.

    The true extremal family size is at most `clique_upper` (any valid
    family induces a clique); `clique_found` is not claimed to bound it
    from below, since joint realizability of the drawings is not checked.
    """
    clique, exact = max_clique(graph.neighbors())
    return FamilyBounds(len(clique), len(clique) if exact else None, exact)


# -- growth summary --------------------------------------------------------------


def growth_report(
    kmax: int,
    config: OracleConfig = OracleConfig(),
) -> list[dict[str, object]]:
    """Rows (k, two-puncture class count, single-puncture count, normalized
    log growth, double-exponential upper bound exponent) for k = 1..kmax.

    A consistency report only: the asymptotic growth claims are not
    verifiable at these sizes, so no thresholds are asserted.  Every class
    below k is no longer than length_cap(k) <= length_cap(kmax), so the
    catalogs for kmax hold the classes of every row.
    """
    if kmax < 1:
        return []
    cat2 = enumerate_classes(2, kmax, config)
    cat1 = enumerate_classes(1, kmax, config)
    rows = []
    for k in range(1, kmax + 1):
        count2 = sum(e.selfint < k for e in cat2.entries)
        rows.append(
            {
                "k": k,
                "classCountN2": count2,
                "countUncertainty": cat2.count_uncertainty,
                "classCountN1": sum(e.selfint < k for e in cat1.entries),
                "lnCountOverSqrtK": f"{math.log(count2) / math.sqrt(k):.6f}",
                "fUpperDoubleExpExponent": double_exp_exponent(2, k),
                "exact": True,
            }
        )
    return rows
