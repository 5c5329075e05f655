import contextlib
import inspect
import io
import itertools
import json
import math
import multiprocessing
import os
import random
import shutil
import sys
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import naive_reference as naive
from cache_rows import cache_rows, write_row
from reference_walk import circle_drawing, reference_core_candidates
from segment_queries import segment_pair, segment_self
from loopforge import (
    CrossingCount,
    CurveSpec,
    Drawing,
    GapAlphabet,
    OracleConfig,
    PreconditionError,
    VLoopClass,
    Word,
    XLoopClass,
    canon_v,
    compatibility_graph,
    count_crossings,
    enumerate_classes,
    length_cap,
    minimize_crossings,
    pair_intersection_number,
    parse_word,
    reduce_word,
    segment_self_at_least,
    self_intersection_number,
)
from loopforge import oracle
from loopforge.cache import default_cache_dir
from loopforge.oracle import _cross, _open_text, _pair_form
from loopforge.words import NORTH, SOUTH, V, format_letter


def _selfint_v(inner, config, n=2):
    return self_intersection_number(Word.v_word(inner), GapAlphabet(n), config)


# -- count_crossings on fixed drawings ------------------------------------------


def _two_chord_drawing(gap1_order):
    # two one-chord segments crossing from gap 0 to gap 1
    curves = (CurveSpec((0, 1), False, NORTH), CurveSpec((0, 1), False, NORTH))
    return Drawing(
        n=1,
        curves=curves,
        gap_orders={0: ((0, 0), (1, 0)), 1: gap1_order},
    )


def test_count_crossings_interleaved_vs_nested():
    # endpoints alternating around the circle cross; nested endpoints do not
    assert count_crossings(_two_chord_drawing(((0, 1), (1, 1)))) == 1
    assert count_crossings(_two_chord_drawing(((1, 1), (0, 1)))) == 0


def test_count_crossings_shared_basepoint():
    # both chords leave the basepoint: they never cross
    curves = (CurveSpec((V, 0, V), False, NORTH), )
    d = Drawing(n=1, curves=curves, gap_orders={0: ((0, 1),), 1: ()})
    assert count_crossings(d) == 0


def test_count_crossings_rejects_malformed():
    curves = (CurveSpec((0, 1), True, NORTH),)
    d = Drawing(n=1, curves=curves, gap_orders={0: ((0, 0),), 1: ((1, 5),)})
    with pytest.raises(PreconditionError):
        count_crossings(d)


def test_grown_segments_recount():
    """A segment drawing grown letter by letter from the basepoint puts each
    new crossing at the cheapest position in its gap, the lowest on ties, and
    its count is always the recount of its drawing."""
    rng = random.Random(14)
    for _ in range(60):
        n = rng.choice((1, 2, 3))
        blocks = [0, V, *range(1, n + 1)]  # the equator order
        letters, drawn = (V,), oracle._segment_start(n)
        for _ in range(rng.randint(1, 12)):
            g = rng.randint(0, n)
            letters += (g,)
            m = len(letters) - 1
            circle = drawn[0]
            first = sum(blocks.index(letters[p]) < blocks.index(g) for p in circle)
            size = sum(letters[p] == g for p in circle)
            costs = [count_crossings(circle_drawing(n, letters, circle[:t] + (m,) + circle[t:]),
                                     "self")
                     for t in range(first, first + size + 1)]
            drawn = oracle._grow_segment(drawn, letters)
            assert [blocks.index(letters[p]) for p in drawn[0]] == sorted(
                blocks.index(letters[p]) for p in drawn[0])
            assert count_crossings(circle_drawing(n, letters, drawn[0]), "self") == drawn[1]
            assert drawn[1] == min(costs)
            assert drawn[0].index(m) == first + costs.index(min(costs))


# -- frozen oracle values --------------------------------------------------------


def test_selfint_winding_ladder(config):
    # winding depth m around the single puncture needs m - 1 crossings
    for m in range(0, 6):
        res = self_intersection_number(
            Word.x_word((0, 1) * m), GapAlphabet(1), config
        )
        assert res.exact
        assert res.value == max(0, m - 1), m


def test_selfint_fixed_values(config):
    expected = {
        (2,): 0,
        (0, 1, 2): 1,
        (2, 1, 2): 1,
        (2, 0, 2): 1,
        (2, 0, 1, 2): 2,
        (2, 1, 0, 2): 2,
        (2, 0, 1, 0, 1, 0, 1, 2): 8,
        (2, 0, 2, 1, 2, 0, 2): 5,
    }
    for inner, value in expected.items():
        res = _selfint_v(inner, config)
        assert res.exact
        assert res.value == value, inner


def test_selfint_deep_winding_forced(config, alpha2):
    # the depth-2 alternating block around the basepoint forces crossings
    res = _selfint_v((2, 0, 1, 0, 1, 0, 1, 2), config)
    assert res.value >= 2


def test_trivial_words(config):
    assert _selfint_v((), config).value == 0
    assert self_intersection_number(Word.x_word(()), GapAlphabet(2), config).value == 0


def test_witness_consistency(config):
    for inner in [(2,), (2, 0, 1, 2), (2, 0, 1, 0, 1, 0, 1, 2)]:
        res = _selfint_v(inner, config)
        assert count_crossings(res.witness, "self") == res.value


def test_pair_fixed_values(config, alpha2):
    north = VLoopClass((2,), NORTH)
    south = VLoopClass((2,), SOUTH)
    assert pair_intersection_number(north, south, alpha2, config).value == 0
    assert pair_intersection_number(north, north, alpha2, config).value == 0
    trivial = VLoopClass((), NORTH)
    assert pair_intersection_number(north, trivial, alpha2, config).value == 0


def test_pair_witness_consistency(config, alpha2):
    c1 = VLoopClass((2, 0, 2), NORTH)
    c2 = VLoopClass((2, 1, 2), NORTH)
    res = pair_intersection_number(c1, c2, alpha2, config)
    assert res.exact
    assert count_crossings(res.witness, "inter") == res.value


def test_pair_kind_mismatch(config, alpha2):
    with pytest.raises(PreconditionError):
        pair_intersection_number(
            XLoopClass(()), VLoopClass((), NORTH), alpha2, config
        )


def test_segment_pair_example(config, alpha2):
    # the two-letter segments 01 and v2 always cross
    res = segment_pair((0, 1), (V, 2), NORTH, NORTH, alpha2, config)
    assert res.exact
    assert res.value == 1


# -- randomized equality against the brute-force reference -----------------------


def test_matches_reference_v_words(nocache_config, alpha2):
    rng = random.Random(101)
    for _ in range(60):
        inner = [rng.choice((0, 1, 2)) for _ in range(rng.randint(0, 7))]
        got = _selfint_v(tuple(inner), nocache_config)
        assert got.exact
        assert got.value == naive.self_v(inner), inner
        assert count_crossings(got.witness, "self") == got.value


def test_matches_reference_x_words(nocache_config):
    rng = random.Random(103)
    for _ in range(60):
        letters = [rng.choice((0, 1, 2)) for _ in range(2 * rng.randint(1, 3))]
        got = self_intersection_number(
            Word.x_word(tuple(letters)), GapAlphabet(2), nocache_config
        )
        assert got.exact
        assert got.value == naive.self_x(letters, n=2), letters


def test_matches_reference_segments(nocache_config, alpha2):
    rng = random.Random(107)
    for _ in range(40):
        letters = tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(2, 6)))
        got = segment_self(letters, alpha2, nocache_config)
        assert got.exact
        assert got.value == naive.self_segment(letters), letters


def test_matches_reference_pairs(nocache_config, alpha2):
    rng = random.Random(109)
    for _ in range(40):
        w1 = [rng.choice((0, 1, 2)) for _ in range(rng.randint(1, 4))]
        w2 = [rng.choice((0, 1, 2)) for _ in range(rng.randint(1, 4))]
        h1, h2 = rng.choice((NORTH, SOUTH)), rng.choice((NORTH, SOUTH))
        c1, c2 = VLoopClass(tuple(w1), h1), VLoopClass(tuple(w2), h2)
        got = pair_intersection_number(c1, c2, alpha2, nocache_config)
        want = naive.pair(
            ([V] + w1 + [V], False, 0 if h1 == NORTH else 1),
            ([V] + w2 + [V], False, 0 if h2 == NORTH else 1),
        )
        assert got.exact
        assert got.value == want, (w1, h1, w2, h2)


def test_x_pair_minimizes_relative_hemisphere(nocache_config):
    rng = random.Random(113)
    for _ in range(25):
        w1 = [rng.choice((0, 1)) for _ in range(2 * rng.randint(1, 2))]
        w2 = [rng.choice((0, 1)) for _ in range(2 * rng.randint(1, 2))]
        c1 = XLoopClass(tuple(w1))
        c2 = XLoopClass(tuple(w2))
        got = pair_intersection_number(c1, c2, GapAlphabet(1), nocache_config)
        want = min(
            naive.pair((w1, True, 0), (w2, True, h), n=1) for h in (0, 1)
        )
        assert got.value == want, (w1, w2)


@st.composite
def _instances(draw):
    """A small drawing instance: n, curves and tally.  At most six crossing
    points in all keep the brute-force reference fast."""
    n = draw(st.integers(1, 3))
    tally = draw(st.sampled_from(("self", "inter")))
    count = 2 if tally == "inter" else draw(st.integers(1, 2))
    curves = []
    for _ in range(count):
        letters = draw(st.lists(st.integers(0, n), min_size=1, max_size=6 // count))
        closed = draw(st.booleans())
        if closed:
            letters = letters[:len(letters) // 2 * 2]
        else:
            letters = [V] * draw(st.booleans()) + letters + [V] * draw(st.booleans())
        curves.append(CurveSpec(tuple(letters), closed, draw(st.sampled_from((NORTH, SOUTH)))))
    return n, tuple(curves), tally


def _plain(curves):
    return [(list(c.letters), c.closed, 0 if c.hemisphere == NORTH else 1) for c in curves]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_instances())
def test_minimize_matches_reference(instance):
    n, curves, tally = instance
    value, witness, exact = minimize_crossings(n, curves, tally)
    assert exact
    assert value == naive.minimize(_plain(curves), n, tally)
    assert count_crossings(witness, tally) == value


def _flip(hemisphere, parity):
    return (NORTH, SOUTH)[(hemisphere == SOUTH) ^ parity]


def _reflected(letters, n):
    """The letters of the curve reflected through v, which reverses the
    equator (0, v, 1, 2, ..., n) and keeps both hemispheres: 0 and 1 trade
    places, and 2..n run backwards."""
    return tuple(a if a == V else 1 - a if a < 2 else n + 2 - a for a in letters)


def _symmetric_forms(curves, rotation, n):
    """Curve tuples that differ from `curves` by a symmetry the cache keys
    rely on: each curve reversed, each closed curve rotated by `rotation`,
    the curves swapped, every hemisphere mirrored, every curve reflected
    through v."""
    for i, c in enumerate(curves):
        # chord j of an m-letter curve lies in hemisphere h + j, and the
        # reversal starts on chord m - 2: hemisphere h + m, which keeps h for
        # a closed curve (m even)
        rev = CurveSpec(c.letters[::-1], c.closed, _flip(c.hemisphere, len(c.letters) % 2))
        yield curves[:i] + (rev,) + curves[i + 1:]
        if c.closed and c.letters:
            r = rotation % len(c.letters)
            rot = CurveSpec(
                c.letters[r:] + c.letters[:r], True, _flip(c.hemisphere, r % 2)
            )
            yield curves[:i] + (rot,) + curves[i + 1:]
    if len(curves) == 2:
        yield curves[::-1]
    yield tuple(CurveSpec(c.letters, c.closed, _flip(c.hemisphere, 1)) for c in curves)
    yield tuple(CurveSpec(_reflected(c.letters, n), c.closed, c.hemisphere) for c in curves)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_instances(), st.integers(1, 5))
# the drawn closed curves of inter instances have two letters, where either
# hemisphere gives one drawing; this one needs the right reversal rule
@example(
    (2, (CurveSpec((0, 0, 1, 1), True, NORTH), CurveSpec((V, 0, 2, V), False, NORTH)), "inter"),
    1,
)
def test_key_symmetries_keep_value(instance, rotation):
    """Every transform the cache keys identify leaves the minimum unchanged,
    for the oracle and for the brute-force reference alike."""
    n, curves, tally = instance
    want = naive.minimize(_plain(curves), n, tally)
    for moved in _symmetric_forms(curves, rotation, n):
        value, _, exact = minimize_crossings(n, moved, tally)
        assert exact and value == want, (curves, moved)
        assert naive.minimize(_plain(moved), n, tally) == want, (curves, moved)


@st.composite
def _reflected_queries(draw):
    """A self or pair query whose cache key names the reflection through v
    of its curves: n, the key, the form and the query's curves.  Open
    curves (maybe with a basepoint first), v-words or closed curves, at
    most six crossings in all."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("seg", "v", "x")))
    count = draw(st.integers(1, 2))
    curves = []
    for _ in range(count):
        letters = tuple(draw(st.lists(st.integers(0, n), min_size=1, max_size=6 // count)))
        if kind == "x":
            letters = letters[:len(letters) // 2 * 2]
        elif kind == "v":
            letters = (V, *letters, V)
        else:
            letters = (V,) * draw(st.booleans()) + letters
        # a self query and an x-class start north
        open_pair = count == 2 and kind != "x"
        hemisphere = draw(st.sampled_from((NORTH, SOUTH))) if open_pair else NORTH
        curves.append(CurveSpec(letters, kind == "x", hemisphere))
    if count == 1:
        key, form = oracle._self_form(n, kind, curves[0].letters)
    else:
        key, form = _pair_form(n, *(
            oracle._class_text(XLoopClass(c.letters), n) if kind == "x"
            else _open_text(n, kind, c.letters, c.hemisphere) for c in curves))
    assume(form[-1])
    return n, key, form, tuple(curves)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_reflected_queries())
def test_reflected_canonical_witness_draws_the_query(query):
    """A query whose key names its curves reflected through v searches the
    reflected curves, and its witness, drawn back, draws the query's own
    curves and recounts to the query's minimum, with no cache, on a fresh
    cache and on a warm one alike."""
    n, key, form, curves = query
    tally = "self" if len(curves) == 1 else "inter"
    searched = oracle._Form.of(*form).searches[0][0]
    assert sorted(a for c in searched for a in c.letters) == sorted(
        a for c in curves for a in _reflected(c.letters, n))
    # an x-pair is minimized over the relative hemisphere of its second curve
    hemispheres = (NORTH, SOUTH) if curves[0].closed and tally == "inter" else (
        curves[-1].hemisphere,)
    want = min(naive.minimize(_plain(curves[:-1] + (replace(curves[-1], hemisphere=h),)),
                              n, tally) for h in hemispheres)
    with tempfile.TemporaryDirectory() as cache_dir:
        answers = [oracle._solve(n, key, form, config)
                   for config in (OracleConfig(use_cache=False), OracleConfig(cache_dir=cache_dir),
                                  OracleConfig(cache_dir=cache_dir))]
    for got in answers:
        assert got.exact and got.value == want
        assert got.witness == answers[0].witness
        drawn = got.witness.curves
        assert drawn[0] == curves[0]
        assert [c.letters for c in drawn] == [c.letters for c in curves]
        assert count_crossings(got.witness, tally) == want


@st.composite
def _curve_shapes(draw):
    """n, a tally and one to three curves of every shape: open (maybe with a
    basepoint first), closed and v-ended, down to one letter, (v, v) and two
    closed letters."""
    n = draw(st.integers(1, 3))
    curves = []
    for _ in range(draw(st.integers(1, 3))):
        letters = draw(st.lists(st.integers(0, n), max_size=6))
        shape = draw(st.sampled_from(("open", "closed", "v")))
        if shape == "closed":
            letters = letters[:len(letters) // 2 * 2]
        elif shape == "v":
            letters = [V, *letters, V]
        else:
            letters = [V] * draw(st.booleans()) + letters
        curves.append(CurveSpec(tuple(letters), shape == "closed",
                                draw(st.sampled_from((NORTH, SOUTH)))))
    return n, tuple(curves), draw(st.sampled_from(("self", "inter")))


def _reference_chords(curves):
    """Each chord as (disk, curve, end, end) from the letters alone: chord j
    joins letters j and j + 1 (a closed curve's last chord its last letter
    and its first) in disk hemisphere + j, an end being (curve, position),
    or None at the basepoint; a chord with both ends there is no chord."""
    chords = []
    for ci, c in enumerate(curves):
        m = len(c.letters)
        steps = [(j, j + 1) for j in range(m - 1)] + [(m - 1, 0)] * (c.closed and m > 1)
        for j, step in enumerate(steps):
            ends = [None if c.letters[e] == V else (ci, e) for e in step]
            if ends != [None, None]:
                chords.append(((j + (c.hemisphere == SOUTH)) % 2, ci, *ends))
    return chords


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_curve_shapes())
@example((2, (CurveSpec((V, 2, 0, 0, 1, 2, V), False, NORTH),), "self"))  # chord inside gap 0
@example((2, (CurveSpec((0, 1, 1, 2, 2, 0), True, SOUTH),), "self"))  # closing chord inside gap 0
@example((2, (CurveSpec((V, V), False, NORTH), CurveSpec((2,), False, SOUTH),
              CurveSpec((0, 1), True, NORTH), CurveSpec((V, 1, V), False, SOUTH)), "inter"))
def test_instance_chords_match_reference(instance):
    """An instance numbers the crossings of each curve in turn, and its
    countable pairs and gaps holding a chord are those of chords made from
    the letters: pairs in one disk, not both at the basepoint, of one curve
    for a self tally and of two for an inter tally."""
    n, curves, tally = instance
    inst = oracle._Instance(n, curves, tally)
    points = [(ci, j) for ci, c in enumerate(curves) for j, g in enumerate(c.letters) if g != V]
    assert inst.points == points
    pid = {p: i for i, p in enumerate([None, *points])}
    chords = _reference_chords(curves)
    want = [(pid[a1], pid[b1], pid[a2], pid[b2])
            for (d1, c1, a1, b1), (d2, c2, a2, b2) in itertools.combinations(chords, 2)
            if d1 == d2 and not (None in (a1, b1) and None in (a2, b2))
            and (c1 == c2) == (tally == "self")]
    assert sorted(inst.countable_pairs()) == sorted(want)
    letter = {p: curves[p[0]].letters[p[1]] for p in points}
    assert inst.within_gap == {letter[a] for _, _, a, b in chords
                               if a and b and letter[a] == letter[b]}


def test_gap_orders_not_materialized():
    """A gap's order is built one appended point at a time, and its orders
    are never collected: the ladder's first gap has 7! of them, and the
    search stays far below the memory a list of them takes."""
    ladder = CurveSpec((V, 2) + (0, 1) * 7 + (2, V), False, NORTH)
    tracemalloc.start()
    try:
        value, _, exact = minimize_crossings(2, (ladder,), "self")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exact and value == 20
    assert peak < 250_000, peak


@pytest.mark.parametrize("m, value, budget", [
    pytest.param(10, 29, 5_000, id="10-29"),
    pytest.param(11, 32, 10_000, id="11-32"),
    pytest.param(12, 35, 20_000, id="12-35"),
])
def test_ladder_gaps_ordered_point_by_point(m, value, budget):
    """The ladder's two m-point gaps have m! orders each, but the search
    prunes after every appended point, and the folded bound refutes most
    orders of the first gap: m = 10, 11 and 12 finish exact within 1,221,
    3,215 and 8,539 units, where the table bound alone needs 9,669, 29,513
    and 84,857."""
    ladder = CurveSpec((V, 2) + (0, 1) * m + (2, V), False, NORTH)
    got, witness, exact = minimize_crossings(2, (ladder,), "self", budget=budget)
    assert exact and got == value
    assert count_crossings(witness, "self") == value


def _reference_candidates(search):
    """Bound candidates as first defined: (far end of u, far end of v) for
    each chord pair with one endpoint of each chord in a gap g and both
    other ends outside g, grouped by gap and point pair (u, v), u < v."""
    inst = search.inst
    gap_of = inst.gap_of
    cands = {g: {} for g in search.gap_order}
    for a1, b1, a2, b2 in inst.countable_pairs():
        for u, ou in ((a1, b1), (b1, a1)):
            g = gap_of[u]
            for v, ov in ((a2, b2), (b2, a2)):
                if u != v and gap_of[v] == g and g not in (gap_of[ou], gap_of[ov]):
                    key, ends = ((u, v), (ou, ov)) if u < v else ((v, u), (ov, ou))
                    cands[g].setdefault(key, []).append(ends)
    return cands


def _reference_pair_costs(search, g, cands, placed, rule="shared", unplaced=()):
    """The costs of u before v and of v before u, recomputed from the
    current positions.  `placed` holds the gaps whose orders are fixed or
    being built, and `unplaced` the points of the gap being built that are
    not placed yet: each of them will follow every placed point of its gap.
    Far ends in two gaps are decided by their blocks, so the "shared" rule
    skips a candidate only when both far ends share an unplaced gap or are
    both unplaced points, since either order of them can still come and the
    cheaper one counts for neither; the "placed" rule, the earlier and weaker
    one, skips every candidate with a far end in an unplaced gap or at an
    unplaced point."""
    inst = search.inst
    gap_of = inst.gap_of
    bu, bv = inst.base[g], inst.base[g] + 1

    def free(p):
        return p != 0 and (gap_of[p] not in placed or p in unplaced)

    def position(p):
        if p in unplaced:  # after the placed points of its gap
            return inst.base[gap_of[p]] + len(inst.gap_points[gap_of[p]]) - len(unplaced)
        return search.pos[p]

    c_uv = c_vu = 0
    for ou, ov in cands:
        if rule == "shared":
            if gap_of[ou] == gap_of[ov] and free(ou) and free(ov):
                continue
        elif free(ou) or free(ov):
            continue
        pou, pov = position(ou), position(ov)
        c_uv += _cross(bu, pou, bv, pov)
        c_vu += _cross(bv, pou, bu, pov)
    return c_uv, c_vu


def _unplaced_points(search, g):
    """The points of gap g not placed yet: they share the position after the
    placed points of g, which each sit alone."""
    pos = search.pos
    pts = search.inst.gap_points[g]
    shared = [p for p in pts if sum(pos[q] == pos[p] for q in pts) > 1]
    if shared:
        at = pos[shared[0]]
        assert all(pos[p] == at for p in shared), search.inst.curves
        assert all(pos[p] < at for p in pts if p not in shared), search.inst.curves
    return set(shared)


def test_future_bound_matches_reference(monkeypatch):
    """At every node and sub-node where `_split` runs, the table bound it
    returns equals the bound of the later gaps recomputed from the
    positions.  It runs on entering each gap, and at each child with two or
    more points left that its node's table bound does not prune, if that
    node has an open part; so it is checked also at children that their own
    table bound or the fold prunes, but not at children pruned by their
    node's table bound, nor at those whose node has nothing open, which
    `test_carried_open_part_matches_recount` checks where the search
    enters them.  At every node `_extend` receives, its running total
    `rest` equals the recomputed cost of the pairs of its unplaced points; and
    each level's weights equal the reference costs.  A sub-node of level L
    orders the gap at L point by point: its bound covers the pairs of its
    unplaced points and the gaps after it.  Neither part is ever below the
    one that waits for both far ends to be placed, and one is above it at
    some node.  Every search completes, also with its minimum as cutoff,
    where it must refute every node."""
    checked = {"bound": 0, "sub-node": 0, "varying": 0, "weights": 0, "tighter": 0, "rest": 0}
    search_class = oracle._Search
    split, weights = search_class._split, search_class._gap_weights
    dfs, extend = search_class._dfs, search_class._extend
    levels = []  # the level of each running `_dfs` and `_extend`, innermost last

    reference = {}  # search -> its reference candidates

    def candidates(search):
        if search not in reference:
            reference[search] = _reference_candidates(search)
        return reference[search]

    def checked_split(self, const, less, rows):
        got = split(self, const, less, rows)
        level = levels[-1] + 1  # the table read while the gap at levels[-1] is ordered
        building = self.gap_order[level - 1]
        unplaced = _unplaced_points(self, building)
        placed = set(self.gap_order[:level])
        cands = candidates(self)
        want, floor = (
            sum(
                min(_reference_pair_costs(self, g, pair_cands, placed, rule, unplaced))
                for g in self.gap_order[level:]
                for pair_cands in cands[g].values()
            )
            for rule in ("shared", "placed")
        )
        assert got[0] == want, (self.inst.curves, level)
        assert got[0] >= floor, (self.inst.curves, level)
        checked["bound"] += 1
        checked["sub-node"] += 0 < len(unplaced) < len(self.inst.gap_points[building])
        checked["tighter"] += got[0] > floor
        checked["varying"] += bool(self.bound_rows[level])
        return got

    def checked_dfs(self, level, acc):
        levels.append(level)
        try:
            return dfs(self, level, acc)
        finally:
            levels.pop()

    def checked_extend(self, level, acc, rest, *args):
        building = self.gap_order[level]
        unplaced = _unplaced_points(self, building)
        placed = set(self.gap_order[:level])
        want, floor = (
            sum(
                min(_reference_pair_costs(self, building, pair_cands, placed, rule))
                for (u, v), pair_cands in candidates(self)[building].items()
                if u in unplaced and v in unplaced
            )
            for rule in ("shared", "placed")
        )
        assert rest == want, (self.inst.curves, level)
        assert rest >= floor, (self.inst.curves, level)
        checked["rest"] += 1
        checked["tighter"] += rest > floor
        levels.append(level)
        try:
            return extend(self, level, acc, rest, *args)
        finally:
            levels.pop()

    def checked_weights(self, level):
        got = weights(self, level)
        g = self.gap_order[level]
        pts = self.inst.gap_points[g]
        placed = set(self.gap_order[:level])
        want = [[0] * len(pts) for _ in pts]
        for (u, v), pair_cands in candidates(self)[g].items():
            c_uv, c_vu = _reference_pair_costs(self, g, pair_cands, placed)
            want[pts.index(u)][pts.index(v)] += c_uv
            want[pts.index(v)][pts.index(u)] += c_vu
        assert got == want, self.inst.curves
        checked["weights"] += 1
        return got

    monkeypatch.setattr(search_class, "_split", checked_split)
    monkeypatch.setattr(search_class, "_dfs", checked_dfs)
    monkeypatch.setattr(search_class, "_extend", checked_extend)
    monkeypatch.setattr(search_class, "_gap_weights", checked_weights)
    ladders = [
        (2, (CurveSpec((V, 2) + (0, 1) * m + (2, V), False, NORTH),), "self") for m in range(3, 7)
    ]
    # a last gap of 4 points whose cheaper pair orders form a cycle, so the
    # bound keeps a node that only appending its points can refute
    cycle = (2, (CurveSpec((1, 2, 0, 2, 1), False, NORTH),
                 CurveSpec((V, 2, 1, 0, 2, 1, 0, V), False, NORTH)), "inter")
    rng = random.Random(157)
    values = []
    for n, curves, tally in ladders + [cycle] + [_random_curves(rng) for _ in range(300)]:
        value, _, exact = minimize_crossings(n, curves, tally)
        assert exact and minimize_crossings(n, curves, tally, cutoff=value)[2]
        values.append(value)
    assert values[:4] == [8, 11, 14, 17]
    assert min(checked.values()) > 0, checked


def _random_curves(rng):
    """n, curves and tally of a random instance with at most ten crossing
    points."""
    n = rng.choice((1, 2, 3))
    tally = rng.choice(("self", "inter"))
    curves = []
    count = 2 if tally == "inter" else rng.randint(1, 2)
    for _ in range(count):
        letters = [rng.randint(0, n) for _ in range(rng.randint(1, 10 // count))]
        closed = rng.random() < 0.4
        if closed:
            letters = letters[:len(letters) // 2 * 2]
        else:
            letters = [V] * rng.randint(0, 1) + letters + [V] * rng.randint(0, 1)
        curves.append(CurveSpec(tuple(letters), closed, rng.choice((NORTH, SOUTH))))
    return n, tuple(curves), tally


def _small_instance(rng):
    """A random instance of `_random_curves` with at most eight points."""
    while True:
        n, curves, tally = _random_curves(rng)
        if sum(a != V for c in curves for a in c.letters) <= 8:
            return n, curves, tally


def test_folded_bound_is_sound(monkeypatch):
    """Every folded bound the search computes is at or above the table bound
    of its node, and at or below the least count of a completion of that
    node: the orders of the placed gaps and the placed points of the gap
    being ordered, followed by any order of its unplaced points and of the
    later gaps, brute-forced by `_Instance.evaluate_orders`.  Some folded
    bounds are above the table bound.  The fold gets only open entries:
    both points of every comparison and of every row end share a position."""
    fold = oracle._Search._folded
    checked = {"nodes": 0, "raised": 0}

    def checked_fold(self, level, w, table, less, rows):
        pos = self.pos
        assert all(pos[p] == pos[q] for p, q in less), (self.inst.curves, level)
        assert all(pos[p] == pos[q] for _, _, ends in rows for p, q in ends), (
            self.inst.curves, level)
        got = fold(self, level, w, table, less, rows)
        inst, gaps = self.inst, self.gap_order
        g = gaps[level]
        unplaced = _unplaced_points(self, g) or set(inst.gap_points[g])
        placed = tuple(sorted(set(inst.gap_points[g]) - unplaced, key=self.pos.__getitem__))
        fixed = {h: self.current[h] for h in gaps[:level]}
        later = gaps[level + 1:]
        least = min(
            inst.evaluate_orders({**fixed, g: placed + head, **dict(zip(later, tails))})
            for head in itertools.permutations(unplaced)
            for tails in itertools.product(
                *(itertools.permutations(inst.gap_points[h]) for h in later)))
        assert table <= got <= least, (inst.curves, level, placed)
        checked["nodes"] += 1
        checked["raised"] += got > table
        return got

    monkeypatch.setattr(oracle._Search, "_folded", checked_fold)
    ladders = [(2, (CurveSpec((V, 2) + (0, 1) * m + (2, V), False, NORTH),), "self")
               for m in range(2, 5)]
    rng = random.Random(191)
    for n, curves, tally in ladders + [_small_instance(rng) for _ in range(1500)]:
        minimize_crossings(n, curves, tally, cutoff=rng.choice((None, 1, 2, 3, 5)))
    assert checked["raised"] > 0, checked


def test_fold_changes_no_answer(monkeypatch):
    """The folded bound only prunes subtrees holding no drawing below the
    current bound, so the search visits a subset of the nodes it visits
    without the fold, in the same order: an exact answer is the same value
    and witness for no more units, and a search stopped by its budget gets
    no worse.  Across these searches the fold saves units."""
    units = []
    run = oracle._Search.run

    def counted(self):
        try:
            return run(self)
        finally:
            units.append(self.units)

    monkeypatch.setattr(oracle._Search, "run", counted)
    ladders = [(2, (CurveSpec((V, 2) + (0, 1) * m + (2, V), False, NORTH),), "self")
               for m in range(3, 10)]
    rng = random.Random(193)
    cases = [(inst, budget) for inst in ladders + [_random_curves(rng) for _ in range(300)]
             for budget in (10, oracle.DEFAULT_BUDGET)]
    folded = [minimize_crossings(*inst, budget) for inst, budget in cases]
    monkeypatch.setattr(oracle._Search, "_folded",
                        lambda self, level, w, table, less, rows: table)
    plain = [minimize_crossings(*inst, budget) for inst, budget in cases]
    with_fold, without = units[:len(cases)], units[len(cases):]
    for case, got, want, used, spent in zip(cases, folded, plain, with_fold, without):
        assert used <= spent and got[0] <= want[0], case
        assert got == want or not want[2], case
    assert sum(with_fold) < sum(without)


def _prune_cases(seed):
    """The ladders m = 2..9 and 300 random instances, each at budgets 10 and
    the default."""
    ladders = [(2, (CurveSpec((V, 2) + (0, 1) * m + (2, V), False, NORTH),), "self")
               for m in range(2, 10)]
    rng = random.Random(seed)
    return [(inst, budget) for inst in ladders + [_random_curves(rng) for _ in range(300)]
            for budget in (10, oracle.DEFAULT_BUDGET)]


def test_child_table_bound_never_below_parent(monkeypatch):
    """`_extend` bounds a child by its node's table bound before it splits
    it, which is sound because the table bound `_split` returns at every
    child it splits is at or above its node's: appending a point only
    decides open comparisons and row ends.  A child is split only if its
    node has an open part, and some children's table bound is higher."""
    search_class = oracle._Search
    split, dfs, extend = search_class._split, search_class._dfs, search_class._extend
    tables = []  # the table bound of each running `_extend`, None for `_dfs`; innermost last
    checked = {"children": 0, "raised": 0}

    def checked_split(self, const, less, rows):
        got = split(self, const, less, rows)
        if tables[-1] is not None:  # a child's split, not a gap's entry
            assert less or rows, self.inst.curves
            assert got[0] >= tables[-1], self.inst.curves
            checked["children"] += 1
            checked["raised"] += got[0] > tables[-1]
        return got

    def checked_dfs(self, level, acc):
        tables.append(None)
        try:
            return dfs(self, level, acc)
        finally:
            tables.pop()

    def checked_extend(self, level, acc, rest, order, left, w, table, const, less, rows):
        tables.append(table)
        try:
            return extend(self, level, acc, rest, order, left, w, table, const, less, rows)
        finally:
            tables.pop()

    monkeypatch.setattr(search_class, "_split", checked_split)
    monkeypatch.setattr(search_class, "_dfs", checked_dfs)
    monkeypatch.setattr(search_class, "_extend", checked_extend)
    for inst, budget in _prune_cases(199):
        minimize_crossings(*inst, budget)
    assert min(checked.values()) > 0, checked


class _NeverPrunes(int):
    """A table bound whose every sum is below any search bound."""

    def __radd__(self, other):
        return -math.inf


class _NeverEmpty(list):
    """An open part that reads as non-empty, even with nothing in it."""

    def __bool__(self):
        return True


def test_parent_table_bound_changes_no_search(monkeypatch):
    """With the test of each child against its node's table bound disabled,
    and every child split, also a child of a node with nothing open, every
    search returns the same value, witness and exact flag for the same
    units: the test prunes only children that their own bounds prune.  It
    saves splits."""
    units, splits = [], [0]
    search_class = oracle._Search
    run, split, extend = search_class.run, search_class._split, search_class._extend

    def counted_run(self):
        try:
            return run(self)
        finally:
            units.append(self.units)

    def counted_split(self, const, less, rows):
        splits[-1] += 1
        return split(self, const, less, rows)

    monkeypatch.setattr(search_class, "run", counted_run)
    monkeypatch.setattr(search_class, "_split", counted_split)
    cases = _prune_cases(211)
    pruned = [minimize_crossings(*inst, budget) for inst, budget in cases]
    monkeypatch.setattr(
        search_class, "_extend",
        lambda self, level, acc, rest, order, left, w, table, const, less, rows: extend(
            self, level, acc, rest, order, left, w, _NeverPrunes(table), const,
            _NeverEmpty(less), rows))
    splits.append(0)
    plain = [minimize_crossings(*inst, budget) for inst, budget in cases]
    assert pruned == plain
    assert units[:len(cases)] == units[len(cases):]
    assert splits[0] < splits[1], splits


def _reference_future_bound(search, level, rest):
    """The table bound as the search once recounted it at every node: `rest`
    plus table `level`, each comparison and row end read from the current
    positions."""
    pos = search.pos
    total = rest + search.bound_const[level]
    for p, q in search.bound_less[level]:
        if pos[p] < pos[q]:
            total += 1
    for f, b, ends in search.bound_rows[level]:
        for p, q in ends:  # f + x and b + y
            if pos[p] < pos[q]:
                f += 1
            elif pos[q] < pos[p]:
                b += 1
        total += f if f < b else b
    return total


def _recounted_table(search, level):
    """Table `level` + 1 split from scratch at the current positions: its
    constant plus the decided comparisons that count and the rows with no
    open end at min(f, b); the comparisons whose ends share a position; and
    the other rows, their decided ends counted into (f, b), with their open
    ends."""
    pos = search.pos
    const, less, rows = search.bound_const[level + 1], [], []
    for p, q in search.bound_less[level + 1]:
        if pos[p] == pos[q]:
            less.append((p, q))
        else:
            const += pos[p] < pos[q]
    for f, b, ends in search.bound_rows[level + 1]:
        f += sum(pos[p] < pos[q] for p, q in ends)
        b += sum(pos[q] < pos[p] for p, q in ends)
        opened = [(p, q) for p, q in ends if pos[p] == pos[q]]
        if opened:
            rows.append((f, b, opened))
        else:
            const += min(f, b)
    return const, less, rows


def test_carried_open_part_matches_recount(monkeypatch):
    """At every node the search enters, the constant and open part carried
    down from the gap's entry equal table L + 1 split from scratch at that
    node's positions, and the table bound it is given equals both the
    constant plus the open rows at min(f, b) and the table bound once
    recounted at every node.  A row of the parent, or of the table at the
    gap's entry, that the last append leaves with no decided end is kept as
    the same tuple, not copied."""
    checked = {"nodes": 0, "sub-nodes": 0, "open less": 0, "open rows": 0,
               "closed rows": 0, "shared rows": 0}
    kinds = set()
    extend = oracle._Search._extend
    path = []  # the open rows of the entered nodes above, innermost last

    def checked_extend(self, level, acc, rest, order, left, w, table, const, less, rows):
        assert (const, less, rows) == _recounted_table(self, level), (self.inst.curves, order)
        assert table == const + sum(min(f, b) for f, b, _ in rows), (self.inst.curves, order)
        assert table == _reference_future_bound(self, level + 1, 0), self.inst.curves
        parent, pos = path[-1] if order else self.bound_rows[level + 1], self.pos
        kept = [r for r in parent if all(pos[p] == pos[q] for p, q in r[2])]
        assert {id(r) for r in kept} <= {id(row) for row in rows}, (self.inst.curves, order)
        checked["shared rows"] += bool(order and kept)
        checked["nodes"] += 1
        checked["sub-nodes"] += bool(order)
        checked["open less"] += bool(less)
        checked["open rows"] += bool(rows)
        checked["closed rows"] += bool(order) and len(rows) < len(parent)
        kinds.update(("closed" if c.closed else "v-ended" if V in c.letters else "open")
                     for c in self.inst.curves)
        kinds.add(self.inst.tally)
        path.append(rows)
        try:
            return extend(self, level, acc, rest, order, left, w, table, const, less, rows)
        finally:
            path.pop()

    monkeypatch.setattr(oracle._Search, "_extend", checked_extend)
    ladders = [(2, (CurveSpec((V, 2) + (0, 1) * m + (2, V), False, NORTH),), "self")
               for m in range(2, 7)]
    rng = random.Random(197)
    for n, curves, tally in ladders + [_random_curves(rng) for _ in range(300)]:
        minimize_crossings(n, curves, tally)
    assert min(checked.values()) > 0, checked
    assert kinds == {"open", "closed", "v-ended", "self", "inter"}, kinds


# -- structural invariants --------------------------------------------------------


def test_x_word_rotation_invariance(nocache_config):
    # the closing chord makes the diagram cyclic: rotations share the value
    rng = random.Random(149)
    for _ in range(25):
        letters = [rng.choice((0, 1, 2)) for _ in range(2 * rng.randint(1, 3))]
        base = self_intersection_number(
            Word.x_word(tuple(letters)), GapAlphabet(2), nocache_config
        ).value
        for r in range(1, len(letters)):
            rotated = tuple(letters[r:] + letters[:r])
            got = self_intersection_number(
                Word.x_word(rotated), GapAlphabet(2), nocache_config
            ).value
            assert got == base, (letters, r)


def test_reversal_invariance(config, alpha2):
    rng = random.Random(127)
    for _ in range(40):
        inner = tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(1, 6)))
        a = _selfint_v(inner, config).value
        b = _selfint_v(tuple(reversed(inner)), config).value
        assert a == b, inner


def test_hemisphere_mirror_invariance(nocache_config, alpha2):
    # computing with the first arc in either hemisphere gives equal minima
    rng = random.Random(131)
    for _ in range(20):
        inner = tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(1, 5)))
        values = []
        for hemi in (NORTH, SOUTH):
            curve = CurveSpec((V,) + inner + (V,), False, hemi)
            value, _, exact = minimize_crossings(2, (curve,), "self")
            assert exact
            values.append(value)
        assert values[0] == values[1], inner


def test_reduction_monotonicity(config, alpha2):
    rng = random.Random(137)
    for _ in range(50):
        inner = tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(0, 8)))
        word = Word.v_word(inner)
        reduced = reduce_word(word).word
        full = _selfint_v(inner, config).value
        small = _selfint_v(reduced.inner(), config).value
        assert small <= full, inner


def test_segment_threshold_agrees_with_exact(config, nocache_config, alpha2, tmp_path):
    # without a cache the threshold search decides every verdict; a cache
    # holding only threshold entries answers from them once they cover k,
    # and the shared `config` cache answers from the exact entry
    thresholds = OracleConfig(cache_dir=tmp_path)
    rng = random.Random(139)
    for _ in range(40):
        letters = tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(2, 6)))
        exact = segment_self(letters, alpha2, config).value
        for k in range(exact + 2):
            for cfg in (nocache_config, thresholds, config):
                verdict = segment_self_at_least(letters, k, alpha2, cfg)
                assert verdict == (exact >= k), (letters, k, cfg)


def test_segment_threshold_outcomes(tmp_path):
    # the segment's minimum is 5, and so is its greedy drawing's count.  Two
    # budget units leave the threshold at 5 undecided, while the greedy
    # drawing alone answers the one at 6; a stopped search caches nothing.
    # Below the cutoff a completed search finds the minimum, and stores the
    # entry an exact query stores.
    letters = (V, 2, 0, 1, 0, 1, 0, 1, 2)
    segment_self(letters, GapAlphabet(2), OracleConfig(cache_dir=tmp_path / "exact"))
    [exact] = [json.loads(text) for text in cache_rows(tmp_path / "exact").values()]
    del exact["key"], exact["version"]
    for k, stopped, decided, stored in ((5, None, True, {"at_least": 5}),
                                        (6, False, False, exact)):
        cache = tmp_path / f"k{k}"
        config = OracleConfig(budget=2, cache_dir=cache)
        assert segment_self_at_least(letters, k, GapAlphabet(2), config) is stopped
        assert not cache.exists()
        config = OracleConfig(budget=50, cache_dir=cache)
        assert segment_self_at_least(letters, k, GapAlphabet(2), config) is decided
        [entry] = [json.loads(text) for text in cache_rows(cache).values()]
        assert {f: v for f, v in entry.items() if f not in ("key", "version")} == stored


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_instances())
def test_cutoff_only_starts_the_bound(instance):
    """Below the minimum a cutoff changes nothing: the search returns the
    cutoff-free value and witness.  At or above it, the search proves
    min >= cutoff with a value at or above the cutoff."""
    n, curves, tally = instance
    value, witness, exact = minimize_crossings(n, curves, tally)
    assert exact
    for cutoff in range(value + 2):
        got = minimize_crossings(n, curves, tally, cutoff=cutoff)
        if value < cutoff:
            assert got == (value, witness, True), (instance, cutoff)
        else:
            assert got[2] and got[0] >= cutoff, (instance, cutoff)


@st.composite
def _wide_instances(draw):
    """An instance of 7 to 14 crossing points, beyond the brute-force
    reference: n, curves and tally.  A curve of an even number of points
    may be closed; an open one may end at the basepoint."""
    n = draw(st.integers(1, 3))
    tally = draw(st.sampled_from(("self", "inter")))
    count = 2 if tally == "inter" else draw(st.integers(1, 2))
    total = draw(st.integers(7, 14))
    curves = []
    for size in (total // count + (i < total % count) for i in range(count)):
        letters = draw(st.lists(st.integers(0, n), min_size=size, max_size=size))
        closed = size % 2 == 0 and draw(st.booleans())
        if not closed:
            letters = [V] * draw(st.booleans()) + letters + [V] * draw(st.booleans())
        curves.append(CurveSpec(tuple(letters), closed, draw(st.sampled_from((NORTH, SOUTH)))))
    return n, tuple(curves), tally


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_wide_instances())
def test_greedy_drawing_is_a_drawing(instance):
    """The greedy descent lists every point of each gap once, its value is
    the recount of its orders, at least the minimum, and it leaves every
    point at its block's start, where the search expects it."""
    n, curves, tally = instance
    inst = oracle._Instance(n, curves, tally)
    search = oracle._Search(inst, oracle.DEFAULT_BUDGET, None)
    value, orders = search._dive()
    assert orders.keys() == inst.gap_points.keys()
    for g, order in orders.items():
        assert sorted(order) == inst.gap_points[g], instance
    assert inst.evaluate_orders(orders) == value
    assert value >= minimize_crossings(n, curves, tally)[0]
    assert search.pos == [inst.base[g] for g in inst.gap_of]


def _assert_first_minimal_drawing(instance):
    """A completed search ends on the first minimal drawing of its order,
    found here by brute force: the gaps in `gap_order`, the first varying
    slowest, and each gap's orders in lexicographic order.  That holds below
    the cutoff; at or above it, the value is at least the cutoff."""
    n, curves, tally = instance
    inst = oracle._Instance(n, curves, tally)
    gaps = oracle._Search(inst, 1, None).gap_order
    drawings = [dict(zip(gaps, orders)) for orders in itertools.product(
        *(itertools.permutations(inst.gap_points[g]) for g in gaps))]
    values = [inst.evaluate_orders(orders) for orders in drawings]
    low = min(values)
    first = inst.drawing_for(drawings[values.index(low)])
    for cutoff in (None, *range(low + 2)):
        value, witness, exact = minimize_crossings(n, curves, tally, cutoff=cutoff)
        assert exact, (instance, cutoff)
        if cutoff is None or low < cutoff:
            assert (value, witness) == (low, first), (instance, cutoff)
        else:
            assert value >= cutoff, (instance, cutoff)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_instances())
def test_greedy_bound_keeps_the_answer(instance):
    """Whatever greedy drawing a search starts from, a completed one ends on
    the first minimal drawing of its order."""
    _assert_first_minimal_drawing(instance)


@st.composite
def _twin_instances(draw):
    """An inter instance of at most seven crossing points in which one curve
    puts three or more points in one gap: two points of one curve meet in no
    counted chord pair, so they are tied twins wherever they are adjacent."""
    n = draw(st.integers(1, 3))
    g = draw(st.integers(0, n))
    run = draw(st.permutations([g] * 3 + draw(st.lists(st.integers(0, n), max_size=2))))
    other = draw(st.lists(st.integers(0, n), min_size=1, max_size=7 - len(run)))
    curves = []
    for letters in (run, other):
        closed = len(letters) % 2 == 0 and draw(st.booleans())
        if not closed:
            letters = [V] * draw(st.booleans()) + letters + [V] * draw(st.booleans())
        curves.append(CurveSpec(tuple(letters), closed, draw(st.sampled_from((NORTH, SOUTH)))))
    return n, tuple(curves[::-1] if draw(st.booleans()) else curves), "inter"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_twin_instances())
# every minimal drawing puts the second curve's point first in gap 1, before
# the first curve's, lower-numbered points: a descending pair that its
# weights tell apart
@example((3, (CurveSpec((V, 1, 2, 1, 1, 1), False, SOUTH), CurveSpec((V, 1, V), False, NORTH)),
          "inter"))
def test_tied_twins_keep_the_first_minimal_drawing(instance):
    """A search that appends tied twins only in ascending order still ends on
    the first minimal drawing of its order, with and without a cutoff."""
    _assert_first_minimal_drawing(instance)


def test_tied_twins_are_tried_in_one_order(monkeypatch):
    """On a pair whose curves each put two points in every gap, appending
    tied twins in one order only spends fewer units than a search that
    counts no pair as tied, for the same value and witness."""
    curves = (CurveSpec((V, 2, 0, 1, 0, 1, 2, V), False, NORTH),
              CurveSpec((V, 2, 0, 1, 0, 1, 2, V), False, SOUTH))
    units = []
    run, init = oracle._Search.run, oracle._Search.__init__

    def counted(self):
        try:
            return run(self)
        finally:
            units.append(self.units)

    def all_apart(self, *args):
        init(self, *args)
        self.apart = [[set(range(len(row))) for _ in row] for row in self.apart]

    monkeypatch.setattr(oracle._Search, "run", counted)
    got = minimize_crossings(2, curves, "inter")
    monkeypatch.setattr(oracle._Search, "__init__", all_apart)
    assert minimize_crossings(2, curves, "inter") == got
    assert got[0] == 10 and got[2]
    assert units[0] < units[1], units


def test_stopped_pair_search_keeps_the_greedy_drawing():
    """An exact pair search stopped by its budget answers with a drawing no
    worse than the greedy one, and its witness recounts to its value.  The
    identity order of some of these pairs is worse than the greedy drawing,
    so the answer is the greedy drawing there."""
    rng = random.Random(181)
    stopped = fell = 0
    for _ in range(60):
        curves = tuple(CurveSpec((V,) + tuple(rng.randint(0, 2) for _ in range(6)) + (V,),
                                 False, rng.choice((NORTH, SOUTH))) for _ in range(2))
        inst = oracle._Instance(2, curves, "inter")
        greedy = oracle._Search(inst, 1, None)._dive()[0]
        identity = inst.evaluate_orders(inst.identity_orders())
        for budget in (1, 3):
            value, witness, exact = minimize_crossings(2, curves, "inter", budget)
            assert value <= greedy and count_crossings(witness, "inter") == value
            stopped += not exact
            fell += not exact and value == greedy < identity
    assert stopped and fell, (stopped, fell)


def test_threshold_entry_answers_the_exact_query(tmp_path, monkeypatch, nocache_config, alpha2):
    """A threshold query below its cutoff leaves the exact entry, drawn on
    the curves its key names (here the reversed segment reflected through
    v), and a following exact query reads it without a search."""
    letters = (V, 2, 0, 1, 0, 1, 0, 1, 2)  # minimum 5
    want = segment_self(letters, alpha2, nocache_config)
    config = OracleConfig(cache_dir=tmp_path)
    assert segment_self_at_least(letters, 6, alpha2, config) is False
    [entry] = [json.loads(text) for text in cache_rows(tmp_path).values()]
    assert entry["exact"] and entry["value"] == want.value == 5
    assert entry["witness"]["curves"][0]["letters"] == [
        format_letter(a) for a in _reflected(letters[::-1], 2)]

    def no_search(*args):
        raise AssertionError("the exact query searched")

    monkeypatch.setattr(oracle, "minimize_crossings", no_search)
    assert segment_self(letters, alpha2, config).to_json() == want.to_json()


def test_repeated_letter_words(nocache_config):
    # every gap holds a chord inside it, so the gaps go by size alone
    res = self_intersection_number(Word.x_word((0, 0)), GapAlphabet(1), nocache_config)
    assert res.exact and res.value == 0
    res = self_intersection_number(
        Word.x_word((0, 0, 1, 1)), GapAlphabet(1), nocache_config
    )
    assert res.exact
    assert res.value == naive.self_x([0, 0, 1, 1], n=1)


def test_curve_spec_validation():
    with pytest.raises(PreconditionError):
        CurveSpec((0, V, 1), False, NORTH)  # basepoint inside a segment
    with pytest.raises(PreconditionError):
        CurveSpec((V, 0), True, NORTH)  # closed diagrams have no basepoint
    with pytest.raises(PreconditionError):
        CurveSpec((1, 0, 0), True, NORTH)  # chords alternate disks
    with pytest.raises(PreconditionError):
        CurveSpec((0, 1), False, "X")


def test_bad_segment_pair_queries_are_precondition_errors(tmp_path, alpha2):
    """A bad polarity of either segment, or a basepoint letter inside a
    segment, is a `PreconditionError`, and the query writes no cache row."""
    config = OracleConfig(cache_dir=tmp_path)
    segment_pair((0, 1), (V, 2), NORTH, NORTH, alpha2, config)
    rows = cache_rows(tmp_path)
    for a, b, pa, pb in (((0, 1), (1, 0), "X", NORTH), ((0, 1), (1, 0), NORTH, "X"),
                         ((0, V, 1), (1, 0), NORTH, SOUTH)):
        with pytest.raises(PreconditionError):
            segment_pair(a, b, pa, pb, alpha2, config)
    assert cache_rows(tmp_path) == rows


def test_drawing_json_round_trip(config, alpha2):
    res = _selfint_v((2, 0, 1, 2), config)
    reloaded = Drawing.from_json(res.witness.to_json())
    assert reloaded == res.witness
    assert count_crossings(reloaded, "self") == res.value


# -- budget and cache -------------------------------------------------------------


def test_default_cache_dir(tmp_path, monkeypatch):
    """Without a cache directory the oracle uses `$LOOPFORGE_CACHE` when it
    is set and not empty, else `.loopforge-cache` in the working directory,
    as they are at each query, also for one shared config.  A config with
    a cache directory builds its store once."""
    monkeypatch.chdir(tmp_path)
    here, elsewhere = tmp_path / ".loopforge-cache", tmp_path / "elsewhere"
    for value, directory in ((None, here), ("", here), (str(elsewhere), elsewhere)):
        if value is None:
            monkeypatch.delenv("LOOPFORGE_CACHE", raising=False)
        else:
            monkeypatch.setenv("LOOPFORGE_CACHE", value)
        assert default_cache_dir() == str(directory)
    shared = OracleConfig()
    _selfint_v((2, 0, 2), shared)
    assert [json.loads(e)["value"] for e in cache_rows(elsewhere).values()] == [1]
    assert not here.exists()
    monkeypatch.delenv("LOOPFORGE_CACHE")
    _selfint_v((2, 1, 2), shared)
    assert [json.loads(e)["value"] for e in cache_rows(here).values()] == [1]
    config = OracleConfig(cache_dir=elsewhere)
    assert config.store() is config.store()


def test_budget_exhaustion_flags_inexact():
    config = OracleConfig(budget=2, use_cache=False)
    res = _selfint_v((2, 0, 1, 0, 1, 0, 1, 2), config)
    assert not res.exact
    # the reported value is an upper bound realized by a drawing
    assert count_crossings(res.witness, "self") == res.value
    assert res.value >= 8


def test_search_deeper_than_recursion_limit_flags_inexact():
    # every appended point is one call deeper: a search that would go deeper
    # than the interpreter allows stops as an exhausted budget does
    ladder = CurveSpec((V, 2) + (0, 1) * 60 + (2, V), False, NORTH)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        value, witness, exact = minimize_crossings(2, (ladder,), "self")
    finally:
        sys.setrecursionlimit(limit)
    assert not exact
    assert count_crossings(witness, "self") == value


def test_witness_drawn_on_the_query(tmp_path, nocache_config):
    """Every query searches the form its key names and draws the witness
    back onto its own curves: same bytes with and without the cache, the
    query's letters and hemispheres, a recount equal to the value, and the
    value of a direct search of the query's curves."""
    rng = random.Random(163)
    alpha = GapAlphabet(3)
    cached = OracleConfig(cache_dir=tmp_path)

    def letters(low, high, step=1, top=3):
        return tuple(rng.randint(0, top) for _ in range(step * rng.randint(low, high)))

    for _ in range(60):
        seg_a, seg_b = letters(1, 6), letters(1, 5)
        hemis = rng.choice((NORTH, SOUTH)), rng.choice((NORTH, SOUTH))
        v1, v2 = (VLoopClass(letters(0, 4), h) for h in hemis)
        # closed curves of 4 to 6 letters over gaps 0..2 often cross more in
        # one relative hemisphere, which the witness must then keep
        x1, x2 = (XLoopClass(letters(2, 3, step=2, top=2)) for _ in range(2))
        queries = [
            (lambda c: self_intersection_number(Word.x_word(x1.reduced), alpha, c),
             (CurveSpec(x1.reduced, True, NORTH),), (NORTH,)),
            (lambda c: segment_self((V,) + seg_a, alpha, c),
             (CurveSpec((V,) + seg_a, False, NORTH),), (NORTH,)),
            (lambda c: segment_pair(seg_a, seg_b, *hemis, alpha, c),
             (CurveSpec(seg_a, False, hemis[0]), CurveSpec(seg_b, False, hemis[1])), (hemis[1],)),
            (lambda c: pair_intersection_number(v1, v2, alpha, c),
             tuple(CurveSpec(v.word().letters, False, h) for v, h in zip((v1, v2), hemis)),
             (hemis[1],)),
            (lambda c: pair_intersection_number(x1, x2, alpha, c),
             (CurveSpec(x1.reduced, True, NORTH), CurveSpec(x2.reduced, True, NORTH)),
             (NORTH, SOUTH)),
        ]
        for query, curves, last_hemispheres in queries:
            res = query(nocache_config)
            assert res.exact and res.to_json() == query(cached).to_json() == query(cached).to_json()
            assert res.witness.curves[:-1] == curves[:-1]
            assert res.witness.curves[-1].letters == curves[-1].letters
            assert res.witness.curves[-1].hemisphere in last_hemispheres
            assert count_crossings(res.witness) == res.value
            direct = [minimize_crossings(3, curves[:-1] + (replace(curves[-1], hemisphere=h),),
                                         "self" if len(curves) == 1 else "inter")[0]
                      for h in last_hemispheres]
            assert res.value == min(direct), curves


def test_cache_round_trip(tmp_path):
    config = OracleConfig(cache_dir=tmp_path)
    first = _selfint_v((2, 0, 1, 2), config)
    second = _selfint_v((2, 0, 1, 2), config)
    assert first == second
    assert cache_rows(tmp_path)
    # cached entries survive for the reversed word too, drawn on its letters
    rev = _selfint_v((2, 1, 0, 2), config)
    assert rev.value == first.value
    assert rev.witness.curves == (CurveSpec((V, 2, 1, 0, 2, V), False, NORTH),)
    assert count_crossings(rev.witness, "self") == rev.value
    assert len(cache_rows(tmp_path)) == 1


def test_cache_versioning(tmp_path, monkeypatch):
    from loopforge.cache import CacheStore

    store = CacheStore(tmp_path)
    store.put("some-key", {"value": 3})
    assert store.get("some-key")["value"] == 3
    assert store.get("other-key") is None
    # a weaker fact never replaces a stronger one: the segment's minimum is
    # 5, and once >= 3 is stored, asking for >= 2 reads it and writes nothing
    letters, config = (V, 2, 0, 1, 0, 1, 0, 1, 2), OracleConfig(cache_dir=tmp_path / "seg")
    assert segment_self_at_least(letters, 3, GapAlphabet(2), config) is True
    writes = []
    monkeypatch.setattr(CacheStore, "put", lambda self, key, fields: writes.append(key))
    assert segment_self_at_least(letters, 2, GapAlphabet(2), config) is True
    assert writes == []
    [entry] = [json.loads(text) for text in cache_rows(tmp_path / "seg").values()]
    assert entry["at_least"] == 3


@pytest.mark.parametrize("fields", [
    {"at_least": "5"}, {"at_least": None}, {"exact": True, "value": "9", "witness": None},
], ids=["str-bound", "null-bound", "str-value"])
def test_threshold_query_misses_a_malformed_entry(tmp_path, fields):
    # a bound or value that is not an int is a miss: the query searches and
    # writes its entry anew
    letters, config = (V, 2, 0, 1, 0, 1, 0, 1, 2), OracleConfig(cache_dir=tmp_path)
    assert segment_self_at_least(letters, 5, GapAlphabet(2), config) is True
    [(key, text)] = cache_rows(tmp_path).items()
    version = json.loads(text)["version"]
    write_row(tmp_path, key, json.dumps({**fields, "key": key, "version": version}))
    assert segment_self_at_least(letters, 5, GapAlphabet(2), config) is True
    assert cache_rows(tmp_path) == {key: text}


def test_cache_put_makes_its_directory(tmp_path):
    from loopforge.cache import DATABASE, MODEL_VERSION, CacheStore

    directory = tmp_path / "a" / "b"
    store = CacheStore(directory)
    assert store.get("n2|self|v|v.2.v") is None and not (tmp_path / "a").exists()
    fields = {"value": 2, "exact": True, "witness": {"n": 2, "gapOrders": {"2": [[0, 1]]},
                                                     "curves": [{"letters": ["v", "2", "v"]}]}}
    store.put("n2|self|v|v.2.v", fields)
    assert store.get("n2|self|v|v.2.v")["value"] == 2
    # a directory deleted under the store is made again by the next write
    shutil.rmtree(tmp_path / "a")
    store.put("n2|seg|v.2.0", fields)
    assert store.get("n2|seg|v.2.0") == {**fields, "key": "n2|seg|v.2.0", "version": MODEL_VERSION}
    assert store.get("n2|self|v|v.2.v") is None
    # the directory holds the database and its WAL sidecars, nothing else
    assert {p.name for p in directory.iterdir()} <= {DATABASE, DATABASE + "-wal", DATABASE + "-shm"}
    # the row holds the text that `json.dump(entry, fh, sort_keys=True)`
    # writes, so the entry format stays the same
    written = io.StringIO()
    json.dump({**fields, "key": "n2|seg|v.2.0", "version": MODEL_VERSION}, written, sort_keys=True)
    assert cache_rows(directory) == {"n2|seg|v.2.0": written.getvalue()}


def test_cache_keeps_one_connection_per_process(tmp_path):
    """Moving to another cache directory closes the process's connection to
    the one before, so stores in new directories leave one connection."""
    from loopforge import cache

    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("counts open files by /proc/self/fd")
    open_files = []
    for i in range(5):
        store = cache.CacheStore(tmp_path / str(i))
        store.put("some-key", {"value": i})
        assert store.get("some-key")["value"] == i
        open_files.append(len(os.listdir("/proc/self/fd")))
    # a connection left open keeps a database and its two WAL sidecars open
    assert open_files[-1] - open_files[0] < 3, open_files
    assert cache._connections[os.getpid()][0] == store.path
    assert cache.CacheStore(tmp_path / "0").get("some-key")["value"] == 0


def test_batch_keeps_its_rows_until_it_ends(tmp_path):
    """A batch keeps its rows unwritten, and a read goes to the database
    alone: the calls that batch their writes keep what they wrote."""
    from loopforge.cache import CacheStore, batched_writes

    store = CacheStore(tmp_path)
    with batched_writes():
        store.put("some-key", {"value": 3})
        with batched_writes():  # a nested block joins the open batch
            store.put("other-key", {"value": 4})
        assert cache_rows(tmp_path) == {}  # the first row opened the database, empty
        assert store.get_many(["some-key", "other-key"]) == {"some-key": None, "other-key": None}
        assert CacheStore(tmp_path / "elsewhere").get("some-key") is None
    assert {key: json.loads(text)["value"] for key, text in cache_rows(tmp_path).items()} == {
        "some-key": 3, "other-key": 4}


@pytest.mark.parametrize("text", [b"\xff\xfe{", b"[1,2]", "other-key", "other-version", None])
def test_bulk_read_and_get_share_one_entry_check(tmp_path, monkeypatch, text):
    """A row that is not UTF-8 JSON, is not a JSON object, was written for
    another key or model version, or holds no text is a miss of `get` and of
    `get_many`, and it misses alone: the rows read in the same query are
    read.  `get_many` reads BATCH_ROWS keys a query."""
    from loopforge import cache

    monkeypatch.setattr(cache, "BATCH_ROWS", 2)
    store = cache.CacheStore(tmp_path)
    for i in range(4):
        store.put(f"key-{i}", {"value": i})
    entry = json.loads(cache_rows(tmp_path)["key-1"])
    corrupt = {"other-key": {**entry, "key": "key-0"}, "other-version": {**entry, "version": "1"}}
    write_row(tmp_path, "key-1",
              json.dumps(corrupt[text], sort_keys=True) if text in corrupt else text)
    keys = [f"key-{i}" for i in range(5)]
    got = store.get_many(keys)
    assert got == {key: store.get(key) for key in keys}
    assert [key for key in keys if got[key] is None] == ["key-1", "key-4"]
    assert got["key-0"] == {"value": 0, "key": "key-0", "version": cache.MODEL_VERSION}
    assert cache.CacheStore(tmp_path / "none").get_many(keys) == dict.fromkeys(keys)


@pytest.mark.parametrize("interrupt", [RuntimeError, KeyboardInterrupt])
def test_batch_is_written_when_its_block_raises(tmp_path, interrupt):
    from loopforge.cache import CacheStore, batched_writes

    with pytest.raises(interrupt):
        with batched_writes():
            CacheStore(tmp_path).put("some-key", {"value": 3})
            raise interrupt
    assert json.loads(cache_rows(tmp_path)["some-key"])["value"] == 3
    # the batch is closed: the next write goes through at once
    CacheStore(tmp_path).put("other-key", {"value": 4})
    assert set(cache_rows(tmp_path)) == {"some-key", "other-key"}


def test_batch_holds_no_lock_between_writes(tmp_path, monkeypatch):
    """Each BATCH_ROWS rows are written in one transaction, and between
    those writes another process can write at once (`timeout=0` fails
    instead of waiting for a lock)."""
    import sqlite3

    from loopforge import cache

    monkeypatch.setattr(cache, "BATCH_ROWS", 2)
    store = cache.CacheStore(tmp_path)
    with cache.batched_writes():
        for i in range(3):
            store.put(f"key-{i}", {"value": i})
        assert set(cache_rows(tmp_path)) == {"key-0", "key-1"}  # key-2 is kept
        with contextlib.closing(sqlite3.connect(tmp_path / cache.DATABASE, timeout=0,
                                                isolation_level=None)) as other:
            other.execute("INSERT INTO entries (key, entry) VALUES ('foreign', '{}')")
    assert set(cache_rows(tmp_path)) == {"key-0", "key-1", "key-2", "foreign"}


def _reads_through(directory, connection_id: int) -> bool:
    """In a forked worker: read the cache, and tell whether the read went
    through the connection object the parent had open."""
    from loopforge.cache import CacheStore

    store = CacheStore(directory)
    assert store.get("some-key")["value"] == 3
    return id(store._connection(write=False)) == connection_id


def test_forked_worker_opens_its_own_connection(tmp_path):
    from loopforge.cache import CacheStore

    store = CacheStore(tmp_path)
    store.put("some-key", {"value": 3})
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
        call = pool.submit(_reads_through, str(tmp_path), id(store._connection(write=False)))
        assert call.result() is False


PINNED_KEYS = Path(__file__).with_name("pinned_cache_keys.json")


def _written_keys(cache_dir) -> list[str]:
    """Run a fixed set of queries on an empty cache; return the sorted keys
    of the entries they wrote.  The walk asks the oracle only about prefixes
    it cannot draw below k, so the reference walk issues the segment queries
    of every prefix, as the walk did when the keys were pinned."""
    config = OracleConfig(cache_dir=cache_dir)
    alpha2 = GapAlphabet(2)
    reference_core_candidates(3, length_cap(3, 2), alpha2, config)
    catalog = enumerate_classes(2, 3, config)
    compatibility_graph(catalog, config)
    segment_self((2, 0, 1, 0, 2), alpha2, config)
    segment_self_at_least((V, 2, 1, 0, 1, 2), 3, alpha2, config)
    segment_pair((2, 0, 1), (1, 0, 2), NORTH, SOUTH, alpha2, config)
    pair_intersection_number(XLoopClass((0, 1)), XLoopClass((1, 0, 1, 0)), GapAlphabet(1), config)
    return sorted(json.loads(text)["key"] for text in cache_rows(cache_dir).values())


def test_cache_keys_pinned(tmp_path):
    """Cache keys are a file format: existing caches must keep hitting.  A
    key names its least form, and the reflection through v gave some
    queries a lesser one; an old cache keeps hitting on every key that is
    still the least form of its queries."""
    assert _written_keys(tmp_path) == json.loads(PINNED_KEYS.read_text())


def _reference_pair_key(n, kind, specs):
    """The pair key as first defined, with the reflection through v: the
    least of the 32 strings over curve swap, reversal of either curve,
    mirroring of both hemispheres and reflecting both curves."""

    def spec_forms(letters, hemi):
        arcs = len(letters) - 1
        rev_hemi = hemi if arcs % 2 == 1 else 1 - hemi
        return [(letters, hemi), (tuple(reversed(letters)), rev_hemi)]

    def text(letters):
        return ".".join(format_letter(a) for a in letters)

    (l1, h1), (l2, h2) = specs
    keys = []
    for reflect in (False, True):
        images = [(_reflected(ls, n) if reflect else ls, h) for ls, h in ((l1, h1), (l2, h2))]
        for a in spec_forms(*images[0]):
            for b in spec_forms(*images[1]):
                for first, second in ((a, b), (b, a)):
                    for mirror in (0, 1):
                        keys.append(
                            f"{text(first[0])}@{first[1] ^ mirror}"
                            f"~{text(second[0])}@{second[1] ^ mirror}"
                        )
    return f"n{n}|pair|{kind}|{min(keys)}"


def test_pair_key_transforms():
    """Every value-preserving transform of a curve pair gives one key, and it
    is the key of the reference formula.  Gap labels up to 12 order
    differently as strings ("10" < "2") than as numbers."""
    rng = random.Random(151)
    labels = range(13)

    def reverse(letters, hemi):
        # arc j lies in hemisphere hemi + j; the reversal starts on the last arc
        return letters[::-1], (hemi + len(letters)) % 2

    def key_of(specs):
        return _pair_form(12, *(_open_text(12, "seg", ls, (NORTH, SOUTH)[h]) for ls, h in specs))[0]

    for v_start, v_end, odd, hemi in itertools.product((False, True), repeat=4):
        for _ in range(8):
            letters = tuple(rng.choice(labels) for _ in range(2 * rng.randint(1, 4) + odd))
            letters = (V,) * v_start + letters[v_start:len(letters) - v_end] + (V,) * v_end
            other = tuple(rng.choice(labels) for _ in range(rng.randint(1, 8)))
            specs = ((letters, int(hemi)), (other, rng.randint(0, 1)))
            key = key_of(specs)
            assert key == _reference_pair_key(12, "seg", specs)
            # the texts of the curves compose the key either way round
            assert key_of(specs[::-1]) == key
            for swap, rev1, rev2, mirror, reflect in itertools.product((False, True), repeat=5):
                first, second = specs[::-1] if swap else specs
                first = reverse(*first) if rev1 else first
                second = reverse(*second) if rev2 else second
                moved = tuple((_reflected(ls, 12) if reflect else ls, h ^ mirror)
                              for ls, h in (first, second))
                assert key_of(moved) == key, (specs, moved)


def test_reflecting_one_curve_of_a_pair_changes_the_key(nocache_config):
    """The reflection through v acts on both curves of a pair together.
    Reflected alone, one curve may cross the other more or less often, so
    such a pair has another key: `v 2 0 2 v` crosses its own reflection
    `v 2 1 2 v` never, and itself twice.  Reflecting both keeps the key."""
    n, same, other = 2, (V, 2, 0, 2, V), (V, 2, 1, 2, V)
    assert _reflected(same, n) == other

    def form(c1, c2):
        return _pair_form(n, *(_open_text(n, "v", c, NORTH) for c in (c1, c2)))

    assert form(same, other)[0] != form(same, same)[0]
    assert form(other, other)[0] == form(same, same)[0]
    assert form(other, same)[0] == form(same, other)[0]
    for (c1, c2), want in (((same, other), 0), ((same, same), 2), ((other, other), 2)):
        got = oracle._solve(n, *form(c1, c2), nocache_config)
        assert got.value == want == naive.pair((c1, False, 0), (c2, False, 0), n=n)
        assert count_crossings(got.witness) == want


def _eight_string_pair_form(n, kind, curves):
    """The key and `_Form.of` arguments of a pair query on two open curves
    as first composed, with the reflection through v: for the curves and
    for their images, format the eight strings "p@0~q@d" of a traversal p
    of one curve, one q of the other and their relative hemisphere d, and
    take the least (string, reflected, p, q), p and q as (text, hemisphere,
    curve, reversed).  Each curve is (letters, closed, hemisphere)."""
    candidates = []
    for reflect in (False, True):
        parts = []
        for i, (letters, _, hemisphere) in enumerate(curves):
            hemi = (NORTH, SOUTH).index(hemisphere)
            image = _reflected(letters, n) if reflect else letters
            parts.append([(".".join(map(format_letter, image)), hemi, i, False),
                          (".".join(map(format_letter, image[::-1])),
                           hemi ^ (len(letters) % 2), i, True)])
        candidates += [(f"{p[0]}@0~{q[0]}@{p[1] ^ q[1]}", reflect, p, q)
                       for x in parts[0] for y in parts[1] for p, q in ((x, y), (y, x))]
    text, reflect, (_, hf, i, ri), (_, hs, j, rj) = min(candidates)
    return f"n{n}|pair|{kind}|{text}", (
        n, [tuple(curves)], ((i, 0, ri), (j, 0, rj)), [(NORTH, (NORTH, SOUTH)[hf ^ hs])],
        reflect)


def test_pair_form_matches_eight_string_formula(config):
    """The key and form of every pair of the k=5 graph, and of pairs whose
    strings tie (a curve with itself, palindromes, equal letters in other
    hemispheres), are those of the eight-string formula, whose ties decide
    the order of the form's curves."""
    texts = [oracle._class_text(e.loop_class, 2) for e in enumerate_classes(2, 5, config).entries]
    pairs = [(t1, t2) for i, t1 in enumerate(texts) for t2 in texts[i:]]
    words = [(V, 2, V), (V, 2, 0, 2, V), (V, 2, 0, 1, 0, 2, V), (2, 0, 2), (2, 0, 0, 2),
             (V, 1, 0, 1), (1, 0, 1, V), (0, 1), (1, 0), (V, V)]
    seg = [_open_text(2, "seg", letters, hemi) for letters in words for hemi in (NORTH, SOUTH)]
    pairs += [(t1, t2) for t1 in seg for t2 in seg]
    assert len(pairs) > 3160
    for t1, t2 in pairs:
        assert _pair_form(2, t1, t2) == _eight_string_pair_form(2, t1[0], (t1[2], t2[2]))
