import itertools
import json
import random
from pathlib import Path

import pytest

import naive_reference as naive
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
    minimize_crossings,
    pair_intersection_number,
    parse_word,
    reduce_word,
    segment_pair_intersections,
    segment_self_at_least,
    segment_self_intersections,
    self_intersection_number,
)
from loopforge.words import NORTH, SOUTH, V


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
    res = segment_pair_intersections((0, 1), (V, 2), NORTH, NORTH, alpha2, config)
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
        got = segment_self_intersections(letters, alpha2, nocache_config)
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


def test_segment_threshold_agrees_with_exact(config, alpha2):
    rng = random.Random(139)
    for _ in range(40):
        letters = tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(2, 6)))
        exact = segment_self_intersections(letters, alpha2, config).value
        for k in (1, 2, 3):
            verdict = segment_self_at_least(letters, k, alpha2, config)
            assert verdict == (exact >= k), (letters, k)


def test_segment_threshold_outcomes(tmp_path):
    # the segment's minimum is 5; two budget units decide neither threshold
    letters = (V, 2, 0, 1, 0, 1, 0, 1, 2)
    for k, decided, stored in ((5, True, {"at_least": 5}), (6, False, {"upper": 5})):
        cache = tmp_path / f"k{k}"
        config = OracleConfig(budget=2, cache_dir=cache)
        assert segment_self_at_least(letters, k, GapAlphabet(2), config) is None
        assert not cache.exists()  # an undecided search caches nothing
        config = OracleConfig(budget=50, cache_dir=cache)
        assert segment_self_at_least(letters, k, GapAlphabet(2), config) is decided
        [entry] = [json.loads(p.read_text()) for p in cache.iterdir()]
        assert {f: v for f, v in entry.items() if f not in ("key", "version")} == stored


def test_repeated_letter_words(nocache_config):
    # every gap holds an internal chord here, so no gap qualifies for the
    # subset DP and the search runs on permutations alone
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
        CurveSpec((0, 1), False, "X")


def test_drawing_json_round_trip(config, alpha2):
    res = _selfint_v((2, 0, 1, 2), config)
    reloaded = Drawing.from_json(res.witness.to_json())
    assert reloaded == res.witness
    assert count_crossings(reloaded, "self") == res.value


# -- budget and cache -------------------------------------------------------------


def test_budget_exhaustion_flags_inexact():
    config = OracleConfig(budget=2, use_cache=False)
    res = _selfint_v((2, 0, 1, 0, 1, 0, 1, 2), config)
    assert not res.exact
    # the reported value is an upper bound realized by a drawing
    assert count_crossings(res.witness, "self") == res.value
    assert res.value >= 8


def test_cache_round_trip(tmp_path):
    config = OracleConfig(cache_dir=tmp_path)
    first = _selfint_v((2, 0, 1, 2), config)
    second = _selfint_v((2, 0, 1, 2), config)
    assert first == second
    assert any(tmp_path.iterdir())
    # cached entries survive for the reversed word too
    rev = _selfint_v((2, 1, 0, 2), config)
    assert rev.value == first.value


def test_cache_versioning(tmp_path):
    from loopforge.cache import CacheStore

    store = CacheStore(tmp_path)
    store.put("some-key", {"value": 3})
    assert store.get("some-key")["value"] == 3
    assert store.get("other-key") is None
    store.merge("some-key", {"at_least": 2})
    store.merge("some-key", {"at_least": 1})
    assert store.get("some-key")["at_least"] == 2


PINNED_KEYS = Path(__file__).with_name("pinned_cache_keys.json")


def _written_keys(cache_dir) -> list[str]:
    """Run a fixed set of queries on an empty cache; return the sorted keys
    of the entries they wrote."""
    config = OracleConfig(cache_dir=cache_dir)
    alpha2 = GapAlphabet(2)
    catalog = enumerate_classes(2, 3, config)
    compatibility_graph(catalog, config)
    segment_self_intersections((2, 0, 1, 0, 2), alpha2, config)
    segment_self_at_least((V, 2, 1, 0, 1, 2), 3, alpha2, config)
    segment_pair_intersections((2, 0, 1), (1, 0, 2), NORTH, SOUTH, alpha2, config)
    pair_intersection_number(XLoopClass((0, 1)), XLoopClass((1, 0, 1, 0)), GapAlphabet(1), config)
    return sorted(json.loads(p.read_text())["key"] for p in Path(cache_dir).glob("*.json"))


def test_cache_keys_pinned(tmp_path):
    """Cache keys are a file format: existing caches must keep hitting."""
    assert _written_keys(tmp_path) == json.loads(PINNED_KEYS.read_text())
