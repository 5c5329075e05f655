import itertools
import json
import math
import random
from pathlib import Path

import pytest

from loopforge import (
    PreconditionError,
    count_vectors_exact,
    decompose,
    m_vector_count,
    multinomial,
    z_vector,
)
from expansion_reference import (
    apply_expansion,
    multiplicity_profile,
    profile_feasible,
    reassemble,
    tail_multiplicities,
    z_majorizes,
)
from loopforge.bounds import depth_family_bound
from loopforge.expansion import shrink_core, sweep_rows, tail_cap
from loopforge.extremal import expansion_letter_budget, length_cap


# -- decomposition ----------------------------------------------------------------


def test_decompose_examples():
    dec = decompose((2, 0, 1, 0, 1, 0, 1, 2))
    assert dec.core == (2, 0, 1, 2)
    assert dec.vectors[(0, 1)] == (2,)

    dec = decompose((2, 0, 1, 0, 2, 1, 2))
    assert dec.core == (2, 0, 1, 0, 2, 1, 2)
    assert all(all(s == 0 for s in v) for v in dec.vectors.values())

    dec = decompose((0, 1, 0, 1))
    assert dec.core == (0, 1)
    assert dec.vectors[(0, 1)] == (1,)


def test_decompose_rejects_adjacent_repeats():
    with pytest.raises(PreconditionError):
        decompose((0, 0, 1))


def test_apply_expansion_examples():
    assert apply_expansion((2, 0, 1, 2), (0, 1), (2,)) == (2, 0, 1, 0, 1, 0, 1, 2)
    assert apply_expansion((2, 0, 1, 2), (0, 1), (0,)) == (2, 0, 1, 2)
    assert apply_expansion((0, 1), (0, 1), (1,)) == (0, 1, 0, 1)


def test_apply_expansion_checks_length():
    with pytest.raises(PreconditionError):
        apply_expansion((2, 0, 1, 2), (0, 1), (1, 1))
    with pytest.raises(PreconditionError):
        apply_expansion((2, 0, 1, 2), (0, 1), (-1,))


def _no_repeat_words(alphabet, max_len):
    frontier = [(a,) for a in alphabet]
    yield ()
    while frontier:
        new = []
        for w in frontier:
            yield w
            if len(w) < max_len:
                new.extend(w + (a,) for a in alphabet if a != w[-1])
        frontier = new


def test_round_trip_exhaustive():
    # every word without adjacent repeats over three letters, length <= 10
    count = 0
    for word in _no_repeat_words((0, 1, 2), 10):
        dec = decompose(word)
        assert reassemble(dec) == word, word
        count += 1
    assert count == 1 + 3 * (2**10 - 1)  # sanity: all words were visited


def test_shrink_core_is_period2_free():
    rng = random.Random(17)
    for _ in range(200):
        word = [rng.choice((0, 1, 2))]
        while len(word) < rng.randint(1, 14):
            word.append(rng.choice([a for a in (0, 1, 2) if a != word[-1]]))
        core = shrink_core(tuple(word))
        for i in range(len(core) - 3):
            assert not (core[i] == core[i + 2] and core[i + 1] == core[i + 3])


def test_expansion_order_independent():
    rng = random.Random(19)
    for _ in range(100):
        word = [rng.choice((0, 1, 2))]
        while len(word) < rng.randint(1, 12):
            word.append(rng.choice([a for a in (0, 1, 2) if a != word[-1]]))
        dec = decompose(tuple(word))
        for order in itertools.permutations(sorted(dec.vectors)):
            rebuilt = dec.core
            for pair in order:
                rebuilt = apply_expansion(rebuilt, pair, dec.vectors[pair])
            assert rebuilt == tuple(word)


# -- the forced-crossing count of a vector ------------------------------------------


def test_expansion_lower_bound_examples():
    assert depth_family_bound((1, 1)) == 4
    assert depth_family_bound((2, 1)) == 5
    assert depth_family_bound((0, 0, 0)) == 0
    assert depth_family_bound(()) == 0
    # random vectors against the O(m^2) definition
    rng = random.Random(31)
    for _ in range(500):
        vec = tuple(rng.randint(0, 12) for _ in range(rng.randint(0, 12)))
        pairs = sum(min(a, b) for a, b in itertools.combinations(vec, 2))
        assert depth_family_bound(vec) == sum(vec) + 2 * pairs


def test_expansion_lower_bound_tail_identity():
    rng = random.Random(29)
    for _ in range(1000):
        length = rng.randint(0, 10)
        vec = tuple(rng.randint(0, 10) for _ in range(length))
        top = max(vec, default=0)
        tails = tail_multiplicities(vec, top)
        assert depth_family_bound(vec) == sum(t * t for t in tails)


def test_multiplicity_profile():
    assert multiplicity_profile((2, 1), 3) == (0, 1, 1, 0)
    assert multiplicity_profile((), 2) == (0, 0, 0)


# -- exact counting ------------------------------------------------------------------


def _count_brute(length, k):
    if length == 0:
        return 1
    total = 0
    for vec in itertools.product(range(k), repeat=length):
        if depth_family_bound(vec) < k:
            total += 1
    return total


def test_count_vectors_exact_examples():
    assert count_vectors_exact(2, 3) == 5
    assert count_vectors_exact(1, 3) == 3
    assert count_vectors_exact(0, 7) == 1


def test_count_vectors_matches_brute_force():
    for length in range(0, 5):
        for k in range(1, 11):
            assert count_vectors_exact(length, k) == _count_brute(length, k), (length, k)


def test_count_vectors_large_inputs():
    # big-integer safe and monotone in both arguments
    assert count_vectors_exact(40, 30) > count_vectors_exact(39, 30)
    assert count_vectors_exact(40, 30) > count_vectors_exact(40, 29)


# -- majorizing vector -----------------------------------------------------------------


def test_z_vector_examples():
    assert z_vector(8, 9) == (5, 1, 1, 0, 0, 0, 0, 0, 0, 1)
    assert sum(z_vector(8, 9)) == 8
    assert z_vector(4, 9) == (1, 1, 1, 0, 0, 0, 0, 0, 0, 1)
    assert z_vector(2, 1) == (1, 1)


def test_z_vector_threshold():
    with pytest.raises(PreconditionError):
        z_vector(3, 9)  # needs at least 2*3 - 2 = 4


def test_tail_cap_is_floor_sqrt_k_over_t():
    for k in range(1, 301):
        for t in range(1, k + 1):
            m = tail_cap(k, t)
            assert m * m * t <= k < (m + 1) ** 2 * t, (k, t)


PINNED_FORMULAS = Path(__file__).with_name("pinned_expansion_formulas.json")


def test_formulas_match_pinned_values():
    """length_cap(k, 2), expansion_letter_budget(k), z_vector(L, k) (null
    below its threshold) and m_vector_count(L, k) for k <= 40 and L <= 12,
    pinned from the version that spelled out the tail cap at each use."""

    def z(length, k):
        try:
            return list(z_vector(length, k))
        except PreconditionError:
            return None

    for row in json.loads(PINNED_FORMULAS.read_text()):
        k = row["k"]
        assert length_cap(k, 2) == row["lengthCap"], k
        assert expansion_letter_budget(k) == row["letterBudget"], k
        assert [z(length, k) for length in range(13)] == row["zVector"], k
        assert [list(m_vector_count(length, k)) for length in range(13)] == row["mVectorCount"], k


def test_multinomial():
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(5, (5,)) == 1
    assert multinomial(3, (1, 1, 1)) == 6
    with pytest.raises(PreconditionError):
        multinomial(4, (2, 1))


def _feasible_profiles(length, k):
    caps = [math.isqrt(k // t) for t in range(1, k + 1)]

    def rec(t, prev):
        if t > k:
            yield ()
            return
        for m in range(0, min(prev, caps[t - 1]) + 1):
            for rest in rec(t + 1, m):
                yield (m,) + rest

    for tails in rec(1, length):
        profile = [length - tails[0]] if tails else [length]
        for i in range(k):
            nxt = tails[i + 1] if i + 1 < k else 0
            profile.append(tails[i] - nxt)
        yield tuple(profile)


def test_z_majorizes_sweep():
    for k in range(1, 17):
        for length in range(0, 9):
            try:
                z_vector(length, k)
            except PreconditionError:
                continue
            for profile in _feasible_profiles(length, k):
                assert profile_feasible(profile, length, k)
                assert z_majorizes(profile, length, k), (profile, length, k)


def test_z_majorizes_is_equality_at_z():
    z = z_vector(8, 9)
    assert z_majorizes(z, 8, 9)


def test_m_vector_count_examples():
    exact, cap = m_vector_count(2, 1)
    assert exact == 2
    assert cap == 3
    assert m_vector_count(0, 5)[0] == 1


def test_m_vector_count_matches_enumeration_and_cap():
    for k in range(1, 13):
        for length in range(0, 8):
            exact, cap = m_vector_count(length, k)
            assert exact == sum(1 for _ in _feasible_profiles(length, k)), (length, k)
            assert exact <= cap


def test_counting_chain():
    """The exact vector count never exceeds the profile count times the
    majorizing multinomial."""
    for k in range(1, 17):
        for length in range(0, 9):
            try:
                z = z_vector(length, k)
            except PreconditionError:
                continue
            exact = count_vectors_exact(length, k)
            profiles, _ = m_vector_count(length, k)
            assert exact <= profiles * multinomial(length, z), (length, k)


def test_sweep_rows_shape():
    rows = sweep_rows(range(0, 3), range(1, 3))
    assert len(rows) == 6
    assert {"length", "k", "exactCount", "mVectorCount", "mVectorCap", "multinomialZ"} <= set(
        rows[0]
    )
