import itertools
import random

import pytest

from loopforge import (
    GapAlphabet,
    PreconditionError,
    VLoopClass,
    Word,
    XLoopClass,
    canon_v,
    canon_x,
    parse_word,
    reduce_word,
)
from free_group_reference import format_generators, from_free_group, multiply, to_free_group
from loopforge.words import NORTH, SOUTH


def test_canon_x_trivial():
    assert canon_x(Word.x_word((0, 1, 1, 0))) == canon_x(Word.x_word(()))


def test_canon_x_reduced():
    assert canon_x(Word.x_word((0, 1))).reduced == (0, 1)
    assert canon_x(Word.x_word((0, 1, 2, 0))).reduced == (0, 1, 2, 0)


def test_canon_x_rejects_v_word(alpha2):
    with pytest.raises(PreconditionError):
        canon_x(parse_word("v 2 v", alpha2))


def test_canon_v_examples(alpha2):
    c = canon_v(parse_word("v 2 1 0 2 v", alpha2), NORTH)
    assert c == VLoopClass((2, 1, 0, 2), NORTH)

    c = canon_v(parse_word("v 0 2 1 0 2 1 v", alpha2), NORTH)
    assert c == VLoopClass((2, 1, 0, 2), SOUTH)

    c = canon_v(parse_word("v v", alpha2), SOUTH)
    assert c == VLoopClass((), SOUTH)


def test_equivalent(alpha2):
    # words name the same class exactly when their descriptors are equal
    assert canon_x(Word.x_word((0, 1, 1, 0))) == canon_x(Word.x_word(()))
    w = parse_word("v 2 1 0 2 v", alpha2)
    assert canon_v(w, NORTH) != canon_v(w, SOUTH)
    assert canon_x(Word.x_word((0, 1))) != canon_x(Word.x_word((1, 2)))


def test_canon_v_prefix_invariance():
    """Padding the core with basepoint-adjacent letters and flipping the
    stated hemisphere once per leading letter names the same class."""
    rng = random.Random(11)
    for _ in range(300):
        core_len = rng.randint(1, 5)
        core = [2]
        while len(core) < core_len:
            core.append(rng.choice([a for a in (0, 1, 2) if a != core[-1]]))
        if core[-1] in (0, 1):
            core.append(2)
        core = tuple(core)
        x = []
        while len(x) < rng.randint(0, 4):
            choices = [a for a in (0, 1) if not x or a != x[-1]]
            x.append(rng.choice(choices))
        if x and x[-1] == core[0]:
            x = x[:-1]
        z = []
        while len(z) < rng.randint(0, 4):
            choices = [a for a in (0, 1) if not z or a != z[-1]]
            z.append(rng.choice(choices))
        if z and core[-1] == z[0]:
            z = z[1:]
        padded = Word.v_word(tuple(x) + core + tuple(z))
        h = rng.choice((NORTH, SOUTH))
        expected_h = h if len(x) % 2 == 0 else (SOUTH if h == NORTH else NORTH)
        assert canon_v(padded, h) == VLoopClass(core, expected_h)


# -- generator-string bijection -------------------------------------------------


def test_to_free_group_examples():
    assert to_free_group(Word.x_word((0, 1))) == ((1, 1),)
    assert to_free_group(Word.x_word((0, 1, 2, 0))) == ((1, 1), (2, -1), (1, -1))
    assert to_free_group(Word.x_word(())) == ()


def test_format_generators():
    gens = to_free_group(Word.x_word((0, 1, 2, 0)))
    assert format_generators(gens) == "g1 g2^-1 g1^-1"
    assert format_generators(()) == "1"


def test_from_free_group_examples():
    assert from_free_group(((1, 1),)).letters == (0, 1)
    assert from_free_group(()).letters == ()
    assert from_free_group(((1, 1), (2, -1), (1, -1))).letters == (0, 1, 2, 0)


def test_from_free_group_rejects_unreduced():
    with pytest.raises(PreconditionError):
        from_free_group(((1, 1), (1, -1)))


def test_to_free_group_rejects_adjacent_repeat():
    with pytest.raises(PreconditionError):
        to_free_group(Word.x_word((0, 0)))


def _reduced_x_words(n, max_len):
    """All reduced x-words over gaps 0..n up to the given length."""
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for a in range(n + 1):
                if not w or w[-1] != a:
                    new.append(w + (a,))
        frontier = new
        out.extend(w for w in new if len(w) % 2 == 0)
    return [w for w in out if len(w) % 2 == 0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_free_group_round_trip_and_injectivity(n):
    seen = {}
    for letters in _reduced_x_words(n, 8 if n < 3 else 6):
        word = Word.x_word(letters)
        gens = to_free_group(word)
        assert from_free_group(gens) == word
        assert gens not in seen, (letters, seen.get(gens))
        seen[gens] = letters


def test_round_trip_matches_reduction_on_random_words():
    rng = random.Random(23)
    for _ in range(300):
        letters = tuple(rng.choice((0, 1, 2, 3)) for _ in range(2 * rng.randint(0, 6)))
        reduced = reduce_word(Word.x_word(letters)).word
        gens = to_free_group(reduced)
        assert from_free_group(gens) == reduced


def test_group_law():
    """Mapping the reduced concatenation equals multiplying the images."""
    rng = random.Random(31)
    for _ in range(300):
        w1 = tuple(rng.choice((0, 1, 2)) for _ in range(2 * rng.randint(0, 4)))
        w2 = tuple(rng.choice((0, 1, 2)) for _ in range(2 * rng.randint(0, 4)))
        r1 = reduce_word(Word.x_word(w1)).word
        r2 = reduce_word(Word.x_word(w2)).word
        concat = reduce_word(Word.x_word(r1.letters + r2.letters)).word
        assert to_free_group(concat) == multiply(to_free_group(r1), to_free_group(r2))
