import functools
import json
import random

import pytest
from click.testing import CliRunner

from loopforge import (
    NORTH,
    CurveSpec,
    GapAlphabet,
    OracleConfig,
    PreconditionError,
    V,
    VLoopClass,
    Word,
    all_maximal_spans,
    canon_v,
    has_adjacent_repeat,
    maximal_two_letter_words,
    parse_letters,
    parse_word,
    reduce_word,
)
from loopforge.cli import main
from segment_queries import segment_pair
from snail_reference import orientation
from loopforge.words import reduce_adjacent_pairs


def test_parse_v_word(alpha2):
    w = parse_word("v 2 1 0 2 v", alpha2)
    assert w.kind == "v"
    assert w.letters == (V, 2, 1, 0, 2, V)
    assert w.inner() == (2, 1, 0, 2)


def test_parse_dot_separated(alpha2):
    assert parse_word("v.2.1.0.2.v", alpha2) == parse_word("v 2 1 0 2 v", alpha2)


def test_parse_x_word(alpha2):
    w = parse_word("0 1", alpha2)
    assert w.kind == "x"
    assert w.letters == (0, 1)


def test_parse_rejects_interior_v(alpha2):
    with pytest.raises(PreconditionError):
        parse_word("v 2 v 2 v", alpha2)


def test_parse_rejects_one_sided_v(alpha2):
    with pytest.raises(PreconditionError):
        parse_word("v 2 1", alpha2)
    # a lone 'v' has no interior
    with pytest.raises(PreconditionError, match="both ends or not at all"):
        parse_word("v", alpha2)


BOTH_ENDS = "'v' must appear at both ends or not at all"
INTERIOR = "'v' in the interior of the word"


def _refused_by_cli(text: str) -> None:
    result = CliRunner().invoke(main, ["reduce", "--n", "2", text], catch_exceptions=False)
    assert result.exit_code == 2
    raise PreconditionError(json.loads(result.output)["error"]["message"])


def _word_rule_cases():
    """Each word rule refused through every way in: (call, message)."""
    alpha2 = GapAlphabet(2)
    for text, message in (("2 v", BOTH_ENDS), ("v 2 v 2", BOTH_ENDS), ("v", BOTH_ENDS),
                          ("v 2 v 2 v", INTERIOR), ("v v v", INTERIOR)):
        letters = parse_letters(text, alpha2)
        calls = {"parse_word": functools.partial(parse_word, text, alpha2),
                 "Word": functools.partial(Word, letters, "v"),
                 "cli": functools.partial(_refused_by_cli, text)}
        if len(letters) >= 2 and letters[0] == letters[-1] == V:
            calls["v_word"] = functools.partial(Word.v_word, letters[1:-1])
        for way, call in calls.items():
            yield pytest.param(call, message, id=f"{way}:{text}")
    calls = {"VLoopClass": functools.partial(VLoopClass, (2,), "X"),
             # stripped prefix parity 0, then 1
             "canon_v-even": functools.partial(canon_v, Word.v_word((2,)), "X"),
             "canon_v-odd": functools.partial(canon_v, Word.v_word((0, 2)), "X"),
             "CurveSpec": functools.partial(CurveSpec, (0, 1), True, "X"),
             "segment_pair": functools.partial(segment_pair, (2, 0), (1, 2), "X", NORTH, alpha2,
                                               OracleConfig(use_cache=False))}
    for way, call in calls.items():
        yield pytest.param(call, "bad hemisphere 'X'", id=way)


@pytest.mark.parametrize("call, message", _word_rule_cases())
def test_word_rule_has_one_message(call, message):
    with pytest.raises(PreconditionError) as refused:
        call()
    assert str(refused.value) == message


def test_parse_rejects_odd_x_word(alpha2):
    with pytest.raises(PreconditionError):
        parse_word("0 1 2", alpha2)


def test_parse_rejects_unknown_token(alpha2):
    with pytest.raises(PreconditionError):
        parse_word("0 w", alpha2)
    with pytest.raises(PreconditionError):
        parse_word("0 7", alpha2)


# -- patterns -----------------------------------------------------------------


def test_pattern_aa(alpha2):
    assert not has_adjacent_repeat(parse_word("v 2 1 0 2 v", alpha2))
    assert has_adjacent_repeat((0, 0))
    assert has_adjacent_repeat((2, 0, 1, 1, 2))
    assert not has_adjacent_repeat((1, 2, 1))
    assert not has_adjacent_repeat(())


def test_pattern_skips_basepoint_ends(alpha2):
    # the check applies to the inner letters of a based word
    assert not has_adjacent_repeat(parse_word("v 2 v", alpha2))
    assert not has_adjacent_repeat(parse_word("v v", alpha2))


# -- reduction ----------------------------------------------------------------


def test_reduce_x_word_full_cancellation():
    red = reduce_word(Word.x_word((0, 1, 1, 0)))
    assert red.word.letters == ()
    assert red.stripped_prefix_parity == 0


def test_reduce_v_word_strips_ends(alpha2):
    red = reduce_word(parse_word("v 0 2 1 0 2 1 v", alpha2))
    assert red.word == parse_word("v 2 1 0 2 v", alpha2)
    assert red.stripped_prefix_parity == 1


def test_reduce_fixed_point(alpha2):
    red = reduce_word(parse_word("v 2 1 0 2 v", alpha2))
    assert red.word == parse_word("v 2 1 0 2 v", alpha2)
    assert red.stripped_prefix_parity == 0


def test_reduce_all_basepoint_adjacent():
    # whole inner word over {0,1}: its full length counts as prefix
    red = reduce_word(Word.v_word((0, 1, 0)))
    assert red.word.inner() == ()
    assert red.stripped_prefix_parity == 1


def test_reduce_idempotent_random():
    rng = random.Random(1)
    for _ in range(300):
        inner = tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(0, 12)))
        red = reduce_word(Word.v_word(inner))
        again = reduce_word(red.word)
        assert again.word == red.word
        assert again.stripped_prefix_parity == 0


def _random_interleaved_reduction(rng, inner):
    """Apply pair deletions and end strips in random order to a fixpoint,
    counting leading strips (a word left entirely over {0, 1} strips as
    prefix, following the core-empty convention)."""
    word = list(inner)
    lead = 0
    while True:
        moves = []
        for i in range(len(word) - 1):
            if word[i] == word[i + 1]:
                moves.append(("pair", i))
        if word and all(a in (0, 1) for a in word):
            moves.append(("all", None))
        else:
            if word and word[0] in (0, 1):
                moves.append(("head", None))
            if word and word[-1] in (0, 1):
                moves.append(("tail", None))
        if not moves:
            return tuple(word), lead % 2
        kind, i = moves[rng.randrange(len(moves))]
        if kind == "pair":
            del word[i : i + 2]
        elif kind == "all":
            lead += len(word)
            word.clear()
        elif kind == "head":
            lead += 1
            del word[0]
        else:
            del word[-1]


def test_reduce_confluence_random_orders():
    """Any order of deletions and strips yields the same core; the prefix
    parity is order-independent whenever the core is nonempty (words that
    cancel completely keep the fixed pairs-first convention)."""
    rng = random.Random(7)
    for _ in range(500):
        inner = tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(0, 12)))
        red = reduce_word(Word.v_word(inner))
        got_word, got_parity = _random_interleaved_reduction(rng, inner)
        assert got_word == red.word.inner(), inner
        if got_word:
            assert got_parity == red.stripped_prefix_parity, inner


def test_reduce_adjacent_pairs_order_independent():
    rng = random.Random(5)
    for _ in range(200):
        letters = [rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(0, 12))]
        expected = reduce_adjacent_pairs(tuple(letters))
        # delete random pairs until none remain
        word = list(letters)
        while True:
            sites = [i for i in range(len(word) - 1) if word[i] == word[i + 1]]
            if not sites:
                break
            i = sites[rng.randrange(len(sites))]
            del word[i : i + 2]
        assert tuple(word) == expected


# -- orientation --------------------------------------------------------------


def test_orientation_known_triples(alpha2):
    assert orientation(0, V, 1, alpha2) == orientation(0, 1, 2, alpha2)
    assert orientation(V, 1, 2, alpha2) == orientation(0, 1, 2, alpha2)
    assert orientation(1, 0, 2, alpha2) == -orientation(0, 1, 2, alpha2)


def test_orientation_cyclic_and_antisymmetric(alpha2):
    import itertools

    points = [V, 0, 1, 2]
    for a, b, c in itertools.permutations(points, 3):
        assert orientation(a, b, c, alpha2) == orientation(b, c, a, alpha2)
        assert orientation(a, b, c, alpha2) == -orientation(c, b, a, alpha2)


def test_orientation_rejects_repeats(alpha2):
    with pytest.raises(PreconditionError):
        orientation(0, 0, 1, alpha2)


# -- maximal two-letter subwords ------------------------------------------------


def test_maximal_spans_example():
    letters = (2, 0, 1, 0, 2, 1, 2)
    spans = all_maximal_spans(letters)
    texts = ["".join(str(x) for x in letters[s.start:s.end + 1]) for s in spans]
    assert texts == ["20", "010", "02", "212"]


def test_maximal_spans_fixed_pair():
    letters = (2, 0, 1, 0, 2, 1, 2)
    spans = maximal_two_letter_words(letters, 0, 1)
    assert len(spans) == 1
    assert (spans[0].start, spans[0].end) == (1, 3)


def test_single_letter_yields_no_span():
    assert maximal_two_letter_words((2,), 0, 2) == []
    assert maximal_two_letter_words((2, 1, 2), 0, 2) == []


def test_spans_disjoint_and_cover():
    rng = random.Random(3)
    for _ in range(200):
        letters = [rng.choice((0, 1, 2))]
        while len(letters) < rng.randint(2, 12):
            letters.append(rng.choice([x for x in (0, 1, 2) if x != letters[-1]]))
        letters = tuple(letters)
        spans = all_maximal_spans(letters)
        by_pair = {}
        covered = set()
        for s in spans:
            by_pair.setdefault((s.a, s.b), []).append(s)
            covered.update(range(s.start, s.end + 1))
        for pair_spans in by_pair.values():
            pair_spans.sort(key=lambda s: s.start)
            for s1, s2 in zip(pair_spans, pair_spans[1:]):
                assert s1.end < s2.start
        assert covered == set(range(len(letters)))
        ordered = sorted(spans, key=lambda s: s.start)
        for s1, s2 in zip(ordered, ordered[1:]):
            assert s2.start == s1.end  # consecutive spans share one letter
