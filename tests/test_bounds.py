import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

from loopforge import (
    GapAlphabet,
    PreconditionError,
    Word,
    analytic_bounds,
    find_windings,
    parse_word,
    winding_self_lower_bound,
)
from snail_reference import Snail, find_snails, forced_arc_intersection, snail_pair_lower_bound
from loopforge.bounds import MAX_PRINTED_EXPONENT, _power_of_two_text, double_exp_exponent
from loopforge.words import NORTH, SOUTH, V


# -- forced arc intersections ----------------------------------------------------


def test_forced_example_fires(alpha2):
    assert forced_arc_intersection((0, 1), (V, 2), alpha2)


def test_forced_rejects_equal_ends(alpha2):
    with pytest.raises(PreconditionError):
        forced_arc_intersection((0, 1), (2, 1), alpha2)
    with pytest.raises(PreconditionError):
        forced_arc_intersection((0, 2), (1, 2), alpha2)


def test_forced_rejects_middle_mismatch(alpha2):
    with pytest.raises(PreconditionError):
        forced_arc_intersection((0, 1, 2), (2, 0, 1), alpha2)


def test_forced_degenerate_triple_is_false(alpha2):
    # 01 vs 10: the orientation triples repeat points; no claim is made
    assert not forced_arc_intersection((0, 1), (1, 0), alpha2)


# -- windings ---------------------------------------------------------------------


def test_windings_example_basepoint(alpha2):
    word = Word.v_word((2, 0, 1, 0, 2, 1, 2))
    found = find_windings(word, alpha2)
    assert [(w.obstacle, w.depth) for w in found] == [(1, 1), (2, 1)]
    w = found[0]
    assert (w.span.start, w.span.end) == (1, 3)
    assert w.form == "aba"
    # the trailing 212 block borders the basepoint on its right, which is a
    # valid border for the non-basepoint obstacle it circles
    assert (found[1].span.start, found[1].span.end) == (4, 6)


def test_windings_deep_block(alpha2):
    word = Word.v_word((2, 0, 1, 0, 1, 0, 1, 2))
    found = find_windings(word, alpha2)
    assert [(w.obstacle, w.depth) for w in found] == [(1, 2)]


def test_windings_none(alpha2):
    assert find_windings(Word.v_word((2, 0, 1, 2)), alpha2) == []


def test_windings_end_blocks(alpha2):
    # blocks away from the basepoint pair wind even when they touch the ends
    word = Word.v_word((2, 0, 2, 0, 2))
    found = find_windings(word, alpha2)
    assert [(w.obstacle, w.depth) for w in found] == [(0, 2)]


def test_basepoint_end_blocks_are_not_windings(alpha2):
    # a basepoint-adjacent block at a word end is snail material
    word = Word.v_word((0, 1, 0, 2))
    assert find_windings(word, alpha2) == []


def test_x_word_end_blocks_are_not_windings(alpha2):
    # an off-equator based word has no bordering crossing at its ends
    word = Word.x_word((0, 2, 0, 2))
    assert find_windings(word, alpha2) == []
    word = Word.x_word((1, 0, 2, 0, 2, 1))
    assert [(w.obstacle, w.depth) for w in find_windings(word, alpha2)] == [(0, 1)]


def test_winding_lb_values(alpha2):
    assert winding_self_lower_bound(Word.v_word((2, 0, 1, 0, 2)), alpha2) == 1
    # two depth-1 windings around one obstacle: 1 + 1 + 2*min = 4
    assert (
        winding_self_lower_bound(Word.v_word((2, 0, 1, 0, 2, 1, 0, 1, 2)), alpha2) == 4
    )
    assert winding_self_lower_bound(Word.v_word((2, 0, 1, 2)), alpha2) == 0
    # distinct obstacles do not add; the best single obstacle wins
    assert winding_self_lower_bound(Word.v_word((2, 0, 2, 1, 2, 0, 2)), alpha2) == 4


def test_winding_lb_obstacles_do_not_add(alpha2, config):
    """Regression: summing the per-obstacle bounds would claim 8 crossings
    for this word, but a drawing with 6 exists, so the aggregate must take
    the maximum."""
    from loopforge import self_intersection_number

    word = Word.v_word((2, 0, 2, 1, 2, 0, 2, 1, 2))
    lb = winding_self_lower_bound(word, alpha2)
    assert lb == 4
    res = self_intersection_number(word, alpha2, config)
    assert res.exact
    assert res.value == 6
    assert lb <= res.value


def test_winding_lb_rejects_adjacent_repeats(alpha2):
    with pytest.raises(PreconditionError):
        winding_self_lower_bound(Word.v_word((2, 2)), alpha2)


# -- snails -----------------------------------------------------------------------


def test_snail_start_and_end(alpha2):
    word = Word.v_word((0, 1, 0, 1, 0, 2, 1, 0))
    snails = find_snails(word, alpha2, NORTH)
    assert len(snails) == 2
    start, end = snails
    assert (start.depth, start.terminal, start.polarity) == (2, 2, NORTH)
    # reversed traversal: 0 1 2 ...; 8 letters so the last arc is northern
    assert (end.depth, end.terminal, end.polarity) == (0, 2, NORTH)


def test_snail_whole_word_terminal_is_basepoint(alpha2):
    word = Word.v_word((0, 1, 0, 1))
    snails = find_snails(word, alpha2, NORTH)
    assert snails[0].terminal == V
    assert snails[0].depth == 1
    # reversed: 1 0 1 0 -> negative direction
    assert snails[1].depth == -1
    assert snails[1].polarity == NORTH  # even inner length keeps the hemisphere


def test_snail_depth_parsing(alpha2):
    cases = {
        (0, 2): 0,
        (0, 1, 2): 0,
        (0, 1, 0, 2): 1,
        (0, 1, 0, 1, 2): 1,
        (1, 2): 0,
        (1, 0, 2): 0,
        (1, 0, 1, 2): -1,
        (1, 0, 1, 0, 1, 2): -2,
    }
    for inner, depth in cases.items():
        snails = find_snails(Word.v_word(inner), alpha2, NORTH)
        assert snails[0].depth == depth, inner


def test_no_snail_without_basepoint_prefix(alpha2):
    assert find_snails(Word.v_word((2, 0, 1, 2)), alpha2, NORTH) == []


def test_snail_pair_lower_bound():
    span = None
    make = lambda depth, terminal, pol: Snail(depth, terminal, pol, span)
    assert snail_pair_lower_bound(make(2, 2, NORTH), make(-1, 2, NORTH)) == 1
    assert snail_pair_lower_bound(make(5, 2, NORTH), make(2, 2, NORTH)) == 2
    assert snail_pair_lower_bound(make(0, 2, NORTH), make(3, 2, NORTH)) == 0
    # same direction with a basepoint terminal: no claim
    assert snail_pair_lower_bound(make(5, V, NORTH), make(2, 2, NORTH)) == 0
    # opposite direction allows basepoint terminals
    assert snail_pair_lower_bound(make(3, V, NORTH), make(-2, V, NORTH)) == 2
    assert snail_pair_lower_bound(make(1, 2, SOUTH), make(1, 2, SOUTH)) == 0
    with pytest.raises(PreconditionError):
        snail_pair_lower_bound(make(1, 2, NORTH), make(1, 2, SOUTH))


# -- family threshold and closed forms ---------------------------------------------


def test_family_bound_threshold():
    assert analytic_bounds(1, 1)["snailFamilyThreshold"] == "36"
    assert analytic_bounds(1, 2)["snailFamilyThreshold"] == "100"
    assert analytic_bounds(1, 5)["snailFamilyThreshold"] == "484"


def test_analytic_bounds_single_puncture():
    report = analytic_bounds(1, 3)
    assert report["fUpperSinglePuncture"] == "7"
    assert analytic_bounds(2, 3)["fUpperSinglePuncture"] is None


def test_analytic_bounds_double_exponential():
    report = analytic_bounds(2, 1)
    assert report["fUpperDoubleExp"]["exponent"] == "16"
    assert report["fUpperDoubleExp"]["value"] == str(2**16)


def test_analytic_bounds_sqrt_exponent():
    report = analytic_bounds(2, 8)
    assert report["fLowerSqrtExp"]["exponentSqrtArg"] == "16"
    assert report["fLowerSqrtExp"]["exponentExact"] == "4/3"
    # non-square argument keeps the root form without a rational exponent
    report = analytic_bounds(2, 3)
    assert report["fLowerSqrtExp"]["exponentSqrtArg"] == "6"
    assert report["fLowerSqrtExp"]["exponentExact"] is None


def test_analytic_bounds_ratio_case():
    report = analytic_bounds(10, 2)
    assert report["fLowerRatioPower"] == "5/1"
    assert analytic_bounds(1, 5)["fLowerRatioPower"] is None


def test_analytic_bounds_coefficients():
    report = analytic_bounds(2, 3)
    assert report["fFromG"] == {"coefficient": str(484 * 9), "argument": "15"}
    assert report["snailFamilyThreshold"] == str(4 * 49)


def test_analytic_bounds_json_big_numbers():
    data = analytic_bounds(2, 8)
    assert data["fUpperDoubleExp"]["exponent"] == str(16**4)
    # 2^65536 has ~20k digits; the decimal expansion is still emitted
    assert data["fUpperDoubleExp"]["value"] is None or isinstance(
        data["fUpperDoubleExp"]["value"], str
    )
    assert data["exact"] is True


def _reference_fractions(n, k):
    """exponentExact and fLowerRatioPower built with `Fraction`: root/3 for
    a square nk <= 2k^2, and (n/k)^(k-1) for n >= 2k, each as "p/q"."""
    def text(x):
        return None if x is None else f"{x.numerator}/{x.denominator}"

    root = math.isqrt(n * k)
    exact = Fraction(root, 3) if n <= 2 * k and root * root == n * k else None
    ratio = Fraction(n, k) ** (k - 1) if n >= 2 * k else None
    return text(exact), text(ratio)


def test_analytic_bounds_fractions_match_reference():
    for n in range(1, 13):
        for k in range(1, 13):
            report = analytic_bounds(n, k)
            sqrt_exp = report["fLowerSqrtExp"]
            exact = None if sqrt_exp is None else sqrt_exp["exponentExact"]
            assert (exact, report["fLowerRatioPower"]) == _reference_fractions(n, k), (n, k)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_analytic_bounds_restores_int_digit_limit():
    """Expanding 2^65536 lifts the interpreter's int/str digit limit for that
    one conversion only, and still prints every digit."""
    before = sys.get_int_max_str_digits()
    value = analytic_bounds(2, 8)["fUpperDoubleExp"]["value"]
    assert sys.get_int_max_str_digits() == before
    if before:
        with pytest.raises(ValueError):
            int("9" * (before + 1))
    assert len(value) == 19729
    assert value.startswith("20035299304068464649") and value.endswith("45587895905719156736")
    assert hashlib.sha256(value.encode()).hexdigest() == (
        "64829919027d6b545f931768c171c25c3022620a646a692116639aecb45f0ba8"
    )


def test_double_exp_value_printed_up_to_20000_digits():
    # 2^e has at most 20000 digits exactly when e <= MAX_PRINTED_EXPONENT
    assert 2**MAX_PRINTED_EXPONENT < 10**20000 <= 2 ** (MAX_PRINTED_EXPONENT + 1)
    assert _power_of_two_text(MAX_PRINTED_EXPONENT + 1) is None
    assert len(_power_of_two_text(MAX_PRINTED_EXPONENT)) == 20000
    for n in range(1, 4):
        for k in range(1, 13):
            assert double_exp_exponent(n, k) == (2 * k) ** (2 * n)
    # (2k)^(2n) = 66564 is the first exponent of a report past the cap
    report = analytic_bounds(1, 129)["fUpperDoubleExp"]
    assert report["exponent"] == str(double_exp_exponent(1, 129)) == "66564"
    assert report["value"] is None
    assert analytic_bounds(1, 128)["fUpperDoubleExp"]["value"] is not None


def test_analytic_bounds_rejects_bad_args():
    with pytest.raises(PreconditionError):
        analytic_bounds(0, 1)
    with pytest.raises(PreconditionError):
        analytic_bounds(1, 0)
