"""Certified lower bounds on loop crossings, and closed-form family bounds.

Windings are alternating two-letter segments circling one obstacle; matching
orientations of the bordering arcs force crossings, which add up across the
windings of a single obstacle.  :func:`analytic_bounds` builds the report of
the `bounds` command directly: the explicit numeric bounds on the extremal
family sizes f(n,k) and g(n,k), among them the family threshold of snails,
the basepoint-adjacent alternating blocks at the ends of based words.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass

from .words import (
    GapAlphabet,
    PreconditionError,
    Span,
    Word,
    all_maximal_spans,
    has_adjacent_repeat,
)


def block_obstacles(a: int, b: int, n: int) -> tuple[int, ...]:
    """The obstacles a two-letter block over gaps a < b circles.  Obstacle 0
    is the point at infinity, between gaps n and 0; obstacle i >= 1 is the
    i-th puncture (1 = the basepoint), between gaps i - 1 and i, so for
    n = 1 the pair {0, 1} borders both."""
    return (0,) * ((a, b) == (0, n)) + (b,) * (b == a + 1 <= n)


def obstacle_spans(
    letters: tuple[int, ...], alphabet: GapAlphabet
) -> list[tuple[int, Span]]:
    """(obstacle, span) for each maximal two-letter span of depth at least 1
    around an obstacle (:func:`block_obstacles`), by obstacle and then by
    start.  Only the letter pairs the word uses are scanned, so the work
    follows the word and not n."""
    out = [(o, span) for span in all_maximal_spans(letters) if span.depth >= 1
           for o in block_obstacles(span.a, span.b, alphabet.n)]
    return sorted(out, key=lambda item: (item[0], item[1].start))


@dataclass(frozen=True)
class Winding:
    """An alternating segment around one obstacle: `span` is the maximal
    two-letter subword, `depth` the number of full turns it forces."""

    obstacle: int
    depth: int
    span: Span
    form: str  # "aba"-style odd form or "abab" even form

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise PreconditionError("a winding needs depth at least 1")


def find_windings(word: Word, alphabet: GapAlphabet) -> list[Winding]:
    """All windings of a word; for based words the ends border on the
    basepoint, which is a valid border for every obstacle except the
    basepoint itself."""
    letters = word.inner()
    if has_adjacent_repeat(letters):
        raise PreconditionError("windings are defined on words without adjacent repeats")
    out: list[Winding] = []
    for obstacle, span in obstacle_spans(letters, alphabet):
        # borders of basepoint windings must be real crossings away from the
        # basepoint, so end-touching blocks are snail material; an
        # off-equator based word has no crossing bordering its ends
        at_end = span.start == 0 or span.end == len(letters) - 1
        if at_end and (obstacle == 1 or word.kind != "v"):
            continue
        form = "aba" if span.length % 2 == 1 else "abab"
        out.append(Winding(obstacle, span.depth, span, form))
    return out


def winding_self_lower_bound(word: Word, alphabet: GapAlphabet) -> int:
    """Lower bound on the self-intersection number from windings.

    Around one obstacle, windings of depths s_1..s_m force
    sum_i s_i + 2 sum_{i<j} min(s_i, s_j) crossings.  Distinct obstacles do
    NOT contribute additively: their winding segments share border arcs, and
    the forced crossings can coincide (the word 202120212 carries two
    depth-1 windings around each of two obstacles, per-obstacle bounds 4 and
    4, yet admits a drawing with only 6 self-crossings).  The bound is
    therefore the maximum over obstacles, oracle-checked exhaustively in the
    tests.
    """
    return best_obstacle_bound((w.obstacle, w.depth) for w in find_windings(word, alphabet))


def depth_family_bound(depths: list[int] | tuple[int, ...]) -> int:
    """Forced crossings of windings of the given depths around one obstacle:
    sum_i s_i + 2 sum_{i<j} min(s_i, s_j).  In descending order the j-th
    depth (from 0) is the minimum of its pairs with the j depths before it,
    so the sum is sum_j s_(j) (2j + 1)."""
    return sum(s * (2 * j + 1) for j, s in enumerate(sorted(depths, reverse=True)))


def best_obstacle_bound(depths: Iterable[tuple[int, int]]) -> int:
    """The largest :func:`depth_family_bound` of one obstacle's windings,
    given (obstacle, depth) pairs."""
    by_obstacle: dict[int, list[int]] = {}
    for obstacle, depth in depths:
        by_obstacle.setdefault(obstacle, []).append(depth)
    return max(map(depth_family_bound, by_obstacle.values()), default=0)


# -- closed-form bound evaluators ---------------------------------------------


# 2**e has floor(e log10 2) + 1 decimal digits: at most 20000 up to e = 66438
MAX_PRINTED_EXPONENT = 66438
# the most digits of any other number in a report: the default int-to-str limit
MAX_REPORT_DIGITS = 4300


def double_exp_exponent(n: int, k: int) -> int:
    """The exponent of the double-exponential bound f(n, k) <= 2^((2k)^(2n))."""
    return (2 * k) ** (2 * n)


def _power_of_two_text(exponent: int) -> str | None:
    """Decimal string of 2**exponent, or None above MAX_PRINTED_EXPONENT.
    The interpreter's limit on int-to-str digits is lifted for this one
    conversion and then restored."""
    if exponent > MAX_PRINTED_EXPONENT:
        return None
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:  # 0 means no limit
        sys.set_int_max_str_digits(0)
    try:
        return str(2**exponent)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def analytic_bounds(n: int, k: int) -> dict:
    """Every closed-form bound on the extremal family sizes at the given n
    and k, as the report that the `bounds` command prints.  All values are
    exact; powers too large to expand keep their exponent."""
    if n < 1 or k < 1:
        raise PreconditionError("need n >= 1 and k >= 1")
    # the largest numbers are (2k)^(2n) and 484 k^2, and x has more than D
    # digits exactly when log10(x) >= D
    if max(2 * n * math.log10(2 * k), math.log10(484 * k * k)) >= MAX_REPORT_DIGITS:
        raise PreconditionError(f"bounds at n={n}, k={k} have over {MAX_REPORT_DIGITS} digits")
    if n <= 2 * k and n * k >= 3072**2:  # sqrt(nk) / 3 >= 1024
        raise PreconditionError(f"2^(sqrt(nk)/3) at n={n}, k={k} is past the largest float")
    exponent = double_exp_exponent(n, k)
    sqrt_exp = None
    if n <= 2 * k:
        root = math.isqrt(n * k)
        g = math.gcd(root, 3)
        sqrt_exp = {
            "base": "2",
            "exponentSqrtArg": str(n * k),
            "exponentDivisor": "3",
            "exponentExact": f"{root // g}/{3 // g}" if root * root == n * k else None,
            "approx": f"{2 ** (math.sqrt(n * k) / 3):.6g}",
        }
    ratio_power = None
    if n >= 2 * k:  # (n/k)^(k-1); powers of coprime terms stay coprime
        g = math.gcd(n, k)
        ratio_power = f"{(n // g) ** (k - 1)}/{(k // g) ** (k - 1)}"
    return {
        "n": n,
        "k": k,
        "exact": True,
        "fUpperSinglePuncture": str(2 * k + 1) if n == 1 else None,
        "fUpperDoubleExp": {
            "base": "2",
            "exponent": str(exponent),
            "value": _power_of_two_text(exponent),
        },
        "fLowerSqrtExp": sqrt_exp,
        "fLowerRatioPower": ratio_power,
        "fFromG": {"coefficient": str(484 * k * k), "argument": str(5 * k)},
        # any larger same-polarity family of based loops with two-sided
        # alternating prefixes has a pair (possibly equal) with k crossings
        "snailFamilyThreshold": str(4 * (2 * k + 1) ** 2),
        "chain": "g(n,k) <= f(n,k) <= g(n+1,k)",
    }
