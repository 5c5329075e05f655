"""Snail bounds and the forced-arc test, lemma helpers that only the tests
use: no command and no search reads them.

Snails are the basepoint-adjacent alternating blocks at the ends of a
based word.  Two snails of the same polarity force crossings that depend
only on their signed depths and terminals, and two same-polarity segments
that agree on their middle letters force an arc crossing when the
orientations of their end triples say so.  The oracle checks both claims in
`test_acceptance.py` and `test_bounds.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

from loopforge.words import (
    NORTH,
    SOUTH,
    V,
    GapAlphabet,
    PreconditionError,
    Span,
    Word,
    equator_position,
    has_adjacent_repeat,
)


def orientation(a: int, b: int, c: int, alphabet: GapAlphabet) -> int:
    """+1 if circling the equator from gap `a` meets `b` before `c`, else -1."""
    if len({a, b, c}) != 3:
        raise PreconditionError("orientation needs three distinct gap points")
    for letter in (a, b, c):
        alphabet.validate_letter(letter)
    ring = alphabet.n + 2
    pa, pb, pc = map(equator_position, (a, b, c))
    return 1 if (pb - pa) % ring < (pc - pa) % ring else -1


@dataclass(frozen=True)
class Snail:
    """A basepoint-adjacent alternating segment at an end of a based word.

    `depth` is signed: positive when the alternation starts 0 1, negative
    when it starts 1 0; `terminal` is the first letter after the alternating
    block (the basepoint when the block spans the whole inner word).
    """

    depth: int
    terminal: int
    polarity: str
    span: Span


def _leading_snail(word: Word, first_arc_hemisphere: str, reverse: bool) -> Snail | None:
    inner = word.inner()
    if reverse:
        inner = tuple(reversed(inner))
        # each crossing of the equator flips the hemisphere
        polarity = (NORTH, SOUTH)[(first_arc_hemisphere == SOUTH) ^ (len(inner) % 2)]
    else:
        polarity = first_arc_hemisphere
    if not inner or inner[0] not in (0, 1):
        return None
    end = 0
    while end < len(inner) and inner[end] in (0, 1):
        end += 1
    block_len = end
    sign = 1 if inner[0] == 0 else -1
    depth = sign * ((block_len - 1) // 2)
    terminal = inner[end] if end < len(inner) else V
    span = Span(0, 1, 0, end - 1) if block_len >= 2 else Span(0, 1, 0, 0)
    return Snail(depth, terminal, polarity, span)


def find_snails(
    word: Word, alphabet: GapAlphabet, first_arc_hemisphere: str
) -> list[Snail]:
    """The snails of a based word: the basepoint-adjacent alternating block
    at the start, and the one at the end seen by the reversed traversal.
    The end snail's span indexes into the reversed inner word."""
    if word.kind != "v":
        raise PreconditionError("snails live at the ends of based words")
    if has_adjacent_repeat(word):
        raise PreconditionError("snails are defined on words without adjacent repeats")
    out = []
    for reverse in (False, True):
        snail = _leading_snail(word, first_arc_hemisphere, reverse)
        if snail is not None:
            out.append(snail)
    return out


def snail_pair_lower_bound(s1: Snail, s2: Snail) -> int:
    """Forced crossings between two snails of the same polarity.

    Opposite turning directions force min(|s|, |t|) crossings; equal
    directions with both terminals away from the basepoint force
    |s - t| - 1.  No bound is claimed otherwise.
    """
    if s1.polarity != s2.polarity:
        raise PreconditionError("snail bound needs equal polarities")
    s, t = s1.depth, s2.depth
    if s * t < 0:
        return min(abs(s), abs(t))
    if s * t > 0 and s1.terminal != V and s2.terminal != V:
        return max(0, abs(s - t) - 1)
    return 0


def forced_arc_intersection(
    word_a: tuple[int, ...], word_b: tuple[int, ...], alphabet: GapAlphabet
) -> bool:
    """Orientation test forcing an arc crossing between two same-polarity
    segments that agree on all middle letters and differ at both ends.

    With k middle letters, a crossing is forced when the end triple
    orientations are opposite for even k and equal for odd k.  Returns False
    when an end triple is degenerate (the test does not apply).
    """
    a, b = tuple(word_a), tuple(word_b)
    if len(a) != len(b) or len(a) < 2:
        raise PreconditionError("segments must share their length (at least 2)")
    k = len(a) - 2
    if a[1:-1] != b[1:-1]:
        raise PreconditionError("middle letters must agree")
    if a[0] == b[0] or a[-1] == b[-1]:
        raise PreconditionError("end letters must differ")
    for w in (a, b):
        if has_adjacent_repeat(w):
            raise PreconditionError("segments must be free of adjacent repeats")
    first = (a[0], b[0], a[1])
    last = (a[-2], b[-1], a[-1])
    if len(set(first)) < 3 or len(set(last)) < 3:
        return False  # orientations undefined; no crossing claimed
    o1 = orientation(*first, alphabet)
    o2 = orientation(*last, alphabet)
    return (o1 != o2) if k % 2 == 0 else (o1 == o2)
