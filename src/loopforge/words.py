"""Crossing words over the gaps of an equator through n punctures.

A loop in the plane with punctures v1..vn (plus the point at infinity, v0)
is tracked by the sequence of equator gaps it crosses.  Gaps carry labels
0..n; the basepoint v1 of based loops acts as one extra degenerate gap,
written ``v`` and stored as the sentinel :data:`V`.  The cyclic order of
gap points along the equator is (0, v, 1, 2, ..., n).

Two word kinds exist:

* x-words: loops based off the equator; even length, no ``v`` letter.
* v-words: loops based at v1; the letter ``v`` appears exactly at both ends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

V = -1  # label of the basepoint treated as a degenerate gap

NORTH = "N"
SOUTH = "S"


class PreconditionError(ValueError):
    """An operation was called outside its stated preconditions."""


def check_hemisphere(hemisphere: str) -> str:
    """`hemisphere`, once checked to be NORTH or SOUTH."""
    if hemisphere not in (NORTH, SOUTH):
        raise PreconditionError(f"bad hemisphere {hemisphere!r}")
    return hemisphere


@dataclass(frozen=True)
class GapAlphabet:
    """Gap labels for n punctures: 0..n, plus the basepoint label v."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise PreconditionError(f"need at least one puncture, got n={self.n}")

    def validate_letter(self, letter: int) -> None:
        if letter != V and not 0 <= letter <= self.n:
            raise PreconditionError(f"letter {letter} outside gap range 0..{self.n}")


def format_letter(letter: int) -> str:
    return "v" if letter == V else str(letter)


def format_letters(letters: tuple[int, ...] | list[int]) -> str:
    return " ".join(format_letter(a) for a in letters)


@dataclass(frozen=True)
class Word:
    """A validated crossing word.

    `letters` includes the ``v`` endpoints for v-words; `kind` is "x" or "v".
    """

    letters: tuple[int, ...]
    kind: str

    @staticmethod
    def x_word(letters: tuple[int, ...] | list[int]) -> "Word":
        return Word(tuple(letters), "x")

    @staticmethod
    def v_word(inner: tuple[int, ...] | list[int]) -> "Word":
        return Word((V,) + tuple(inner) + (V,), "v")

    def __post_init__(self) -> None:
        if self.kind not in ("x", "v"):
            raise PreconditionError(f"unknown word kind {self.kind!r}")
        if self.kind == "v":
            if len(self.letters) < 2 or self.letters[0] != V or self.letters[-1] != V:
                raise PreconditionError("'v' must appear at both ends or not at all")
            if V in self.letters[1:-1]:
                raise PreconditionError("'v' in the interior of the word")
        else:
            if V in self.letters:
                raise PreconditionError("x-word must not contain 'v'")
            if len(self.letters) % 2 != 0:
                raise PreconditionError("x-word of odd length")

    def inner(self) -> tuple[int, ...]:
        """Letters without the ``v`` endpoints (identity for x-words)."""
        return self.letters[1:-1] if self.kind == "v" else self.letters

    def __str__(self) -> str:
        return format_letters(self.letters)

    def to_json(self) -> dict:
        return {"kind": self.kind, "letters": [format_letter(a) for a in self.letters]}


def parse_letters(text: str, alphabet: GapAlphabet) -> tuple[int, ...]:
    """Tokenize a word; tokens are whitespace- or dot-separated, 'v' or an
    ASCII decimal label."""
    tokens = text.replace(".", " ").split()
    letters = []
    for tok in tokens:
        if tok == "v":
            letters.append(V)
        elif tok.isascii() and tok.isdigit():  # not '²' or '٣'
            letters.append(int(tok))
        else:
            raise PreconditionError(f"unknown token {tok!r}")
    for a in letters:
        alphabet.validate_letter(a)
    return tuple(letters)


def parse_word(text: str, alphabet: GapAlphabet) -> Word:
    """Parse and validate a word: a v-word if 'v' occurs, else an x-word."""
    letters = parse_letters(text, alphabet)
    return Word(letters, "v" if V in letters else "x")


def has_adjacent_repeat(word: Word | tuple[int, ...]) -> bool:
    """True iff two adjacent letters are equal; based words are checked on
    their inner letters."""
    letters = word.inner() if isinstance(word, Word) else tuple(word)
    return any(a == b for a, b in zip(letters, letters[1:]))


def reduce_adjacent_pairs(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Delete adjacent equal letter pairs to a fixpoint (order-independent)."""
    stack: list[int] = []
    for a in letters:
        if stack and stack[-1] == a:
            stack.pop()
        else:
            stack.append(a)
    return tuple(stack)


@dataclass(frozen=True)
class Reduction:
    """Result of word reduction.

    For v-words, `stripped_prefix_parity` is the parity of the number of
    letters removed in front of the core; loops winding around the basepoint
    before entering the core flip the hemisphere of the core's first arc once
    per removed letter.  When the whole inner word cancels or consists of
    basepoint-adjacent letters only, the full inner length counts as prefix.
    """

    word: Word
    stripped_prefix_parity: int


def reduce_word(word: Word) -> Reduction:
    """Canonical reduced form of a word.

    x-words: adjacent equal pairs deleted until none remain.
    v-words: the inner word additionally loses its maximal runs of letters in
    {0, 1} at both ends, so the core starts and ends in a letter >= 2 (or is
    empty).  Stripping cannot create new adjacent pairs, so one pass of pair
    deletion followed by one strip reaches the fixpoint.
    """
    if word.kind == "x":
        return Reduction(Word.x_word(reduce_adjacent_pairs(word.letters)), 0)
    inner = reduce_adjacent_pairs(word.inner())
    if all(a in (0, 1) for a in inner):
        return Reduction(Word.v_word(()), len(inner) % 2)
    start = 0
    while inner[start] in (0, 1):
        start += 1
    end = len(inner)
    while inner[end - 1] in (0, 1):
        end -= 1
    return Reduction(Word.v_word(inner[start:end]), start % 2)


def equator_position(letter: int) -> int:
    """The place of a gap letter in the equator's cyclic order (0, v, 1, 2, ..., n)."""
    return 1 if letter == V else letter + (letter > 0)


@dataclass(frozen=True)
class Span:
    """A maximal contiguous subword over two letters, inclusive indices."""

    a: int
    b: int
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def depth(self) -> int:
        """Number of full two-letter repetitions past the first: (ab)^s a or (ab)^(s+1)."""
        return (self.length - 1) // 2


def maximal_two_letter_words(letters: tuple[int, ...], a: int, b: int) -> list[Span]:
    """Maximal contiguous subwords over {a, b} with at least two letters."""
    if a == b:
        raise PreconditionError("need two distinct letters")
    spans = []
    i, size = 0, len(letters)
    while i < size:
        if letters[i] in (a, b):
            j = i
            while j + 1 < size and letters[j + 1] in (a, b):
                j += 1
            if j > i:
                spans.append(Span(a, b, i, j))
            i = j + 1
        else:
            i += 1
    return spans


def all_maximal_spans(letters: tuple[int, ...]) -> list[Span]:
    """Maximal two-letter subwords over every letter pair, ordered by start."""
    present = sorted(set(letters))
    spans = []
    for a, b in itertools.combinations(present, 2):
        spans.extend(maximal_two_letter_words(letters, a, b))
    return sorted(spans, key=lambda s: (s.start, s.end))
