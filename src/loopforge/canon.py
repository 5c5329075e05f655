"""Canonical homotopy-class descriptors for based loops.

x-loops are classified by their reduced word alone.  v-loops are classified
by the reduced core of the inner word together with the hemisphere of the
first arc of the canonical representative: unwinding the basepoint-adjacent
prefix flips that hemisphere once per stripped letter.

Even-length reduced x-words biject with reduced strings over the loop
generators g1..gn (gi circles puncture i once); the bijection replaces each
two-letter block ij by the run of generators between gaps i and j.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    NORTH,
    SOUTH,
    PreconditionError,
    Reduction,
    Word,
    has_adjacent_repeat,
    hemisphere_after,
    reduce_word,
)


@dataclass(frozen=True)
class XLoopClass:
    reduced: tuple[int, ...]

    def word(self) -> Word:
        return Word.x_word(self.reduced)

    def to_json(self) -> dict:
        return {"kind": "x", "reduced": [str(a) for a in self.reduced]}


@dataclass(frozen=True)
class VLoopClass:
    core: tuple[int, ...]
    start_hemisphere: str

    def __post_init__(self) -> None:
        if self.start_hemisphere not in (NORTH, SOUTH):
            raise PreconditionError(f"bad hemisphere {self.start_hemisphere!r}")

    def word(self) -> Word:
        return Word.v_word(self.core)

    def to_json(self) -> dict:
        return {
            "kind": "v",
            "core": [str(a) for a in self.core],
            "startHemisphere": self.start_hemisphere,
        }


LoopClass = XLoopClass | VLoopClass


def canon_x(word: Word) -> XLoopClass:
    if word.kind != "x":
        raise PreconditionError("canon_x needs an x-word")
    return XLoopClass(reduce_word(word).word.letters)


def canon_v(word: Word, first_arc_hemisphere: str) -> VLoopClass:
    if word.kind != "v":
        raise PreconditionError("canon_v needs a v-word")
    if first_arc_hemisphere not in (NORTH, SOUTH):
        raise PreconditionError(f"bad hemisphere {first_arc_hemisphere!r}")
    red: Reduction = reduce_word(word)
    hemi = hemisphere_after(first_arc_hemisphere, red.stripped_prefix_parity)
    return VLoopClass(red.word.inner(), hemi)


# --- bijection with reduced generator strings --------------------------------
#
# A generator string is a tuple of (index, exponent) with index in 1..n and
# exponent +-1, with no adjacent inverse pair.

GeneratorString = tuple[tuple[int, int], ...]


def _block_to_generators(i: int, j: int) -> list[tuple[int, int]]:
    if i < j:
        return [(t, 1) for t in range(i + 1, j + 1)]
    return [(t, -1) for t in range(i, j, -1)]


def is_reduced(gens: GeneratorString) -> bool:
    return not any(
        gens[t][0] == gens[t + 1][0] and gens[t][1] == -gens[t + 1][1]
        for t in range(len(gens) - 1)
    )


def to_free_group(word: Word) -> GeneratorString:
    """Map an even-length reduced x-word to its reduced generator string."""
    if word.kind != "x":
        raise PreconditionError("to_free_group needs an x-word")
    if has_adjacent_repeat(word):
        raise PreconditionError("word has an adjacent equal pair")
    letters = word.letters
    out: list[tuple[int, int]] = []
    for t in range(0, len(letters), 2):
        out.extend(_block_to_generators(letters[t], letters[t + 1]))
    gens = tuple(out)
    assert is_reduced(gens), "blocks of a reduced word never cancel"
    return gens


def from_free_group(gens: GeneratorString) -> Word:
    """Inverse of :func:`to_free_group`; input must be reduced."""
    if not is_reduced(gens):
        raise PreconditionError("generator string is not reduced")
    letters: list[int] = []
    t = 0
    while t < len(gens):
        idx, exp = gens[t]
        u = t
        if exp == 1:
            # maximal ascending run g_{i+1} ... g_j
            while u + 1 < len(gens) and gens[u + 1] == (gens[u][0] + 1, 1):
                u += 1
            letters.extend((idx - 1, gens[u][0]))
        else:
            # maximal descending run g_i^-1 ... g_{j+1}^-1
            while u + 1 < len(gens) and gens[u + 1] == (gens[u][0] - 1, -1):
                u += 1
            letters.extend((idx, gens[u][0] - 1))
        t = u + 1
    return Word.x_word(tuple(letters))


def multiply(g1: GeneratorString, g2: GeneratorString) -> GeneratorString:
    """Concatenate two generator strings and reduce."""
    stack = list(g1)
    for idx, exp in g2:
        if stack and stack[-1] == (idx, -exp):
            stack.pop()
        else:
            stack.append((idx, exp))
    return tuple(stack)


def format_generators(gens: GeneratorString) -> str:
    if not gens:
        return "1"
    return " ".join(f"g{i}" if e == 1 else f"g{i}^-1" for i, e in gens)
