"""Canonical homotopy-class descriptors for based loops.

x-loops are classified by their reduced word alone.  v-loops are classified
by the reduced core of the inner word together with the hemisphere of the
first arc of the canonical representative: unwinding the basepoint-adjacent
prefix flips that hemisphere once per stripped letter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import NORTH, SOUTH, PreconditionError, Word, check_hemisphere, reduce_word


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
        check_hemisphere(self.start_hemisphere)

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
    south = check_hemisphere(first_arc_hemisphere) == SOUTH
    red = reduce_word(word)
    return VLoopClass(red.word.inner(), (NORTH, SOUTH)[south ^ red.stripped_prefix_parity])
