"""Expansion helpers that only the tests use: a word rebuilt from its
decomposition, and the tail multiplicities of a repeat vector."""

from __future__ import annotations

from loopforge.expansion import ExpansionDecomposition, apply_expansion


def reassemble(dec: ExpansionDecomposition) -> tuple[int, ...]:
    """Apply every pair expansion of a decomposition to its core."""
    word = dec.core
    for pair in sorted(dec.vectors):
        word = apply_expansion(word, pair, dec.vectors[pair])
    return word


def tail_multiplicities(repeats: tuple[int, ...], k: int) -> tuple[int, ...]:
    """(m_{>=1}, ..., m_{>=k}): how many entries reach each threshold."""
    return tuple(sum(1 for s in repeats if s >= t) for t in range(1, k + 1))
