"""Expansion helpers that only the tests use: a word expanded by a repeat
vector and rebuilt from its decomposition, the multiplicity profile and
tail multiplicities of a repeat vector, and the majorizing inequality
behind the product cap of `count-expansions --sweep`."""

from __future__ import annotations

from loopforge.expansion import ExpansionDecomposition, multinomial, tail_cap, z_vector
from loopforge.words import PreconditionError, maximal_two_letter_words


def apply_expansion(
    core: tuple[int, ...], pair: tuple[int, int], repeats: tuple[int, ...]
) -> tuple[int, ...]:
    """Expand each maximal {a, b}-subword of `core` by its repeat count:
    the leading two letters xy become (xy)^(s+1)."""
    a, b = pair
    spans = maximal_two_letter_words(tuple(core), a, b)
    if len(spans) != len(repeats):
        raise PreconditionError(
            f"{len(repeats)} repeat counts for {len(spans)} maximal subwords"
        )
    if any(s < 0 for s in repeats):
        raise PreconditionError("repeat counts must be nonnegative")
    insert_at = {span.start: (span, s) for span, s in zip(spans, repeats)}
    out: list[int] = []
    for pos, letter in enumerate(core):
        if pos in insert_at:
            span, s = insert_at[pos]
            x, y = core[span.start], core[span.start + 1]
            out.extend([x, y] * s)
        out.append(letter)
    return tuple(out)


def reassemble(dec: ExpansionDecomposition) -> tuple[int, ...]:
    """Apply every pair expansion of a decomposition to its core."""
    word = dec.core
    for pair in sorted(dec.vectors):
        word = apply_expansion(word, pair, dec.vectors[pair])
    return word


def multiplicity_profile(repeats: tuple[int, ...], k: int) -> tuple[int, ...]:
    """(m_0, ..., m_k): multiplicity of each value in the vector."""
    return tuple(sum(1 for s in repeats if s == i) for i in range(k + 1))


def tail_multiplicities(repeats: tuple[int, ...], k: int) -> tuple[int, ...]:
    """(m_{>=1}, ..., m_{>=k}): how many entries reach each threshold."""
    return tuple(sum(1 for s in repeats if s >= t) for t in range(1, k + 1))


def profile_feasible(profile: tuple[int, ...], length: int, k: int) -> bool:
    """Whether a multiplicity vector (m_0..m_k) sums to `length` with every
    tail m_{>=t} at most sqrt(k/t)."""
    if len(profile) != k + 1 or any(m < 0 for m in profile) or sum(profile) != length:
        return False
    tail = 0
    for t in range(k, 0, -1):
        tail += profile[t]
        if tail > tail_cap(k, t):
            return False
    return True


def z_majorizes(profile: tuple[int, ...], length: int, k: int) -> bool:
    """Whether the multinomial of a feasible profile is at most the
    multinomial of the majorizing vector (expected to always hold)."""
    if not profile_feasible(profile, length, k):
        raise PreconditionError("profile violates the feasibility constraints")
    z = z_vector(length, k)
    return multinomial(length, profile) <= multinomial(length, z)
