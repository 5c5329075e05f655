"""Two-letter expansions: decomposition, counting, and multinomial caps.

Repeatedly deleting a length-4 period-2 subword (abab -> ab) shrinks every
maximal two-letter subword to two or three letters without changing the
pattern of maximal subwords.  A word is therefore the image of its fully
shrunk core under one expansion per letter pair, described by a vector of
nonnegative repeat counts, one per maximal subword of that pair.

The forced-crossing count of a vector is `bounds.depth_family_bound`, as
for windings of those depths around one obstacle.  The vectors with a
bounded forced-crossing count are counted two ways: exactly, by dynamic
programming over tail multiplicities, and through an explicit product cap
built from a majorizing multiplicity vector.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

from .words import PreconditionError, Span, all_maximal_spans, has_adjacent_repeat


@dataclass(frozen=True)
class ExpansionDecomposition:
    """A word as expansions of its period-2-free core: one repeat vector per
    letter pair, ordered like the core's maximal subwords of that pair."""

    core: tuple[int, ...]
    vectors: dict[tuple[int, int], tuple[int, ...]]


def shrink_core(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Delete abab-subwords (distinct a, b) until none remain."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 3):
            if word[i] != word[i + 1] and word[i] == word[i + 2] and word[i + 1] == word[i + 3]:
                del word[i : i + 2]
                changed = True
                break
    return tuple(word)


def decompose(letters: tuple[int, ...]) -> ExpansionDecomposition:
    """Split a word without adjacent repeats into its core and repeat vectors."""
    letters = tuple(letters)
    if has_adjacent_repeat(letters):
        raise PreconditionError("decomposition needs a word without adjacent repeats")
    core = shrink_core(letters)
    full: dict[tuple[int, int], list[Span]] = {}
    shrunk: dict[tuple[int, int], list[Span]] = {}
    for by_pair, word in ((full, letters), (shrunk, core)):
        for span in all_maximal_spans(word):
            by_pair.setdefault((span.a, span.b), []).append(span)
    vectors: dict[tuple[int, int], tuple[int, ...]] = {}
    for pair in sorted(full.keys() | shrunk.keys()):
        spans_full, spans_core = full.get(pair, []), shrunk.get(pair, [])
        if len(spans_full) != len(spans_core):
            raise AssertionError("shrinking must preserve the maximal-subword pattern")
        vectors[pair] = tuple((sf.length - sc.length) // 2
                              for sf, sc in zip(spans_full, spans_core))
    return ExpansionDecomposition(core, vectors)


def tail_cap(k: int, t: int) -> int:
    """floor(sqrt(k/t)): the most entries at or above t in a vector below k,
    since m such entries alone force m^2 t crossings."""
    return math.isqrt(k // t)


def count_vectors_exact(length: int, k: int) -> int:
    """Number of vectors s in Z_{>=0}^length whose forced-crossing count is
    below k.

    Counts by the non-increasing chain of tail multiplicities T_t (entries
    >= t): the bound equals sum_t T_t^2, and a chain is placed into
    positions in prod C(T_t, T_{t+1}) ways starting from C(length, T_1).
    """
    if length < 0 or k < 1:
        raise PreconditionError("need length >= 0 and k >= 1")
    # without entries only the empty vector counts, below every k
    return sum(_bound_counts(length, k)) if length else 1


def _bound_counts(length: int, kmax: int):
    """Yield the number of vectors s in Z_{>=0}^length with forced-crossing
    count c, for c = 0, ..., kmax - 1.  Row c of the
    table holds, for each tail p <= top and then p = length, the chains
    after p that add c: [c == 0] + sum_t C(p, t) (row c - t^2)[t] over
    1 <= t <= p with t^2 <= c.  A row reads the top^2 rows before it, so
    only those are kept."""
    top = min(length, math.isqrt(kmax - 1))  # the largest tail below kmax
    if kmax * top * top > 10**7:  # about the steps of the table
        raise PreconditionError(f"counting length {length} below k={kmax} takes over 10^7 steps")
    rows: deque[list[int]] = deque(maxlen=max(1, top * top))
    for c in range(kmax):
        rows.append([(c == 0) + sum(math.comb(p, t) * rows[-t * t][t]
                                    for t in range(1, min(p, math.isqrt(c)) + 1))
                     for p in (*range(top + 1), length)])
        yield rows[-1][-1]


def z_vector(length: int, k: int) -> tuple[int, ...]:
    """The majorizing multiplicity vector (z_0, ..., z_k).

    Requires length >= 2*floor(sqrt(k)) - floor(sqrt(k/2)) so that z_0 >= z_1;
    the entries sum to `length`.
    """
    if k < 1:
        raise PreconditionError("k must be at least 1")
    threshold = 2 * tail_cap(k, 1) - tail_cap(k, 2)
    if length < threshold:
        raise PreconditionError(
            f"length {length} below the feasibility threshold {threshold} for k={k}"
        )
    return (length - tail_cap(k, 1),) + tuple(
        tail_cap(k, i) - tail_cap(k, i + 1) for i in range(1, k + 1)
    )


def multinomial(length: int, parts: tuple[int, ...]) -> int:
    """length! / prod(parts_i!), exact; parts must sum to length."""
    if any(p < 0 for p in parts):
        raise PreconditionError("parts must be nonnegative")
    if sum(parts) != length:
        raise PreconditionError(f"parts sum to {sum(parts)}, expected {length}")
    result = 1
    remaining = length
    for p in parts:
        result *= math.comb(remaining, p)
        remaining -= p
    return result


def m_vector_count(length: int, k: int) -> tuple[int, int]:
    """(exact, cap): the number of feasible multiplicity vectors
    (m_0..m_k), and the explicit product cap k^beta * (length+1)^beta with
    beta = ceil(k^(1/3)).  The exact count never exceeds the cap."""
    if length < 0 or k < 1:
        raise PreconditionError("need length >= 0 and k >= 1")

    # the tails T_t = m_{>=t} are a partition with T_t <= min(length,
    # tail_cap(k, t)), and its conjugate U_j = #{t : T_t >= j} one with
    # U_j <= k // j^2 for j <= J = min(length, isqrt(k)).  row[u] counts the
    # (U_j, ..., U_J) with U_j <= u, for j from J down to 1; it stays the
    # same past the row's end.
    row = [1]
    for j in range(min(length, math.isqrt(k)), 0, -1):
        row = list(accumulate(row + row[-1:] * (k // (j * j) + 1 - len(row))))
    exact = row[-1]
    beta = 1
    while beta**3 < k:
        beta += 1
    cap = (k**beta) * ((length + 1) ** beta)
    return exact, cap


MAX_SWEEP_ROWS = 10**4  # at most about a second and 32 MB


def sweep_rows(
    lengths: range | list[int], ks: range | list[int]
) -> list[dict[str, object]]:
    """Rows (length, k, exactCount, mVectorCap, multinomialZ) for reporting;
    the multinomial column is empty below the feasibility threshold.  A sweep
    of more than MAX_SWEEP_ROWS rows is refused before any row is built."""
    if len(lengths) * len(ks) > MAX_SWEEP_ROWS:
        raise PreconditionError(f"a sweep of {len(lengths) * len(ks)} rows is over "
                                f"{MAX_SWEEP_ROWS}")
    rows = []
    for length in lengths:
        exacts = list(accumulate(_bound_counts(length, max(ks, default=1))))
        for k in ks:
            exact = exacts[k - 1]
            m_exact, m_cap = m_vector_count(length, k)
            try:
                mz = multinomial(length, z_vector(length, k))
            except PreconditionError:
                mz = None
            rows.append(
                {
                    "length": length,
                    "k": k,
                    "exactCount": exact,
                    "mVectorCount": m_exact,
                    "mVectorCap": m_cap,
                    "multinomialZ": mz,
                }
            )
    return rows
