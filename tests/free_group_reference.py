"""The free-group form of closed loops, which only the tests use.

Even-length reduced x-words biject with reduced strings over the loop
generators g1..gn (gi circles puncture i once); the bijection replaces each
two-letter block ij by the run of generators between gaps i and j.  A
generator string is a tuple of (index, exponent) with index in 1..n and
exponent +-1, with no adjacent inverse pair.
"""

from __future__ import annotations

from loopforge.words import PreconditionError, Word, has_adjacent_repeat

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
