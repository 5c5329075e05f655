"""Exact segment queries for the tests: one open segment, or two open
segments of given polarities, answered by the oracle's `_solve` through the
same cache keys as every other query."""

from __future__ import annotations

from loopforge import CrossingCount, GapAlphabet, OracleConfig
from loopforge.oracle import _open_text, _pair_form, _self_form, _solve


def segment_self(letters: tuple[int, ...], alphabet: GapAlphabet,
                 config: OracleConfig) -> CrossingCount:
    """Minimal self-crossings of one open segment (polarity-independent)."""
    n = alphabet.n
    return _solve(n, *_self_form(n, "seg", tuple(letters)), config)


def segment_pair(letters_a: tuple[int, ...], letters_b: tuple[int, ...], polarity_a: str,
                 polarity_b: str, alphabet: GapAlphabet, config: OracleConfig) -> CrossingCount:
    """Minimal crossings between two open segments of the given polarities."""
    n = alphabet.n
    return _solve(n, *_pair_form(n, _open_text(n, "seg", tuple(letters_a), polarity_a),
                                 _open_text(n, "seg", tuple(letters_b), polarity_b)), config)
