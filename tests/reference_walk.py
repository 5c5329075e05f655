"""The catalog walk as it was before it drew its own prefixes: the oracle is
asked about every anchored prefix of four or more letters.  The tests compare
the walk against it, and use it to issue the walk's segment queries that a
cache once held.  Also the `Drawing` of a grown segment drawing."""

from __future__ import annotations

from loopforge.extremal import prefix_winding_lb
from loopforge.oracle import CurveSpec, Drawing, segment_self_at_least
from loopforge.words import NORTH, V


def circle_drawing(n, letters, circle) -> Drawing:
    """The drawing of the open segment `letters`, first chord north, whose
    crossings sit in the equator order `circle` of letter positions."""
    orders = {g: tuple((0, j) for j in circle if letters[j] == g) for g in range(n + 1)}
    return Drawing(n, (CurveSpec(tuple(letters), False, NORTH),),
                   {g: order for g, order in orders.items() if order})


def reference_core_candidates(k, cap, alphabet, config) -> list[tuple[int, ...]]:
    """Reduced core words (start and end letter 2) that survive the winding
    prune and the oracle's threshold query at every prefix, depth first."""
    candidates = []

    def walk(prefix):
        if prefix_winding_lb(prefix, alphabet) >= k:
            return
        if len(prefix) >= 4 and segment_self_at_least((V,) + prefix, k, alphabet, config):
            return
        if prefix[-1] == 2:
            candidates.append(prefix)
        if len(prefix) >= cap:
            return
        for letter in (0, 1, 2):
            if letter != prefix[-1]:
                walk(prefix + (letter,))

    walk((2,))
    return candidates
