"""The catalog walk as it was before it drew its own prefixes: the oracle is
asked about every anchored prefix of four or more letters, and the winding
bound of each prefix is found from its letters.  The tests compare the walk
against it, and use it to issue the walk's segment queries that a cache once
held.  Also the `Drawing` of a grown segment drawing, and a segment drawing
grown from its letters alone."""

from __future__ import annotations

from loopforge.bounds import best_obstacle_bound, obstacle_spans
from loopforge.oracle import CurveSpec, Drawing, segment_self_at_least
from loopforge.words import NORTH, V, equator_position


def reference_winding_lb(prefix, alphabet) -> int:
    """The winding bound of a walk prefix from all its maximal two-letter
    blocks: the best single obstacle's forced crossings."""
    return best_obstacle_bound((o, span.depth) for o, span in obstacle_spans(prefix, alphabet))


def reference_grow_segment(drawn, letters):
    """`_grow_segment` from the letters alone: `drawn` is (circle, count) of
    `letters[:-1]`, and the slots of the new crossing's gap are found by the
    equator place of every crossing."""
    circle, count = drawn
    m = len(letters) - 1
    pos = [0] * m
    for i, p in enumerate(circle):
        pos[p] = 2 * i
    ranks = [equator_position(letters[p]) for p in circle]
    rank = equator_position(letters[m])
    start = sum(r < rank for r in ranks)
    stop = start + ranks.count(rank)
    ends = [(pos[j], pos[j + 1]) for j in range(m - 3, -1, -2)]
    near = pos[m - 1]
    best_cost, best = len(ends) + 1, start
    for slot in range(start, stop + 1):
        x = 2 * slot - 1
        lo, hi = (near, x) if near < x else (x, near)
        cost = sum((lo < a < hi) != (lo < b < hi) for a, b in ends)
        if cost < best_cost:
            best_cost, best = cost, slot
    return circle[:best] + (m,) + circle[best:], count + best_cost


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
        if reference_winding_lb(prefix, alphabet) >= k:
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
