"""Minimal crossing numbers of loop words over chord-diagram drawings.

A drawing places each equator crossing of a word into its gap and linearly
orders the crossings within every gap; the gap blocks sit on the equator
circle in the fixed cyclic order (0, v, 1, 2, ..., n) with the basepoint v a
single pinned position.  Consecutive crossings of a curve are joined by
chords that alternate between the two hemisphere disks; an off-equator based
loop closes with one extra chord through its basepoint.  Two chords in one
disk cross exactly when their endpoint pairs interleave on the circle, and
chords meeting at the shared basepoint v never cross.  Minimizing the
interleaving count over all per-gap orderings gives the minimal number of
crossings over all curves realizing the words: an interleaved pair must
cross at least once in any drawing, and generic straight chords realize
every interleaving exactly once.

The minimization is exact branch and bound: gaps are ordered one at a time
in a fixed order, and each gap's order is built one appended point at a
time, trying the unplaced points in point-id order, so complete orders are
visited in lexicographic order and a level holds one partial order.  The
unplaced points of a gap will all follow its placed ones, so a chord pair is
decided, and charged, once at most one of its endpoints in gaps holding two
or more of them is unplaced.  Unplaced points add a lower bound: for each pair of
them, the cheaper of its two relative orders, counting the chord pairs whose
far ends lie in two different gaps, whose blocks decide them from the start,
and those whose far ends share a gap once their order there is known.
Which gaps are placed at each level is known before the search starts, so
the bound of the later gaps is one table per level, built once per search:
a constant that folds every point pair whose cost the search can no longer
change, plus comparisons of far ends that share a placed gap, the only
costs still open at that level.  The unplaced points of the gap being
ordered share the position after its placed ones, so the same table serves
every partial order of that gap, and its own unplaced pairs add a running
total.  Gaps go largest first, except that the largest gap holding no
chord is left last, where every far end of its chord pairs is placed: each
pair of its points then costs a fixed weight in either order, so the bound
is tight there.  The largest gap first throughout and ascending sizes
both measured slower.

While a gap is ordered, the only comparisons of the later gaps' table that
can change are those whose two ends are unplaced points of that gap, so the
search splits that table once on entering the gap: a constant, of the
decided comparisons and of the rows left with no open end at min(f, b),
and an open part, of the other comparisons and rows, their decided ends
counted.  Appending p decides exactly the open comparisons and ends at p,
so a child's table bound is the constant plus what p decides there, and a
child the search enters carries the open part less p's ends, sharing each
row p does not touch.  So every node's bound is the count of the whole
table at its positions, the same number as a recount, read from its open
part alone.

Where the table bound fails to prune, the search folds the open part of
the node, which the table counts for neither order, into the pair weights
of the gap being ordered (the two-gap coupling of two-layer crossing
minimization, Jünger and Mutzel 1997).  A comparison that always counts
adds 1 to its order.  A row (f, b) with its decided ends counted and k
open costs min(f + X, b + k - X) when X open ends go first; that is
concave in X, so at least its chord: min(f, b + k) plus X (min(f + k, b) -
min(f, b + k)) / k, a constant and a weight on each open end.  Every
completion orders each pair of unplaced points one way, so the cheaper
folded order of each pair, plus the constants and the table's other terms,
bound it from below.  That is never below the table bound, since min(a + c,
b + d) >= min(a, b) + min(c, d) and each chord is at least min(f, b) at
both ends.  Weights are scaled by a multiple of every open count, so the
sum is exact before it is rounded up.  The bound prunes only subtrees with
no drawing below the current bound, so the search visits a subset of its
nodes in the same order and ends on the same drawing; on the ladder
`v 2 (0 1)^m 2 v` at m = 12 it cut the units from 84,857 to 8,539.

Every search first makes one greedy descent through the same levels,
appending at each step the point whose append charges least.  That drawing
is the incumbent, and the bound starts one above its count (at it when it
is the identity order, the first leaf) or at a lower cutoff.  So the search
prunes from the start, yet a completed one still ends on the first minimal
drawing in its order, and a stopped one returns the best drawing it found.

The tables come from one pass over the countable pairs, which sorts each
pair by the levels of its four endpoints: constant, candidate of a point
pair of some gap, or inner pair of a gap (a chord inside it, or three or
four endpoints in it).  Swapping two adjacent points of a gap changes only
the chord pairs with an endpoint at each: the candidates of the two points,
which the gap's weights count, the inner pairs listing both, and the
candidates of later gaps whose far ends they are.  Twins with equal weights
and neither of the other two kinds, which the same pass records, are tied:
both orders cost the same in every completion, so the search appends them
in ascending order only.  The first minimal drawing in its order has no
descending tied twins, so the rule changes no value and no witness.  In an
inter tally two points of one curve are always tied; the rule cut the units
of `graph --n 2 --k 5`'s pair searches from 61,459 to 36,152 and at k=6
from 978,606 to 324,460.

Apart from the search, `_grow_segment` draws an open segment one crossing
longer than a drawing it is given, placing the new crossing at its cheapest
position in its gap.  The catalog walk grows its prefixes this way, and a
grown drawing below k settles a prefix without a search.  Other prefixes
and the catalog's candidates are threshold queries at k (`_solve` with a
cutoff): the exact minimum and witness below k, else only k.

A query is answered through the cache key of one canonical form of its
curves: reversed, rotated, swapped or mirrored curves share a key, and so
do curves and their images under the reflection through v, all reflected
together.  The witness of the form is drawn back onto the query's curves.
Every query is its key and its form as plain data, which `_solve` answers.  `_self_form`
builds them for a self query, and `_pair_form` for every pair query and
every pair of the compatibility graph, by joining pieces of the texts of
its two curves, made once per curve.  `_solve` builds the searched curves
only when it searches or draws a witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

from .cache import CacheStore, default_cache_dir
from .canon import LoopClass, VLoopClass
from .words import (
    NORTH,
    SOUTH,
    GapAlphabet,
    PreconditionError,
    Word,
    V,
    check_hemisphere,
    equator_position,
    format_letter,
)

DEFAULT_BUDGET = 100_000_000

_HEMI_INT = {NORTH: 0, SOUTH: 1}
_HEMIS = (NORTH, SOUTH)
_letter_text = functools.cache(format_letter)  # each letter is formatted once


class _Stop(Exception):
    """Ends a search early: the budget ran out."""


@dataclass(frozen=True)
class OracleConfig:
    budget: int = DEFAULT_BUDGET
    cache_dir: str | Path | None = None
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise PreconditionError("budget must be at least 1")

    def store(self) -> CacheStore | None:
        """The cache store of `cache_dir`, built once per config, or of the
        default directory as `$LOOPFORGE_CACHE` and the working directory
        name it at each query: a library call's default config is shared."""
        if not self.use_cache:
            return None
        return self._store if self.cache_dir else CacheStore(default_cache_dir())

    @functools.cached_property
    def _store(self) -> CacheStore:
        return CacheStore(self.cache_dir)


@dataclass(frozen=True)
class CurveSpec:
    """One curve of a drawing: its gap letters, whether the diagram closes
    cyclically (off-equator based loops), and the hemisphere of its first
    chord."""

    letters: tuple[int, ...]
    closed: bool
    hemisphere: str

    def __post_init__(self) -> None:
        check_hemisphere(self.hemisphere)
        if self.closed and V in self.letters:
            raise PreconditionError("closed diagrams have no basepoint letter")
        if self.closed and len(self.letters) % 2:
            # chords alternate disks, so a closed curve crosses the equator
            # an even number of times
            raise PreconditionError("closed diagrams have an even number of crossings")
        if V in self.letters[1:-1]:
            raise PreconditionError("'v' allowed at segment ends only")

    def to_json(self) -> dict:
        return {
            "letters": [format_letter(a) for a in self.letters],
            "closed": self.closed,
            "hemisphere": self.hemisphere,
        }

    @staticmethod
    def from_json(obj: dict) -> "CurveSpec":
        letters = tuple(V if t == "v" else int(t) for t in obj["letters"])
        return CurveSpec(letters, obj["closed"], obj["hemisphere"])


@dataclass(frozen=True)
class Drawing:
    """A concrete drawing: curves plus the per-gap crossing orders.

    Crossing points are (curve index, letter position) pairs; basepoint
    letters are not listed (the basepoint is a single fixed position).
    """

    n: int
    curves: tuple[CurveSpec, ...]
    gap_orders: dict[int, tuple[tuple[int, int], ...]]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "curves": [c.to_json() for c in self.curves],
            "gapOrders": {
                str(g): [[ci, j] for (ci, j) in order]
                for g, order in sorted(self.gap_orders.items())
            },
        }

    @staticmethod
    def from_json(obj: dict) -> "Drawing":
        return Drawing(
            n=obj["n"],
            curves=tuple(CurveSpec.from_json(c) for c in obj["curves"]),
            gap_orders={
                int(g): tuple((ci, j) for ci, j in order)
                for g, order in obj["gapOrders"].items()
                if order  # older witnesses list empty gaps too
            },
        )


@dataclass(frozen=True)
class CrossingCount:
    """A crossing number with its realizing drawing; `exact` is False when
    the search budget ran out and `value` is only an upper bound."""

    value: int
    exact: bool
    witness: Drawing | None

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "exact": self.exact,
            "witness": self.witness.to_json() if self.witness else None,
        }


def _cross(a: int, b: int, c: int, d: int) -> bool:
    if a > b:
        a, b = b, a
    return (a < c < b) != (a < d < b)


class _Instance:
    """Preprocessed minimization instance."""

    def __init__(self, n: int, curves: tuple[CurveSpec, ...], tally: str):
        if tally not in ("self", "inter"):
            raise PreconditionError(f"bad tally {tally!r}")
        self.n = n
        self.curves = curves
        self.tally = tally

        # point ids: 0 is the basepoint slot, real crossings follow
        self.points: list[tuple[int, int]] = []
        self.point_id: dict[tuple[int, int], int] = {}
        self.gap_of: list[int] = [V]
        # only gaps that hold points get an entry, so memory follows the
        # word and not n
        gap_points: dict[int, list[int]] = {}
        # the chords of each disk as (idA, idB, curve, v_incident); a chord
        # joins consecutive letters, and a closed curve's last to its first
        self.disks: tuple[list[tuple[int, int, int, bool]], ...] = ([], [])
        self.within_gap: set[int] = set()
        for ci, spec in enumerate(curves):
            disk = _HEMI_INT[spec.hemisphere]
            for j, g in enumerate(spec.letters):
                pid = 0
                if g != V:
                    if not (0 <= g <= n):
                        raise PreconditionError(f"letter {g} outside gap range 0..{n}")
                    pid = len(self.gap_of)
                    self.point_id[(ci, j)] = pid
                    self.points.append((ci, j))
                    self.gap_of.append(g)
                    gap_points.setdefault(g, []).append(pid)
                if j:
                    self._chord(prev, pid, ci, disk)
                    disk ^= 1
                prev = pid
            if spec.closed and len(spec.letters) > 1:
                self._chord(prev, self.point_id[(ci, 0)], ci, disk)
        self.gap_points = gap_points

        # block bases in equator order; an empty gap takes no room, and the
        # basepoint one position
        self.base: dict[int, int] = {}
        off = 0
        for g in sorted((V, *gap_points), key=equator_position):
            self.base[g] = off
            off += len(gap_points[g]) if g != V else 1

    def _chord(self, a: int, b: int, curve: int, disk: int) -> None:
        """List the chord of point ids a and b, unless both are the
        basepoint: a loop staying there draws nothing.  The basepoint's gap
        V is no gap, so a chord at v lies within no gap."""
        if a or b:
            self.disks[disk].append((a, b, curve, not (a and b)))
            if self.gap_of[a] == self.gap_of[b]:
                self.within_gap.add(self.gap_of[a])

    def countable_pairs(self):
        """All chord pairs that can contribute a crossing: in one disk, not
        both at the basepoint, and of one curve for a self tally or of two
        curves for an inter tally."""
        same = self.tally == "self"
        for chords in self.disks:
            for i, (a1, b1, c1, v1) in enumerate(chords):
                for a2, b2, c2, v2 in chords[i + 1:]:
                    if not (v1 and v2) and (c1 == c2) == same:
                        yield (a1, b1, a2, b2)

    def evaluate_orders(self, orders: dict[int, tuple[int, ...]]) -> int:
        """The crossings of the drawing that orders each gap by `orders`."""
        pos = [0] * len(self.gap_of)
        pos[0] = self.base[V]
        for g in self.gap_points.keys() | orders.keys():
            order = orders.get(g, ())
            if sorted(order) != sorted(self.gap_points.get(g, ())):
                raise PreconditionError(f"order for gap {g} does not list its crossings")
            for idx, pid in enumerate(order):
                pos[pid] = self.base[g] + idx
        return sum(_cross(pos[a1], pos[b1], pos[a2], pos[b2])
                   for a1, b1, a2, b2 in self.countable_pairs())

    def identity_orders(self) -> dict[int, tuple[int, ...]]:
        return {g: tuple(pts) for g, pts in self.gap_points.items()}

    def drawing_for(self, orders: dict[int, tuple[int, ...]]) -> Drawing:
        return Drawing(
            n=self.n,
            curves=self.curves,
            gap_orders={
                g: tuple(self.points[pid - 1] for pid in orders[g])
                for g in sorted(self.gap_points)
            },
        )


_Less = list[tuple[int, int]]  # comparisons (p, q), each 1 if p goes before q
_Rows = list[tuple[int, int, _Less]]  # rows (f, b, ends), each min(f + x, b + y)


class _Search:
    def __init__(self, inst: _Instance, budget: int, cutoff: int | None):
        self.inst = inst
        self.budget = budget
        self.cutoff = cutoff
        self.units = 0

        sized = sorted(inst.gap_points)
        clean = [g for g in sized if g not in inst.within_gap]
        last = max(clean, key=lambda g: (len(inst.gap_points[g]), -g)) if clean else None
        rest = sorted(
            (g for g in sized if g != last),
            key=lambda g: (-len(inst.gap_points[g]), g),
        )
        self.gap_order = rest + ([last] if last is not None else [])
        order_index = {g: i for i, g in enumerate(self.gap_order)}

        # one pass over the countable pairs charges each at the level that
        # orders the last gap holding two of its endpoints: the highest level
        # two endpoints share.  The basepoint, at most one endpoint of a pair,
        # has level -1, which no other endpoint shares.  A pair with no shared
        # level is constant.  One with one endpoint u, v of each chord at the
        # level of gap g and both far ends ou, ov outside g is a candidate of
        # the point pair (u, v).  u and v are adjacent and ou, ov are two other
        # points (chords of one disk share no endpoint), so exactly one of the
        # two orders crosses: "u before v" iff ou comes first going round the
        # circle from g.  Far ends in two gaps: their blocks decide which,
        # before the search starts, so the candidate joins the fixed cost f of
        # "u before v" or b of "v before u".  Far ends sharing a gap h, which
        # is ordered before g: "u before v" crosses iff pos[p] < pos[q] for
        # ends (p, q), known once h is placed.  Every other pair has a chord
        # inside g, or three or four endpoints in it; it is listed under each
        # of its endpoints in g, with the others.
        # `apart[level][i]` holds the points that an inner pair or a later
        # candidate's far ends tell apart from point i of the gap at `level`.
        levels = len(self.gap_order)
        gaps = [inst.gap_points[g] for g in self.gap_order]
        gap_of = inst.gap_of
        base_pos = [inst.base[g] for g in gap_of]
        level_of = [-1] + [order_index[g] for g in gap_of[1:]]
        self.index_of = index_of = [0] * len(gap_of)  # a point's index in its gap
        for pts in gaps:
            for i, pid in enumerate(pts):
                index_of[pid] = i
        self.const_cost = 0
        self.fixed_w = [[[0] * len(pts) for _ in pts] for pts in gaps]
        self.varying_w: list[list[tuple[int, int, int, int]]] = [[] for _ in gaps]
        self.inner: list[list[list[tuple[tuple[int, int, int, int], list[int]]]]] = [
            [[] for _ in pts] for pts in gaps]
        self.apart: list[list[set[int]]] = [[set() for _ in pts] for pts in gaps]
        # (level, i, j) -> table -> varying ends, for each point pair (i, j),
        # i < j, with a candidate
        opens_of: dict[tuple[int, int, int], dict[int, list[tuple[int, int]]]] = {}
        for pair in inst.countable_pairs():
            a1, b1, a2, b2 = pair
            # the higher end of each chord first, then the chord of the higher
            # first end: p1 tops the other levels, and p2 tops q2
            if level_of[a1] < level_of[b1]:
                a1, b1 = b1, a1
            if level_of[a2] < level_of[b2]:
                a2, b2 = b2, a2
            if level_of[a1] < level_of[a2]:
                a1, b1, a2, b2 = a2, b2, a1, b1
            p1, q1, p2, q2 = level_of[a1], level_of[b1], level_of[a2], level_of[b2]
            u = None
            if p1 == q1 or p1 == p2 == q2:
                level = p1
            elif p1 == p2:
                level, u, ou, v, ov = p1, a1, b1, a2, b2
            elif p2 == q2:
                level = p2
            elif p2 == q1:
                level, u, ou, v, ov = p2, b1, a1, a2, b2
            elif q1 == q2:
                level, u, ou, v, ov = q1, b1, a1, b2, a2
            else:
                if _cross(base_pos[a1], base_pos[b1], base_pos[a2], base_pos[b2]):
                    self.const_cost += 1
                continue
            if u is None:
                mine = [p for p in pair if level_of[p] == level]
                for p in mine:
                    others = [e for e in mine if e != p]
                    self.inner[level][index_of[p]].append((pair, others))
                    self.apart[level][index_of[p]].update(index_of[e] for e in others)
                continue
            if u > v:
                u, ou, v, ov = v, ov, u, ou
            i, j = index_of[u], index_of[v]
            bu, pou, h = base_pos[u], base_pos[ou], level_of[ou]
            opens = opens_of.setdefault((level, i, j), {})
            if h != level_of[ov]:
                if _cross(bu, pou, bu + 1, base_pos[ov]):
                    self.fixed_w[level][i][j] += 1
                else:
                    self.fixed_w[level][j][i] += 1
            else:
                ends = (ou, ov) if _cross(bu, pou, bu + 1, pou + 1) else (ov, ou)
                self.varying_w[level].append((i, j) + ends)
                opens.setdefault(h + 1, []).append(ends)
                self.apart[h][index_of[ou]].add(index_of[ov])
                self.apart[h][index_of[ov]].add(index_of[ou])

        # bound tables.  Table L is read while gap L - 1 is being ordered, so
        # it covers the candidates of gaps L and later.  The ends in gap h
        # count from table index(h) + 1 on, when the placed points of h sit
        # in their order and its unplaced points share the next position:
        # with x of the k varying candidates ordered p before q and y
        # ordered q before p (two unplaced ends count for neither), the pair
        # adds min(f + x, b + y).  Where one order is never dearer that is a
        # constant plus x (or y), kept as one flat list of comparisons; only
        # the other rows pay for the min.
        self.bound_const = [0] * (levels + 1)
        self.bound_less: list[_Less] = [[] for _ in range(levels + 1)]
        self.bound_rows: list[_Rows] = [[] for _ in range(levels + 1)]
        most = [0] * levels  # most[L]: the most ends in gap L of a row of table L + 1
        for (gi, i, j), opens in opens_of.items():
            f, b = self.fixed_w[gi][i][j], self.fixed_w[gi][j][i]
            varying: list[tuple[int, int]] = []
            for level in range(1, gi + 1):
                new = opens.get(level, ())
                varying += new
                k = len(varying)
                if f + k <= b:
                    self.bound_const[level] += f
                    self.bound_less[level] += varying
                elif b + k <= f:
                    self.bound_const[level] += b
                    self.bound_less[level] += [(q, p) for p, q in varying]
                elif k == 1:  # f == b: either order costs f
                    self.bound_const[level] += f
                else:
                    self.bound_rows[level].append((f, b, list(varying)))
                    most[level - 1] = max(most[level - 1], len(new))
        self.fold_scale = [math.lcm(*range(1, k + 1)) for k in most]  # open counts divide it

        self.pos = list(base_pos)
        self.current: dict[int, tuple[int, ...]] = {}

    # -- bound helpers ---------------------------------------------------

    def _gap_weights(self, level: int) -> list[list[int]]:
        """w[i][j]: the cost of the i-th point of the gap at `level` before
        its j-th, counted over the candidates of the point pair, with the
        gaps before it placed."""
        w = [row[:] for row in self.fixed_w[level]]
        pos = self.pos
        for i, j, p, q in self.varying_w[level]:
            if pos[p] < pos[q]:
                w[i][j] += 1
            else:
                w[j][i] += 1
        return w

    def _split(self, const: int, less: _Less, rows: _Rows) -> tuple[int, _Less, _Rows]:
        """Split a table, or a node's constant and open part of one, at the
        current positions: into a constant, `const` plus the decided
        comparisons that count and each row left with no open end at its
        min(f, b), and an open part, the comparisons whose two ends share a
        position (unplaced points of the gap being ordered) and each row with
        open ends, its decided ends counted into (f, b).  A row with no end
        decided stays the same tuple, so a child shares it."""
        pos, open_less, open_rows = self.pos, [], []
        for end in less:
            p, q = end
            if pos[p] == pos[q]:
                open_less.append(end)
            elif pos[p] < pos[q]:
                const += 1
        for row in rows:
            f, b, ends = row
            opened = []
            for end in ends:
                p, q = end
                if pos[p] < pos[q]:
                    f += 1
                elif pos[q] < pos[p]:
                    b += 1
                else:
                    opened.append(end)
            if len(opened) == len(ends):
                open_rows.append(row)
            elif opened:
                open_rows.append((f, b, opened))
            else:
                const += f if f < b else b
        return const, open_less, open_rows

    def _table(self, level: int, rest: int, p: int, const: int, less: _Less, rows: _Rows) -> int:
        """Lower bound on the cost still to charge at the child that appends
        point p (0, the basepoint, for none) to a node of the gap at `level`:
        `rest`, the cheaper orders of the child's pairs of unplaced points,
        plus table `level` + 1 from the node's constant and open part, where
        p decides the comparisons and row ends at p, as the first end or the
        second, and every other open end counts for neither order."""
        total = rest + const
        for a, _ in less:
            if a == p:
                total += 1
        for f, b, ends in rows:
            for a, c in ends:  # f + x and b + y
                if a == p:
                    f += 1
                elif c == p:
                    b += 1
            total += f if f < b else b
        return total

    def _folded(self, level: int, w: list[list[int]], table: int, less: _Less, rows: _Rows) -> int:
        """`table`, the table bound of a node of the gap at `level`, raised by
        folding into the gap's pair weights w the comparisons and row ends of
        the open part `less`, `rows` of it or its parent whose two ends are
        still unplaced, which the table counts for neither order.  Costs are
        scaled by `fold_scale`, so the sum is exact."""
        pos, scale = self.pos, self.fold_scale[level]
        gain, pairs = 0, {}  # pairs[p, q]: the scaled cost folded into "p before q"
        for end in less:
            p, q = end
            if pos[p] == pos[q]:  # both unplaced
                pairs[end] = pairs.get(end, 0) + scale
        for f, b, ends in rows:
            opened = []
            for end in ends:
                p, q = end
                if pos[p] < pos[q]:
                    f += 1
                elif pos[q] < pos[p]:
                    b += 1
                else:
                    opened.append(end)
            if opened:
                k = len(opened)
                low = f if f < b + k else b + k  # the chord at X = 0
                gain += low - (f if f < b else b)
                slope = ((f + k if f + k < b else b) - low) * (scale // k)
                if slope:
                    for end in opened:
                        pairs[end] = pairs.get(end, 0) + slope
        gain *= scale
        index_of = self.index_of
        for (p, q), c in pairs.items():
            back = pairs.get((q, p))
            if back is None or p < q:  # each point pair once
                i, j = index_of[p], index_of[q]
                c_ij, c_ji = w[i][j] * scale, w[j][i] * scale
                c += c_ij
                back = c_ji + (back or 0)
                gain += (c if c < back else back) - (c_ij if c_ij < c_ji else c_ji)
        return table - (-gain // scale)

    def _charge(self, amount: int) -> None:
        self.units += amount
        if self.units > self.budget:
            raise _Stop

    # -- search ----------------------------------------------------------

    def run(self) -> tuple[int, dict[int, tuple[int, ...]], bool]:
        # every prune keeps only drawings strictly below `bound`.  It starts
        # one above the greedy drawing, so the search still ends on the first
        # minimal drawing in its order, or at the greedy count when that
        # drawing is the identity order, the first leaf in that order.
        self.value, self.orders = self._dive()
        bound = self.value + (self.orders != self.inst.identity_orders())
        self.bound = bound if self.cutoff is None else min(bound, self.cutoff)
        try:
            self._charge(1)
            self._dfs(0, self.const_cost)
            return self.value, self.orders, True
        except (_Stop, RecursionError):
            # each appended point is one call deeper, so gaps of about a
            # thousand points end the search as the budget does
            return self.value, self.orders, False

    def _dive(self) -> tuple[int, dict[int, tuple[int, ...]]]:
        """The greedy drawing every search starts from, and its count.  It
        orders the gaps as the search does, each by appending the unplaced
        point whose append charges least, the lowest on ties, with the charge
        of `_extend`: the row of w and the decided pairs listed under the
        point.  Like the table build, it is not charged to the budget.  It
        repeats that charge rather than share a method with `_extend`, where
        one more call per appended point made the pair searches of the k=5
        graph 7-9% slower (one core, Python 3.11)."""
        inst, pos, start = self.inst, self.pos, self.pos[:]
        acc, orders = self.const_cost, {}
        for level, g in enumerate(self.gap_order):
            pts, inner, w = inst.gap_points[g], self.inner[level], self._gap_weights(level)
            left, order = list(range(len(pts))), []
            row = [sum(r) for r in w]  # w[i][i] is 0
            for at in range(inst.base[g], inst.base[g] + len(pts)):
                for j in left:
                    pos[pts[j]] = at + 1
                costs = []
                for i in left:
                    pos[pts[i]] = at
                    cost = row[i]
                    for (a1, b1, a2, b2), ends in inner[i]:
                        if sum(pos[e] > at for e in ends) == 1 and _cross(
                                pos[a1], pos[b1], pos[a2], pos[b2]):
                            cost += 1
                    costs.append((cost, i))
                    pos[pts[i]] = at + 1
                inc, c = min(costs)
                pos[pts[c]] = at
                left.remove(c)
                for i in left:
                    row[i] -= w[i][c]
                order.append(pts[c])
                acc += inc
            orders[g] = tuple(order)
        pos[:] = start
        return acc, orders

    def _record(self, value: int, orders: dict[int, tuple[int, ...]]) -> None:
        """Keep a drawing below the bound, and lower the bound to it."""
        self.value, self.orders = value, dict(orders)
        self.bound = value

    def _dfs(self, level: int, acc: int) -> None:
        """Search the orders of the gaps from `level` on, the earlier ones
        placed and `acc` charged."""
        if level == len(self.gap_order):
            if acc < self.bound:
                self._record(acc, self.current)
            return
        w = self._gap_weights(level)
        m = len(w)
        rest = 0
        for i in range(m):
            wi = w[i]
            for j in range(i + 1, m):
                c_ij, c_ji = wi[j], w[j][i]
                rest += c_ij if c_ij < c_ji else c_ji
        const, less, rows = self._split(self.bound_const[level + 1],
                                        self.bound_less[level + 1], self.bound_rows[level + 1])
        bound = acc + self._table(level, rest, 0, const, less, rows)
        if bound < self.bound and self._folded(level, w, bound, less, rows) < self.bound:
            self._extend(level, acc, rest, (), list(range(m)), w, const, less, rows)

    def _extend(self, level: int, acc: int, rest: int, order: tuple[int, ...], left: list[int],
                w: list[list[int]], const: int, less: _Less, rows: _Rows) -> None:
        """Append each point of `left`, the indices of the unplaced points of
        the gap at `level`, after the placed points `order`, and search on
        below the bound.  The unplaced points share the position after the
        placed ones, since each of them will follow every placed point.
        `const`, `less` and `rows` split the next table at this node.

        A point is not appended right after a tied twin of a higher index:
        the two orders of tied twins cost the same in every completion, and
        the ascending one comes first, so the first minimal drawing has no
        descending tied twins.  Twins are tied when their weights are equal
        and `apart` does not list them."""
        g = self.gap_order[level]
        pts = self.inst.gap_points[g]
        inner, apart = self.inner[level], self.apart[level]
        pos = self.pos
        at = self.inst.base[g] + len(order)
        prev = self.index_of[order[-1]] if order else -1  # -1: no index is below it
        w_prev, apart_prev = w[prev], apart[prev]
        first, two = left[0], len(left) == 2
        for i in left:
            if i < prev and w_prev[i] == w[i][prev] and i not in apart_prev:
                continue
            if two and i != first and w[i][first] == w[first][i] and first not in apart[i]:
                continue  # the last point, `first`, would follow its tied twin i
            self.units += 1  # `_charge(1)`, inline: this runs once per appended point
            if self.units > self.budget:
                raise _Stop
            p = pts[i]
            pos[p] = at
            others = [j for j in left if j != i]
            inc = drop = 0
            wi = w[i]
            for j in others:
                pos[pts[j]] = at + 1
                # a pair of p and an unplaced point is decided: p goes first
                c_ij, c_ji = wi[j], w[j][i]
                inc += c_ij
                drop += c_ij if c_ij < c_ji else c_ji
            for (a1, b1, a2, b2), ends in inner[i]:
                # decided now if one other endpoint in the gap is left: it
                # goes last
                if sum(pos[e] > at for e in ends) == 1 and _cross(
                        pos[a1], pos[b1], pos[a2], pos[b2]):
                    inc += 1
            if len(others) <= 1:  # the last point goes after all the others
                self._charge(len(others))
                if acc + inc < self.bound:
                    self.current[g] = order + (p,) + tuple(pts[j] for j in others)
                    self._dfs(level + 1, acc + inc)
            else:
                bound = acc + inc + self._table(level, rest - drop, p, const, less, rows)
                if bound < self.bound and self._folded(level, w, bound, less, rows) < self.bound:
                    self._extend(level, acc + inc, rest - drop, order + (p,), others, w,
                                 *self._split(const, less, rows))
        for i in left:
            pos[pts[i]] = at


def minimize_crossings(
    n: int,
    curves: tuple[CurveSpec, ...] | list[CurveSpec],
    tally: str,
    budget: int = DEFAULT_BUDGET,
    cutoff: int | None = None,
) -> tuple[int, Drawing, bool]:
    """Minimize counted crossings over all drawings of `curves`.

    Returns (value, witness, exact).  The search starts from a greedy
    drawing with its bound one above it, so a search stopped by its budget
    returns the best drawing it found, an upper bound.  A `cutoff` below
    that bound starts the bound at the cutoff instead, so the search keeps
    just the drawings below it: a completed search returns the exact
    minimum when that is below the cutoff, and otherwise proves
    `min >= cutoff` with a value at or above it.
    """
    inst = _Instance(n, tuple(curves), tally)
    search = _Search(inst, budget, cutoff)
    value, orders, exact = search.run()
    return value, inst.drawing_for(orders), exact


def _segment_start(n: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """The drawing of a lone basepoint letter, which `_grow_segment` grows."""
    return (0,), 0, (0, 1) + (0,) * n


def _grow_segment(drawn: tuple[tuple[int, ...], int, tuple[int, ...]],
                  letters: tuple[int, ...]) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """A drawing of the open segment `letters`, first chord in the north
    disk, grown from `drawn`, a drawing of `letters[:-1]`, by its last
    crossing.

    A drawing here is (circle, count, sizes): `circle` lists the letter
    positions of the crossings and of a basepoint letter in equator order
    (0, v, 1, ..., n), `count` is their self-crossings, and `sizes[r]` is
    how many of them lie at place r of that order.  The last crossing, a
    gap letter, goes to the cheapest position in its gap, the lowest one on
    ties.  Placing it keeps every earlier crossing, so the count rises by
    the crossings of the one new chord with the earlier chords of its disk;
    those are every second chord before it."""
    circle, count, sizes = drawn
    m = len(letters) - 1
    # the slots of the new crossing's gap run from its block's start to its end
    rank = equator_position(letters[m])
    start = sum(sizes[:rank])
    pos = [0] * m
    for i, p in enumerate(circle):
        pos[p] = 2 * i  # doubled, so a slot between i - 1 and i sits at 2i - 1
    near, x = pos[m - 1], 2 * start - 1
    lo, hi = (near, x) if near < x else (x, near)
    # across[j]: whether the chord (j, j + 1), every second one before the
    # new chord, crosses the new chord to the first slot
    chord_at, across = [None] * m, [False] * m
    for j in range(m - 3, -1, -2):
        chord_at[j] = chord_at[j + 1] = j
        across[j] = (lo < pos[j] < hi) != (lo < pos[j + 1] < hi)
    cost = best_cost = sum(across)
    best = start
    for slot in range(start, start + sizes[rank]):
        # the next slot passes one point, which then lies on the other side
        # of the new chord, so only the chord at that point changes
        j = chord_at[circle[slot]]
        if j is not None:
            cost += -1 if across[j] else 1
            across[j] = not across[j]
            if cost < best_cost:
                best_cost, best = cost, slot + 1
    return (circle[:best] + (m,) + circle[best:], count + best_cost,
            sizes[:rank] + (sizes[rank] + 1,) + sizes[rank + 1:])


def count_crossings(drawing: Drawing, tally: str = "auto") -> int:
    """Recount the crossings of a fixed drawing.

    `tally` "auto" counts self-crossings for a single curve and inter-curve
    crossings for several curves.
    """
    if tally == "auto":
        tally = "self" if len(drawing.curves) == 1 else "inter"
    inst = _Instance(drawing.n, drawing.curves, tally)
    try:
        orders = {
            g: tuple(inst.point_id[pt] for pt in order)
            for g, order in drawing.gap_orders.items()
        }
    except KeyError as exc:
        raise PreconditionError(f"drawing lists an unknown crossing point {exc}") from exc
    return inst.evaluate_orders(orders)


# -- canonical forms and cache keys --------------------------------------------


class _Reflection(dict):
    """σ_n: the reflection of the sphere that fixes v and keeps both
    hemispheres.  It reverses the equator (0, v, 1, 2, ..., n), so it maps
    gap 0 to 1, 1 to 0 and g to n + 2 - g for 2 <= g <= n.  Chords keep their
    disks and interleavings, so every crossing minimum is unchanged.  A
    letter's image is stored when it is first looked up, so the map grows
    with the words and not with n; a letter out of range stays, and reaches
    the search's range check."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, g: int) -> int:
        self[g] = image = 1 - g if g in (0, 1) else self.n + 2 - g if 2 <= g <= self.n else g
        return image


_reflection = functools.cache(_Reflection)  # one map per n


def _reflect(letters: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(map(_reflection(n).__getitem__, letters))


def _letters_key(letters) -> str:
    return ".".join(map(_letter_text, letters))


def _moved(letters: tuple[int, ...], shift: int, rev: bool) -> tuple[int, ...]:
    rot = letters[shift:] + letters[:shift]
    return rot[::-1] if rev else rot


def _text(letters: tuple[int, ...], sig: _Reflection | None) -> tuple[str, bool]:
    """The lesser letter string of `letters` and of their image under `sig`,
    if any, and whether it is the image.  Text order is the order of the
    letters' texts, and the two agree up to the first letter `sig` moves, so
    that letter decides, and only the lesser string is formatted."""
    if sig is not None:
        for a in letters:
            b = sig[a]
            if b != a:
                if _letter_text(b) < _letter_text(a):
                    return _letters_key(map(sig.__getitem__, letters)), True
                break
    return _letters_key(letters), False


def _least(letters: tuple[int, ...], sig: _Reflection | None,
           shifts=(0,)) -> tuple[str, bool, int, bool]:
    """The least letter string of `letters` over reversal, `shifts` and the
    reflection `sig`, if any, with the reflection, shift and reversal that
    give it; of equal strings, one without the reflection."""
    best = None
    for s in shifts:
        for r in (False, True):
            least = _text(_moved(letters, s, r), sig) + (s, r)
            if best is None or least < best:
                best = least
    return best


@dataclass(frozen=True)
class _Form:
    """A query in the form its cache key names.  Each search pairs the curves
    to search with the query's curves that their drawings are drawn back on
    (an x-pair searches both relative hemispheres).  The move (query curve,
    shift, reversed) of a searched curve sends its position j to position
    (shift + (m-1-j if reversed else j)) mod m of that query curve.  A
    `reflected` form searches the images under σ_n of all its curves, whose
    gap h is the query's gap σ_n(h), in reverse order."""

    searches: tuple[tuple[tuple[CurveSpec, ...], tuple[CurveSpec, ...]], ...]
    moves: tuple[tuple[int, int, bool], ...]
    reflected: bool

    @staticmethod
    def of(n, queries, moves, hemispheres, reflected) -> "_Form":
        """Search each query, a tuple of curves (letters, closed,
        hemisphere), moved by `moves` and reflected by σ_n if `reflected`,
        starting in its hemispheres."""
        def letters(curve: CurveSpec, shift: int, rev: bool) -> tuple[int, ...]:
            moved = _moved(curve.letters, shift, rev)
            return _reflect(moved, n) if reflected else moved

        queries = [tuple(CurveSpec(*c) for c in q) for q in queries]
        return _Form(tuple(
            (tuple(CurveSpec(letters(q[qi], s, r), q[qi].closed, h)
                   for (qi, s, r), h in zip(moves, hs)), q)
            for q, hs in zip(queries, hemispheres)
        ), moves, reflected)

    def back(self, drawing: Drawing) -> Drawing:
        """A drawing of searched curves, drawn on the query's curves."""
        query = dict(self.searches)[drawing.curves]

        def point(ci: int, j: int) -> tuple[int, int]:
            qi, shift, rev = self.moves[ci]
            m = len(query[qi].letters)
            return qi, (shift + (m - 1 - j if rev else j)) % m

        orders = {g: tuple(point(*p) for p in order) for g, order in drawing.gap_orders.items()}
        if self.reflected:
            sig = _reflection(drawing.n)
            orders = {sig[g]: order[::-1] for g, order in orders.items()}
        return Drawing(drawing.n, query, orders)


def _self_key(n: int, kind: str, letters: tuple[int, ...],
              reflect: bool = True) -> tuple[str, int, bool, bool]:
    """The key of a self query on a closed curve ("x"), a v-word ("v") or an
    open segment ("seg"), with the shift, reversal and reflection that give
    it: the least letter string over reversal, the rotations of a closed
    curve, and σ_n unless not `reflect`."""
    # the closing chord makes the diagram cyclic
    text, refl, shift, rev = _least(letters, _reflection(n) if reflect else None,
                                    range(len(letters) or 1) if kind == "x" else (0,))
    return (f"n{n}|seg|{text}" if kind == "seg" else f"n{n}|self|{kind}|{text}"), shift, rev, refl


def _self_form(n: int, kind: str, letters: tuple[int, ...]) -> tuple[str, tuple]:
    """The key of a self query on the `kind` curve of `letters`, first arc
    north, and the arguments of `_Form.of` that build the form it names."""
    key, shift, rev, refl = _self_key(n, kind, letters)
    return key, (n, [((letters, kind == "x", NORTH),)], ((0, shift, rev),), [(NORTH,)], refl)


def _open_text(n: int, kind: str, letters: tuple[int, ...],
               hemisphere: str) -> tuple[str, tuple, tuple]:
    """The text of an open curve of `kind`, and the curve as (letters,
    closed, hemisphere).  The text lists the pieces `_pair_form` joins, for
    the forward and the reversed traversal of the curve and of its image
    under σ_n: as a key's first curve, (letter string, reflection,
    hemisphere, reversal), least first; and as its second, for each
    reflection, (the letter string after a first of hemisphere 0 or 1,
    hemisphere, reversal)."""
    hemi = _HEMI_INT[check_hemisphere(hemisphere)]
    firsts, seconds = [], []
    for refl, image in zip((False, True), (letters, _reflect(letters, n))):
        parts = ((_letters_key(image), hemi, False),
                 (_letters_key(image[::-1]), hemi ^ (len(image) % 2), True))
        firsts += [(t + "@0~", refl, h, r) for t, h, r in parts]
        seconds.append([((f"{t}@{h}", f"{t}@{h ^ 1}"), h, r) for t, h, r in parts])
    return kind, (sorted(firsts), seconds), (letters, False, hemisphere)


def _class_text(c: LoopClass, n: int) -> tuple[str, tuple, tuple]:
    """The text of a class's curve, an x-curve's first arc north: for an
    x-curve, the keys of its self query and of its image's under σ_n, each
    least over rotation and reversal alone."""
    if isinstance(c, VLoopClass):
        return _open_text(n, "v", c.word().letters, c.start_hemisphere)
    keys = tuple(_self_key(n, "x", letters, reflect=False)
                 for letters in (c.reduced, _reflect(c.reduced, n)))
    return "x", keys, (c.reduced, True, NORTH)


def _pair_form(n: int, t1: tuple, t2: tuple) -> tuple[str, tuple]:
    """The key of a pair query on two curves of one kind, from their texts,
    and the arguments of `_Form.of` that build the form it names.  σ_n
    reflects both curves or neither: one curve's image alone may cross the
    other curve more or less often."""
    (kind, a, c1), (other, b, c2) = t1, t2
    if kind != other:
        raise PreconditionError("cannot pair classes of different kinds")
    if kind == "x":
        # the least joined key, of the curves or of their images; of equal
        # keys, the curves'
        text, refl = min(("~".join(sorted((a[rho][0], b[rho][0]))), rho) for rho in (False, True))
        a, b = a[refl], b[refl]
        order = (0, 1) if a[0] <= b[0] else (1, 0)
        # a searched closed curve starts one arc later than its query curve
        # per odd shift, so each odd shift flips the relative hemisphere once
        flip = (a[1] + b[1]) % 2
        queries = [(c1, (c2[0], True, _HEMIS[h ^ flip])) for h in (0, 1)]
        return f"n{n}|pairx|{text}", (
            n, queries, tuple((i,) + (a, b)[i][1:3] for i in order),
            [(NORTH, h) for h in _HEMIS], refl)
    # value-preserving transforms: swap curves, reverse either traversal,
    # mirror both hemispheres, reflect both curves by σ_n.  The key is the
    # least string "p@0~q@d" over a traversal p of one curve, then one q of
    # the other, both of the curves or both of their images, and their
    # relative hemisphere d; the mirror image, p@1, is never less.  A letter
    # string holds no "@", so of two different "p@0~" pieces neither begins
    # the other: the greater one starts only greater keys, and equal keys
    # have equal pieces.  Those are told apart as (p, q) tuples are, by the
    # reflection, then the hemisphere, curve and reversal of p, then of q.
    key = None
    for i, ((firsts, _), (_, seconds)) in enumerate(((a, b), (b, a))):
        for first, refl, h, r in firsts:
            if key is not None and first > key:
                break  # so are the later firsts
            for pieces, hq, rq in seconds[refl]:
                text = first + pieces[h]
                if key is None or text < key or text == key and (
                        refl, h, i, r, hq, 1 - i, rq) < pick:
                    key, pick = text, (refl, h, i, r, hq, 1 - i, rq)
    refl, hf, i, ri, hs, j, rj = pick
    return f"n{n}|pair|{kind}|{key}", (
        n, [(c1, c2)], ((i, 0, ri), (j, 0, rj)), [(NORTH, _HEMIS[hf ^ hs])], refl)


def _solve(n: int, key: str, form: tuple, config: OracleConfig,
           cutoff: int | None = None, drawn: bool = True) -> CrossingCount:
    """Answer a query from the cache entry of `key` if the entry decides it,
    or else search each curve tuple of `_Form.of(*form)`, one curve for a
    self tally and two for an inter tally, keep the least value and write
    what the searches proved: the exact minimum with its witness, or with a
    `cutoff` at or below the minimum, `at_least` the cutoff.  The result
    reads as `minimize_crossings` with that cutoff, its witness drawn on the
    query's curves, but a proof of `min >= cutoff`, searched or read, is the
    cutoff with no witness, and the form is built only when it is read.
    Unless `drawn`, no witness is drawn, so an entry answers without one.
    An entry whose value is not an int, or whose witness does not draw back
    when it is read, is a miss."""
    store = config.store()
    entry = (store.get(key) if store is not None else None) or {}
    exact = entry.get("exact") and type(entry.get("value")) is int
    known = entry["value"] if exact else entry.get("at_least")
    if type(known) is not int:
        known = 0
    if cutoff is not None and known >= cutoff:
        return CrossingCount(cutoff, True, None)
    if exact and not drawn:
        return CrossingCount(known, True, None)
    form = _Form.of(*form)
    if exact:
        try:
            return CrossingCount(known, True, form.back(Drawing.from_json(entry["witness"])))
        except (LookupError, TypeError, ValueError, AttributeError):
            pass  # a miss: search, and replace the entry
    results = [minimize_crossings(n, curves, "self" if len(curves) == 1 else "inter",
                                  config.budget, cutoff) for curves, _ in form.searches]
    value, witness, _ = min(results, key=lambda r: r[0])
    exact = all(r[2] for r in results)
    below = cutoff is None or value < cutoff
    if store is not None and exact:
        # the entry did not decide the query, so these facts replace it
        store.put(key, {"value": value, "exact": True, "witness": witness.to_json()}
                  if below else {"at_least": cutoff})
    return (CrossingCount(value, exact, form.back(witness) if drawn else None) if below
            else CrossingCount(cutoff if exact else value, exact, None))


# -- public word/class oracles ------------------------------------------------


def self_intersection_number(
    word: Word, alphabet: GapAlphabet, config: OracleConfig = OracleConfig()
) -> CrossingCount:
    """Smallest number of self-crossings over all drawings inducing `word`.

    The value does not depend on the hemisphere of the first arc (mirroring
    the sphere across the equator maps drawings to drawings).
    """
    for a in word.letters:
        alphabet.validate_letter(a)
    return _solve(alphabet.n, *_self_form(alphabet.n, word.kind, word.letters), config)


def pair_intersection_number(
    c1: LoopClass,
    c2: LoopClass,
    alphabet: GapAlphabet,
    config: OracleConfig = OracleConfig(),
) -> CrossingCount:
    """Minimal crossings between the two classes over joint drawings.

    v-classes fix the hemisphere of each first arc; for x-classes the
    minimum is additionally taken over the relative hemisphere choice.
    Basepoint coincidence is never an intersection.
    """
    n = alphabet.n
    return _solve(n, *_pair_form(n, _class_text(c1, n), _class_text(c2, n)), config)


# -- segment threshold oracle --------------------------------------------------


def segment_self_at_least(
    letters: tuple[int, ...],
    k: int,
    alphabet: GapAlphabet,
    config: OracleConfig = OracleConfig(),
) -> bool | None:
    """True if every drawing of the segment has >= k self-crossings, False if
    some drawing has fewer, None if the budget ran out undecided.  Below k
    the search finds the exact minimum, which the cache keeps as an exact
    query would.  No witness is drawn, from a search or from the cache."""
    res = _solve(alphabet.n, *_self_form(alphabet.n, "seg", tuple(letters)), config, k,
                 drawn=False)
    return False if res.value < k else (res.exact or None)
