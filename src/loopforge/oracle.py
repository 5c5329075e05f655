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

The minimization is exact branch and bound: gaps are ordered one at a time;
a chord pair is charged as soon as the orders of all gaps holding two or
more of its endpoints are fixed; unordered gaps contribute a one-sided
lower bound (sum over point pairs of the cheaper relative order).  The
largest gap without internal chords is left last and solved by dynamic
programming over point subsets instead of permutations.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
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
    format_letter,
)

DEFAULT_BUDGET = 100_000_000

_HEMI_INT = {NORTH: 0, SOUTH: 1}


class _Stop(Exception):
    """Ends a search early: the budget ran out, or a threshold search found a
    drawing below its cutoff."""


@dataclass(frozen=True)
class OracleConfig:
    budget: int = DEFAULT_BUDGET
    cache_dir: str | Path | None = None
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise PreconditionError("budget must be at least 1")

    def store(self) -> CacheStore | None:
        if not self.use_cache:
            return None
        return CacheStore(self.cache_dir or default_cache_dir())


@dataclass(frozen=True)
class CurveSpec:
    """One curve of a drawing: its gap letters, whether the diagram closes
    cyclically (off-equator based loops), and the hemisphere of its first
    chord."""

    letters: tuple[int, ...]
    closed: bool
    hemisphere: str

    def __post_init__(self) -> None:
        if self.hemisphere not in (NORTH, SOUTH):
            raise PreconditionError(f"bad hemisphere {self.hemisphere!r}")
        if self.closed and V in self.letters:
            raise PreconditionError("closed diagrams have no basepoint letter")
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


def _chords_of(spec: CurveSpec, curve_idx: int):
    """Yield (endA, endB, disk) with ends as (curve, pos) or None for v."""
    m = len(spec.letters)
    if m < 2:
        return
    steps = [(j, j + 1) for j in range(m - 1)]
    if spec.closed:
        steps.append((m - 1, 0))
    h0 = _HEMI_INT[spec.hemisphere]
    for k, (a, b) in enumerate(steps):
        ga, gb = spec.letters[a], spec.letters[b]
        if ga == V and gb == V:
            continue  # a loop staying at the basepoint draws nothing
        end_a = None if ga == V else (curve_idx, a)
        end_b = None if gb == V else (curve_idx, b)
        yield end_a, end_b, (h0 + k) % 2


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
        gap_points: dict[int, list[int]] = {g: [] for g in range(n + 1)}
        for ci, spec in enumerate(curves):
            for j, g in enumerate(spec.letters):
                if g == V:
                    continue
                if not (0 <= g <= n):
                    raise PreconditionError(f"letter {g} outside gap range 0..{n}")
                pid = len(self.gap_of)
                self.point_id[(ci, j)] = pid
                self.points.append((ci, j))
                self.gap_of.append(g)
                gap_points[g].append(pid)
        self.gap_points = gap_points

        # block bases in equator order (0, v, 1, ..., n)
        base: dict[int, int] = {}
        off = 0
        for g in range(n + 1):
            base[g] = off
            off += len(gap_points[g])
            if g == 0:
                base[V] = off
                off += 1
        self.base = base

        # chords as (idA, idB, disk, curve, v_incident); basepoint id is 0
        self.chords: list[tuple[int, int, int, int, bool]] = []
        for ci, spec in enumerate(curves):
            for end_a, end_b, disk in _chords_of(spec, ci):
                ia = 0 if end_a is None else self.point_id[end_a]
                ib = 0 if end_b is None else self.point_id[end_b]
                self.chords.append((ia, ib, disk, ci, ia == 0 or ib == 0))

        self.within_gap: dict[int, bool] = {g: False for g in range(n + 1)}
        for ia, ib, _, _, _ in self.chords:
            if ia != 0 and ib != 0 and self.gap_of[ia] == self.gap_of[ib]:
                self.within_gap[self.gap_of[ia]] = True

    def counted(self, c1: int, c2: int) -> bool:
        return (c1 == c2) == (self.tally == "self")

    def countable_pairs(self):
        """All chord pairs that can contribute a crossing."""
        for i in range(len(self.chords)):
            a1, b1, d1, c1, v1 = self.chords[i]
            for j in range(i + 1, len(self.chords)):
                a2, b2, d2, c2, v2 = self.chords[j]
                if d1 != d2 or (v1 and v2) or not self.counted(c1, c2):
                    continue
                yield (a1, b1, a2, b2)

    def evaluate_orders(self, orders: dict[int, tuple[int, ...]]) -> int:
        pos = self.positions_for(orders)
        return sum(
            1
            for (a1, b1, a2, b2) in self.countable_pairs()
            if _cross(pos[a1], pos[b1], pos[a2], pos[b2])
        )

    def positions_for(self, orders: dict[int, tuple[int, ...]]) -> list[int]:
        pos = [0] * len(self.gap_of)
        pos[0] = self.base[V]
        for g in range(self.n + 1):
            order = orders.get(g, ())
            if sorted(order) != sorted(self.gap_points[g]):
                raise PreconditionError(f"order for gap {g} does not list its crossings")
            for idx, pid in enumerate(order):
                pos[pid] = self.base[g] + idx
        return pos

    def identity_orders(self) -> dict[int, tuple[int, ...]]:
        return {g: tuple(pts) for g, pts in self.gap_points.items()}

    def drawing_for(self, orders: dict[int, tuple[int, ...]]) -> Drawing:
        return Drawing(
            n=self.n,
            curves=self.curves,
            gap_orders={
                g: tuple(self.points[pid - 1] for pid in orders.get(g, ()))
                for g in range(self.n + 1)
            },
        )


class _Search:
    def __init__(self, inst: _Instance, budget: int, cutoff: int | None):
        self.inst = inst
        self.budget = budget
        self.cutoff = cutoff
        self.units = 0

        n = inst.n
        sized = [g for g in range(n + 1) if inst.gap_points[g]]
        clean = [g for g in sized if not inst.within_gap[g]]
        last = max(clean, key=lambda g: (len(inst.gap_points[g]), -g)) if clean else None
        rest = sorted(
            (g for g in sized if g != last),
            key=lambda g: (-len(inst.gap_points[g]), g),
        )
        self.gap_order = rest + ([last] if last is not None else [])
        self.dp_last = last is not None
        order_index = {g: i for i, g in enumerate(self.gap_order)}

        # classify countable pairs: constant / bucketed by decision level
        self.const_cost = 0
        self.buckets: list[list[tuple[int, int, int, int]]] = [
            [] for _ in self.gap_order
        ]
        base_pos = [inst.base[g] for g in inst.gap_of]
        base_pos[0] = inst.base[V]
        for pair in inst.countable_pairs():
            gaps = [inst.gap_of[p] for p in pair if p != 0]
            multi = {g for g in set(gaps) if gaps.count(g) >= 2}
            if not multi:
                if _cross(*(base_pos[p] for p in pair)):
                    self.const_cost += 1
            else:
                self.buckets[max(order_index[g] for g in multi)].append(pair)

        # per-gap point-pair chord candidates for bounds and the subset DP;
        # chords with both endpoints in the gap are excluded (they force the
        # permutation fallback for that gap)
        incident: dict[int, list[tuple[int, int, int, bool]]] = {}
        for ia, ib, disk, ci, vinc in inst.chords:
            if ia != 0:
                incident.setdefault(ia, []).append((ib, disk, ci, vinc))
            if ib != 0:
                incident.setdefault(ib, []).append((ia, disk, ci, vinc))
        self.pair_candidates: dict[int, list[tuple[int, int, list[tuple[int, int]]]]] = {}
        for g in self.gap_order:
            pts = inst.gap_points[g]
            entries = []
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    u, v = pts[i], pts[j]
                    cands: list[tuple[int, int]] = []
                    for ou, disk_u, cu, vu in incident.get(u, ()):
                        if ou != 0 and inst.gap_of[ou] == g:
                            continue
                        for ov, disk_v, cv, vv in incident.get(v, ()):
                            if disk_u != disk_v or (vu and vv):
                                continue
                            if ov != 0 and inst.gap_of[ov] == g:
                                continue
                            if not inst.counted(cu, cv):
                                continue
                            cands.append((ou, ov))
                    if cands:
                        entries.append((u, v, cands))
            self.pair_candidates[g] = entries

        self.pos = list(base_pos)
        self.placed = [False] * (n + 1)
        self.current: dict[int, tuple[int, ...]] = {}

    # -- bound helpers ---------------------------------------------------

    def _pair_costs(self, g: int, u: int, v: int, cands) -> tuple[int, int]:
        """Crossable-pair costs for u-before-v and v-before-u; candidates with
        unplaced far endpoints are skipped (their cost is not yet decided)."""
        inst = self.inst
        bu, bv = inst.base[g], inst.base[g] + 1
        c_uv = c_vu = 0
        for ou, ov in cands:
            if ou != 0 and not self.placed[inst.gap_of[ou]]:
                continue
            if ov != 0 and not self.placed[inst.gap_of[ov]]:
                continue
            pou, pov = self.pos[ou], self.pos[ov]
            if _cross(bu, pou, bv, pov):
                c_uv += 1
            if _cross(bv, pou, bu, pov):
                c_vu += 1
        return c_uv, c_vu

    def _future_bound(self, level: int) -> int:
        total = 0
        for g in self.gap_order[level:]:
            for u, v, cands in self.pair_candidates[g]:
                c_uv, c_vu = self._pair_costs(g, u, v, cands)
                total += min(c_uv, c_vu)
        return total

    def _charge(self, amount: int) -> None:
        self.units += amount
        if self.units > self.budget:
            raise _Stop

    # -- search ----------------------------------------------------------

    def run(self) -> tuple[int, dict[int, tuple[int, ...]], bool]:
        identity = self.inst.identity_orders()
        self.value, self.orders = self.inst.evaluate_orders(identity), identity
        # every prune keeps only drawings strictly below `bound`: the best
        # value so far in an exact search, the cutoff in a threshold search
        self.bound = self.value if self.cutoff is None else self.cutoff
        try:
            self._charge(1)
            if self.value >= self.bound:  # else the seed already beats the cutoff
                self._dfs(0, self.const_cost)
                return self.value, self.orders, True
        except _Stop:
            pass
        return self.value, self.orders, False

    def _record(self, value: int, orders: dict[int, tuple[int, ...]]) -> None:
        """Keep a drawing below the bound; it decides a threshold search."""
        self.value, self.orders = value, dict(orders)
        if self.cutoff is not None:
            raise _Stop
        self.bound = value

    def _dfs(self, level: int, acc: int) -> None:
        if acc + self._future_bound(level) >= self.bound:
            return
        if level == len(self.gap_order):
            self._record(acc, self.current)
            return
        g = self.gap_order[level]
        if self.dp_last and level == len(self.gap_order) - 1:
            self._solve_last_dp(g, acc)
            return

        pts = self.inst.gap_points[g]
        bucket = self.buckets[level]
        pos = self.pos
        base = self.inst.base[g]
        scored = []
        for perm in itertools.permutations(pts):
            self._charge(1)
            for idx, pid in enumerate(perm):
                pos[pid] = base + idx
            inc = 0
            for a1, b1, a2, b2 in bucket:
                if _cross(pos[a1], pos[b1], pos[a2], pos[b2]):
                    inc += 1
            scored.append((inc, perm))
        scored.sort()
        self.placed[g] = True
        for inc, perm in scored:
            if acc + inc >= self.bound:
                break  # scored ascending: no later permutation can help
            for idx, pid in enumerate(perm):
                pos[pid] = base + idx
            self.current[g] = perm
            self._dfs(level + 1, acc + inc)
        self.placed[g] = False
        self.current.pop(g, None)
        for pid in pts:
            pos[pid] = base

    def _solve_last_dp(self, g: int, acc: int) -> None:
        inst = self.inst
        pts = inst.gap_points[g]
        m = len(pts)
        index = {pid: i for i, pid in enumerate(pts)}
        w = [[0] * m for _ in range(m)]
        for u, v, cands in self.pair_candidates[g]:
            c_uv, c_vu = self._pair_costs(g, u, v, cands)
            i, j = index[u], index[v]
            w[i][j] += c_uv
            w[j][i] += c_vu
        self._charge(max(1, (1 << m)))
        size = 1 << m
        INF = 1 << 60
        dp = [INF] * size
        dp[0] = 0
        choice = [0] * size
        for s in range(size):
            ds = dp[s]
            for p in range(m):
                if s & (1 << p):
                    continue
                add = 0
                t = s
                while t:
                    q = (t & -t).bit_length() - 1
                    add += w[q][p]
                    t &= t - 1
                ns = s | (1 << p)
                nv = ds + add
                if nv < dp[ns]:
                    dp[ns] = nv
                    choice[ns] = p
        total = dp[size - 1]
        if acc + total >= self.bound:
            return
        order = []
        s = size - 1
        while s:
            p = choice[s]
            order.append(pts[p])
            s &= ~(1 << p)
        order.reverse()
        self._record(acc + total, {**self.current, g: tuple(order)})


def minimize_crossings(
    n: int,
    curves: tuple[CurveSpec, ...] | list[CurveSpec],
    tally: str,
    budget: int = DEFAULT_BUDGET,
    cutoff: int | None = None,
) -> tuple[int, Drawing, bool]:
    """Minimize counted crossings over all drawings of `curves`.

    Returns (value, witness, exact).  With `cutoff` set, the search stops as
    soon as a drawing below the cutoff is found (value is then just an upper
    bound witnessing `min < cutoff`), while a completed search proves
    `min >= cutoff` or reports the exact minimum below it.
    """
    inst = _Instance(n, tuple(curves), tally)
    search = _Search(inst, budget, cutoff)
    value, orders, exact = search.run()
    return value, inst.drawing_for(orders), exact


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
            g: tuple(
                inst.point_id[pt] for pt in drawing.gap_orders.get(g, ())
            )
            for g in range(drawing.n + 1)
        }
    except KeyError as exc:
        raise PreconditionError(f"drawing lists an unknown crossing point {exc}") from exc
    return inst.evaluate_orders(orders)


# -- canonical cache keys ----------------------------------------------------


def _letters_key(letters: tuple[int, ...]) -> str:
    return ".".join(format_letter(a) for a in letters)


def _self_key(n: int, kind: str, letters: tuple[int, ...]) -> str:
    forms = [letters, tuple(reversed(letters))]
    if kind == "x":
        # the closing chord makes the diagram cyclic
        for r in range(1, len(letters)):
            rot = letters[r:] + letters[:r]
            forms.extend([rot, tuple(reversed(rot))])
    word = min(_letters_key(f) for f in forms) if letters else ""
    return f"n{n}|self|{kind}|{word}"


def _pair_key(n: int, kind: str, specs) -> str:
    # value-preserving transforms: swap curves, reverse either traversal,
    # mirror both hemispheres
    def spec_forms(letters, hemi):
        arcs = len(letters) - 1
        rev_hemi = hemi if arcs % 2 == 1 else 1 - hemi
        return [(letters, hemi), (tuple(reversed(letters)), rev_hemi)]

    (l1, h1), (l2, h2) = specs
    keys = []
    for a in spec_forms(l1, h1):
        for b in spec_forms(l2, h2):
            for first, second in ((a, b), (b, a)):
                for mirror in (0, 1):
                    keys.append(
                        f"{_letters_key(first[0])}@{first[1] ^ mirror}"
                        f"~{_letters_key(second[0])}@{second[1] ^ mirror}"
                    )
    return f"n{n}|pair|{kind}|{min(keys)}"


def _seg_key(n: int, letters: tuple[int, ...]) -> str:
    letters = tuple(letters)
    return f"n{n}|seg|" + min(_letters_key(letters), _letters_key(letters[::-1]))


def _solve(
    n: int,
    key: str,
    variants: Callable[[], list[tuple[CurveSpec, ...]]],
    tally: str,
    config: OracleConfig,
) -> CrossingCount:
    """Answer from the cache, or minimize over every curve tuple that
    `variants()` yields and cache the minimum once all searches completed.

    `variants` is only called on a cache miss, so cache hits build no curves.
    """
    store = config.store()
    entry = store.get(key) if store is not None else None
    if entry and entry.get("exact"):
        witness = Drawing.from_json(entry["witness"]) if entry.get("witness") else None
        return CrossingCount(entry["value"], True, witness)
    best: tuple[int, Drawing] | None = None
    all_exact = True
    for curves in variants():
        value, witness, exact = minimize_crossings(n, curves, tally, config.budget)
        all_exact = all_exact and exact
        if best is None or value < best[0]:
            best = (value, witness)
    value, witness = best
    if store is not None and all_exact:
        store.merge(key, {"value": value, "exact": True, "witness": witness.to_json()})
    return CrossingCount(value, all_exact, witness)


# -- public word/class oracles ------------------------------------------------


def _curve_for_word(word: Word, hemisphere: str) -> CurveSpec:
    return CurveSpec(word.letters, word.kind == "x", hemisphere)


def self_intersection_number(
    word: Word, alphabet: GapAlphabet, config: OracleConfig = OracleConfig()
) -> CrossingCount:
    """Smallest number of self-crossings over all drawings inducing `word`.

    The value does not depend on the hemisphere of the first arc (mirroring
    the sphere across the equator maps drawings to drawings).
    """
    for a in word.letters:
        alphabet.validate_letter(a)
    key = _self_key(alphabet.n, word.kind, word.letters)
    return _solve(alphabet.n, key, lambda: [(_curve_for_word(word, NORTH),)], "self", config)


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
    if type(c1) is not type(c2):
        raise PreconditionError("cannot pair classes of different kinds")
    if isinstance(c1, VLoopClass):
        h1, h2 = c1.start_hemisphere, c2.start_hemisphere
        specs = ((c1.word().letters, _HEMI_INT[h1]), (c2.word().letters, _HEMI_INT[h2]))
        key = _pair_key(alphabet.n, "v", specs)
        hemis2 = (h2,)
    else:
        # x-classes are also minimized over the relative hemisphere choice
        h1, hemis2 = NORTH, (NORTH, SOUTH)
        key = f"n{alphabet.n}|pairx|" + "~".join(
            sorted(_self_key(alphabet.n, "x", c.reduced) for c in (c1, c2))
        )

    def variants():
        return [(_curve_for_word(c1.word(), h1), _curve_for_word(c2.word(), h)) for h in hemis2]

    return _solve(alphabet.n, key, variants, "inter", config)


# -- segment oracles -----------------------------------------------------------


def segment_self_intersections(
    letters: tuple[int, ...],
    alphabet: GapAlphabet,
    config: OracleConfig = OracleConfig(),
) -> CrossingCount:
    """Minimal self-crossings of one open segment (polarity-independent)."""

    def variants():
        return [(CurveSpec(tuple(letters), False, NORTH),)]

    return _solve(alphabet.n, _seg_key(alphabet.n, letters), variants, "self", config)


def segment_self_at_least(
    letters: tuple[int, ...],
    k: int,
    alphabet: GapAlphabet,
    config: OracleConfig = OracleConfig(),
) -> bool | None:
    """True if every drawing of the segment has >= k self-crossings, False if
    some drawing has fewer, None if the budget ran out undecided."""
    store = config.store()
    key = _seg_key(alphabet.n, letters)
    if store is not None:
        entry = store.get(key)
        if entry:
            if entry.get("exact"):
                return entry["value"] >= k
            if entry.get("at_least", 0) >= k:
                return True
            if entry.get("upper") is not None and entry["upper"] < k:
                return False
    curves = (CurveSpec(tuple(letters), False, NORTH),)
    value, _, exact = minimize_crossings(alphabet.n, curves, "self", config.budget, cutoff=k)
    if exact and value >= k:
        # the bounded search completed without finding a drawing below k
        if store is not None:
            store.merge(key, {"at_least": k})
        return True
    if value < k:
        if store is not None:
            store.merge(key, {"upper": value})
        return False
    return None


def segment_pair_intersections(
    letters_a: tuple[int, ...],
    letters_b: tuple[int, ...],
    polarity_a: str,
    polarity_b: str,
    alphabet: GapAlphabet,
    config: OracleConfig = OracleConfig(),
) -> CrossingCount:
    """Minimal crossings between two open segments of the given polarities."""
    a, b = tuple(letters_a), tuple(letters_b)
    key = _pair_key(alphabet.n, "seg", ((a, _HEMI_INT[polarity_a]), (b, _HEMI_INT[polarity_b])))

    def variants():
        return [(CurveSpec(a, False, polarity_a), CurveSpec(b, False, polarity_b))]

    return _solve(alphabet.n, key, variants, "inter", config)
