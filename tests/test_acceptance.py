"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite shares one oracle cache for the session.
"""

import itertools
import math
import random

from click.testing import CliRunner

from loopforge import (
    GapAlphabet,
    Word,
    count_vectors_exact,
    decompose,
    enumerate_classes,
    growth_report,
    length_cap,
    m_vector_count,
    multinomial,
    self_intersection_number,
    winding_self_lower_bound,
    z_vector,
)
from expansion_reference import profile_feasible, reassemble, tail_multiplicities, z_majorizes
from segment_queries import segment_pair
from snail_reference import forced_arc_intersection
from loopforge.bounds import depth_family_bound
from loopforge.cli import main as cli_main
from loopforge.words import NORTH, PreconditionError, V, maximal_two_letter_words


def _pass(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number} PASS - {message}")


def _words_ends_two(max_len: int):
    """All inner words over {0,1,2} without adjacent repeats, both ends 2."""
    for length in range(1, max_len + 1):
        if length == 1:
            yield (2,)
            continue
        for mid in itertools.product((0, 1, 2), repeat=length - 2):
            w = (2,) + mid + (2,)
            if all(w[i] != w[i + 1] for i in range(length - 1)):
                yield w


def test_criterion_1_single_puncture_counts(config):
    for k in range(1, 6):
        catalog = enumerate_classes(1, k, config)
        assert catalog.count == 2 * k + 1, k
        assert all(e.exact for e in catalog.entries)
    _pass(1, "single-puncture catalogs have exactly 2k+1 classes for k=1..5")


def test_criterion_2_winding_bound_sound(config, alpha2):
    checked = 0
    for inner in _words_ends_two(8):
        word = Word.v_word(inner)
        lb = winding_self_lower_bound(word, alpha2)
        res = self_intersection_number(word, alpha2, config)
        assert res.exact
        assert lb <= res.value, (inner, lb, res.value)
        checked += 1
    assert checked == 85
    _pass(2, f"winding bound <= oracle on all {checked} two-ended words up to length 8")


def test_criterion_3_forced_arc_sound(config, alpha2):
    ends = (0, 1, 2, V)
    letters = (0, 1, 2)
    fired = skipped = 0
    for k in range(0, 3):
        middles = [
            m
            for m in itertools.product(letters, repeat=k)
            if all(m[i] != m[i + 1] for i in range(k - 1))
        ]
        for middle in middles:
            for a0, b0 in itertools.permutations(ends, 2):
                if middle and (a0 == middle[0] or b0 == middle[0]):
                    continue
                for a1, b1 in itertools.permutations(ends, 2):
                    if middle and (a1 == middle[-1] or b1 == middle[-1]):
                        continue
                    wa = (a0,) + middle + (a1,)
                    wb = (b0,) + middle + (b1,)
                    if any(wa[i] == wa[i + 1] for i in range(len(wa) - 1)):
                        continue
                    if any(wb[i] == wb[i + 1] for i in range(len(wb) - 1)):
                        continue
                    if not forced_arc_intersection(wa, wb, alpha2):
                        skipped += 1
                        continue
                    res = segment_pair(wa, wb, NORTH, NORTH, alpha2, config)
                    assert res.exact
                    assert res.value >= 1, (wa, wb)
                    fired += 1
    assert fired > 100
    _pass(3, f"forced-arc test implies a crossing on all {fired} firing instances "
             f"({skipped} non-firing)")


def _snail_segments(depth: int, terminals):
    body = [0, 1] * depth if depth >= 0 else [1, 0] * (-depth)
    tails = [(0,), (0, 1)] if depth > 0 else [(1,), (1, 0)]
    for tail in tails:
        for terminal in terminals:
            w = tuple([V] + body + list(tail) + [terminal])
            if all(w[i] != w[i + 1] for i in range(len(w) - 1)):
                yield w


def test_criterion_4_snail_bounds(config, alpha2):
    checked = 0
    for s in (1, 2, 3):
        for t in (-1, -2, -3):
            for wa in _snail_segments(s, (2, V)):
                for wb in _snail_segments(t, (2, V)):
                    res = segment_pair(wa, wb, NORTH, NORTH, alpha2, config)
                    assert res.exact
                    assert res.value >= min(abs(s), abs(t)), (s, t, wa, wb, res.value)
                    checked += 1
    for s, t in [(3, 1), (1, 3), (-3, -1), (-1, -3)]:
        for wa in _snail_segments(s, (2,)):
            for wb in _snail_segments(t, (2,)):
                res = segment_pair(wa, wb, NORTH, NORTH, alpha2, config)
                assert res.exact
                assert res.value >= abs(s - t) - 1, (s, t, wa, wb, res.value)
                checked += 1
    _pass(4, f"snail pair bounds hold on all {checked} instances with |s|,|t| <= 3")


def test_criterion_5_expansion_round_trip():
    frontier = [(a,) for a in (0, 1, 2)]
    checked = 1
    assert reassemble(decompose(())) == ()
    while frontier:
        new = []
        for w in frontier:
            assert reassemble(decompose(w)) == w, w
            checked += 1
            if len(w) < 10:
                new.extend(w + (a,) for a in (0, 1, 2) if a != w[-1])
        frontier = new
    assert checked == 1 + 3 * (2**10 - 1)
    _pass(5, f"decompose/expand identity on all {checked} words up to length 10")


def test_criterion_6_counting_chain():
    # exact counter vs direct enumeration
    for length in range(0, 5):
        for k in range(1, 11):
            brute = 0
            for vec in itertools.product(range(k), repeat=length):
                if depth_family_bound(vec) < k:
                    brute += 1
            if length == 0:
                brute = 1
            assert count_vectors_exact(length, k) == brute, (length, k)

    # squared-tail identity on 1000 random vectors
    rng = random.Random(2026)
    for _ in range(1000):
        vec = tuple(rng.randint(0, 10) for _ in range(rng.randint(0, 10)))
        top = max(vec, default=0)
        tails = tail_multiplicities(vec, top)
        assert depth_family_bound(vec) == sum(x * x for x in tails)

    # chain: exact count <= profile count * majorizing multinomial; the
    # majorizing inequality holds for every feasible profile
    chained = majorized = 0
    for k in range(1, 17):
        for length in range(0, 9):
            try:
                z = z_vector(length, k)
            except PreconditionError:
                continue
            exact = count_vectors_exact(length, k)
            profiles, cap = m_vector_count(length, k)
            assert profiles <= cap
            assert exact <= profiles * multinomial(length, z), (length, k)
            chained += 1
            for profile in _all_profiles(length, k):
                assert profile_feasible(profile, length, k)
                assert z_majorizes(profile, length, k), (profile, length, k)
                majorized += 1
    _pass(6, f"counting chain on {chained} (length, k) cells; "
             f"majorizing inequality on {majorized} profiles")


def _all_profiles(length, k):
    caps = [math.isqrt(k // t) for t in range(1, k + 1)]

    def rec(t, prev):
        if t > k:
            yield ()
            return
        for m in range(0, min(prev, caps[t - 1]) + 1):
            for rest in rec(t + 1, m):
                yield (m,) + rest

    for tails in rec(1, length):
        profile = [length - (tails[0] if tails else 0)]
        for i in range(k):
            nxt = tails[i + 1] if i + 1 < k else 0
            profile.append(tails[i] - nxt)
        yield tuple(profile)


def test_criterion_7_structural_bounds(config, alpha2):
    for k in (1, 2, 3):
        catalog = enumerate_classes(2, k, config)
        cap = length_cap(k, 2)
        for entry in catalog.entries:
            core = entry.loop_class.core
            assert len(core) <= cap
            for a, b in ((0, 1), (0, 2), (1, 2)):
                spans = maximal_two_letter_words(core, a, b)
                # count <= 4 sqrt(k), squared to stay in integers
                assert len(spans) ** 2 <= 16 * k, (core, a, b)
    _pass(7, "catalog words for k <= 3 meet the per-pair subword and length caps")


def test_criterion_8_growth_consistency(config):
    rows = growth_report(3, config)
    counts = [row["classCountN2"] for row in rows]
    assert counts == sorted(counts)
    for row in rows:
        assert row["classCountN2"] >= row["classCountN1"]
        float(row["lnCountOverSqrtK"])
        assert row["fUpperDoubleExpExponent"] == (2 * row["k"]) ** 4
    _pass(8, f"growth table recorded for k=1..3: counts {counts} "
             "(no asymptotic threshold asserted)")


def test_criterion_9_deterministic_reports(tmp_path):
    commands = [
        ["reduce", "--n", "2", "v 0 2 1 0 2 1 v"],
        ["canon", "--n", "2", "--hemisphere", "N", "v 2 1 0 2 v"],
        ["selfint", "--n", "2", "v 2 0 1 0 1 0 1 2 v"],
        ["pairint", "--n", "2", "--hemi1", "N", "--hemi2", "S", "v 2 v", "v 2 v"],
        ["bounds", "--n", "2", "--k", "3"],
        ["windings", "--n", "2", "v 2 0 1 0 2 v"],
        ["decompose", "--n", "2", "v 2 0 1 0 1 0 1 2 v"],
        ["count-expansions", "--sweep", "--lmax", "6", "--kmax", "8", "--format", "csv"],
        ["enumerate", "--n", "1", "--k", "3"],
        ["enumerate", "--n", "2", "--k", "3"],
        ["graph", "--n", "1", "--k", "2"],
        ["growth", "--kmax", "3", "--format", "csv"],
    ]
    oracle_commands = {"selfint", "pairint", "enumerate", "graph", "growth"}
    outputs = []
    runner = CliRunner()
    for attempt in (1, 2):
        cache = tmp_path / f"cold-cache-{attempt}"
        chunks = []
        for command in commands:
            args = list(command)
            if command[0] in oracle_commands:
                args += ["--cache-dir", str(cache)]
            result = runner.invoke(cli_main, args, catch_exceptions=False)
            assert result.exit_code == 0, (command, result.output)
            chunks.append(result.output)
        outputs.append("".join(chunks))
    assert outputs[0] == outputs[1]
    _pass(9, f"two cold-cache runs of {len(commands)} report commands are byte-identical")
