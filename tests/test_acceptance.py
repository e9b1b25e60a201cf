"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime (run pytest with -s or check the captured output).

All random corpora use fixed seeds so results are reproducible.
"""

import random
import time
from contextlib import contextmanager

import pytest

from helpers import (
    find_short_unbalanced_accepting_run,
    find_short_unbalanced_cycle,
    find_threshold_witness,
    io_map,
    make_corpus,
    random_acyclic_nft,
    random_cnf_mixed,
    random_digraph,
)

from nftdev import (
    INF,
    Nft,
    Transition,
    Verdict,
    analyze_deviation,
    brute_force_deviation,
    compare,
    comparison_to_deviation,
    deviation_to_comparison,
    exact,
    gen_3sat,
    gen_family,
    gen_reach_bounded,
    gen_reach_threshold,
    gen_sat_unsat,
    hamming_distance,
    is_bounded,
    reachable,
    run_words,
    sat_brute_force,
    shift_assignment,
    stats,
    threshold,
)
from nftdev.engine import _components, _nonconjugate_cycle, _state_rows

CORPUS_SEED = 20250811

# every Bounded verdict observed anywhere in this suite, rechecked by
# criterion 8 against the quadratic bound
_BOUNDED_OBSERVATIONS: list[tuple[int, int]] = []  # (value, B)


def _record(res):
    if res.verdict is Verdict.BOUNDED:
        _BOUNDED_OBSERVATIONS.append((res.value, res.bounds.B))
    return res


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nFAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"\nFAIL criterion {number}: {description} [{elapsed:.2f}s >= {limit_seconds}s]")
        raise AssertionError(f"criterion {number} exceeded its {limit_seconds}s budget")
    print(f"\nPASS criterion {number}: {description} [{elapsed:.2f}s < {limit_seconds:g}s]")


@pytest.fixture(scope="module")
def corpus500():
    return make_corpus(500, seed=CORPUS_SEED)


def test_criterion_1_family_exactness():
    with criterion(1, "family T_n has dev = n(n+1)/2 for n in 2..10", 5):
        for n in range(2, 11):
            inst = gen_family(n)
            assert inst.nft.num_states == 2 * n
            assert len(inst.nft.transitions) == 3 * n - 1
            assert stats(inst.nft).smax == 1
            res = _record(analyze_deviation(inst.nft))
            assert res.verdict is Verdict.BOUNDED
            assert res.value == n * (n + 1) // 2


def test_criterion_2_worked_example():
    with criterion(2, "T_4 worked example: the 10-mismatch pair", 5):
        t4 = gen_family(4).nft
        orc = brute_force_deviation(t4, 24)
        assert orc.max_seen == 10
        assert orc.saturated is False
        assert run_words(t4, orc.witness) == ("1001110000", "0110001111")
        assert hamming_distance(*run_words(t4, orc.witness)) == 10
        res = _record(analyze_deviation(t4))
        assert res.verdict is Verdict.BOUNDED and res.value == 10


def test_criterion_3_reach_bounded_gadget():
    with criterion(3, "reachability gadget: bounded iff no s->t path (200 graphs)", 10):
        rng = random.Random(CORPUS_SEED + 3)
        for _ in range(200):
            g = random_digraph(rng, max_vertices=12, density=(0.05, 0.4))
            inst = gen_reach_bounded(g)
            path = reachable(g)
            assert inst.expected.bounded == (not path)
            res = _record(analyze_deviation(inst.nft))
            assert res.bounded == (not path)
            assert is_bounded(inst.nft) == (not path)


def test_criterion_4_reach_threshold_gadget():
    with criterion(4, "fixed-k gadget: threshold iff no path, else exact k+1 (100 graphs)", 10):
        rng = random.Random(CORPUS_SEED + 4)
        for _ in range(100):
            g = random_digraph(rng, max_vertices=12, density=(0.05, 0.4))
            path = reachable(g)
            for k in (1, 2, 3):
                inst = gen_reach_threshold(g, k)
                assert threshold(inst.nft, k) == (not path)
                res = _record(analyze_deviation(inst.nft))
                assert res.value == (k + 1 if path else k)
                if path:
                    assert exact(inst.nft, k + 1)


def test_criterion_5_3sat_gadget():
    with criterion(5, "3-SAT gadget: threshold(n(m+1)-1) iff unsatisfiable (100 formulas)", 60):
        rng = random.Random(CORPUS_SEED + 5)
        seen = {True: 0, False: 0}
        for _ in range(100):
            f = random_cnf_mixed(rng, max_vars=5, max_clauses=6, unsat_bias=0.3)
            n, m = f.num_vars, f.num_clauses
            inst = gen_3sat(f)
            assert inst.nft.num_states == (2 * n + 1) * (m + 1)
            sat = sat_brute_force(f) is not None
            seen[sat] += 1
            k = n * (m + 1) - 1
            assert threshold(inst.nft, k) == (not sat)
            if sat:
                res = _record(analyze_deviation(inst.nft))
                assert res.value == n * (m + 1)
        assert min(seen.values()) >= 10, seen


def test_criterion_6_sat_unsat_gadget():
    with criterion(6, "SAT-UNSAT gadget: exact(k1k2+k2-1) iff sat(f1) and unsat(f2) (40 pairs)", 60):
        rng = random.Random(CORPUS_SEED + 6)
        combos = set()
        for _ in range(40):
            f1 = random_cnf_mixed(rng, max_vars=3, max_clauses=3, unsat_bias=0.5)
            f2 = random_cnf_mixed(rng, max_vars=3, max_clauses=3, unsat_bias=0.5)
            inst = gen_sat_unsat(f1, f2)
            sat1 = sat_brute_force(f1) is not None
            sat2 = sat_brute_force(f2) is not None
            combos.add((sat1, sat2))
            expected = sat1 and not sat2
            assert inst.expected.exact_answer == expected
            assert exact(inst.nft, inst.expected.exact_k) == expected
            _record(analyze_deviation(inst.nft))
        assert len(combos) == 4, combos


def test_criterion_7_oracle_equivalence(corpus500):
    with criterion(7, "engine matches the brute-force oracle on 500 random NFTs", 120):
        for t in corpus500:
            res = _record(analyze_deviation(t))
            orc = brute_force_deviation(t)  # default caps: depth 4B
            engine_infinite = res.verdict in (
                Verdict.UNBOUNDED,
                Verdict.NOT_LENGTH_PRESERVING,
            )
            if not orc.saturated:
                if res.verdict is Verdict.NOT_LENGTH_PRESERVING:
                    assert orc.max_seen == INF
                else:
                    assert res.verdict in (Verdict.BOUNDED, Verdict.EMPTY)
                    assert orc.max_seen == (res.value or 0)
            else:
                exceeds = orc.max_seen == INF or orc.max_seen > res.bounds.B
                assert exceeds == engine_infinite
            if not engine_infinite:
                # at depth 4B the bounded maximum is always realized
                assert orc.max_seen == (res.value or 0)


def test_criterion_8_quadratic_bound(corpus500):
    with criterion(8, "every bounded deviation is at most (b+lmax+2)|Q|", 30):
        for t in corpus500[:100]:
            res = _record(analyze_deviation(t))
            del res
        assert _BOUNDED_OBSERVATIONS
        for value, big_b in _BOUNDED_OBSERVATIONS:
            assert value <= big_b


def test_criterion_9_reduction_equivalence(corpus500):
    with criterion(9, "reductions preserve verdicts and distances", 120):
        for t in corpus500:
            res = analyze_deviation(t)
            t1, t2 = deviation_to_comparison(t)
            assert compare(t1, t2, "bounded") == res.bounded
            if res.verdict is Verdict.BOUNDED:
                assert compare(t1, t2, "threshold", res.value)
                assert compare(t1, t2, "exact", res.value)
            elif res.verdict is Verdict.EMPTY:
                assert compare(t1, t2, "threshold", 0)
                assert compare(t1, t2, "exact", 0)
            else:
                assert not compare(t1, t2, "threshold", 2)
                assert not compare(t1, t2, "exact", 2)

        rng = random.Random(CORPUS_SEED + 9)
        pairs_checked = 0
        while pairs_checked < 100:
            base = random_acyclic_nft(rng)
            if base is None:
                continue
            # resampling outputs preserves the domain exactly
            words = ["", "a", "b", "aa", "ab", "ba", "bb"]
            other = Nft(
                states=base.states,
                alphabet=base.alphabet,
                initials=base.initials,
                finals=base.finals,
                transitions=tuple(
                    Transition(tr.src, tr.input, rng.choice(words), tr.dst)
                    for tr in base.transitions
                ),
                name="resampled",
            )
            pairs_checked += 1
            m1 = io_map(base, 10, 10)
            m2 = io_map(other, 10, 10)
            assert set(m1) == set(m2)
            sup = 0
            for x in m1:
                for v1 in m1[x]:
                    for v2 in m2[x]:
                        d = hamming_distance(v1, v2)
                        if d == INF:
                            sup = INF
                        elif sup != INF and d > sup:
                            sup = d
                if sup == INF:
                    break
            z = comparison_to_deviation(base, other)
            res = _record(analyze_deviation(z))
            assert res.deviation == sup


def test_criterion_10_witness_agreement(corpus500):
    with criterion(10, "witness procedures agree with the engine on 500 NFTs", 120):
        for t in corpus500:
            res = _record(analyze_deviation(t))
            shift, unbalanced = shift_assignment(t)
            none_unbalanced = (
                find_short_unbalanced_accepting_run(t) is None
                and find_short_unbalanced_cycle(t) is None
            )
            assert none_unbalanced == (unbalanced is None)
            if unbalanced is not None:
                continue
            rows = _state_rows(t)
            found = _nonconjugate_cycle(t, rows, shift, _components(t, rows))
            assert (found is not None) == (res.verdict is Verdict.UNBOUNDED)
            if found is not None:
                p, run, i, j = found
                u, v = run_words(t, run)
                assert u[i - 1] != v[j - 1]
                assert (j - i - shift[p]) % len(u) == 0
            for k in range(0, min(res.bounds.B, 6) + 1):
                witness = find_threshold_witness(t, k)
                exceeds = res.deviation > k  # INF exceeds every k
                assert (witness is not None) == exceeds
                if witness is not None:
                    u, v = run_words(t, witness)
                    assert hamming_distance(u, v) > k
