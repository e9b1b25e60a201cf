import random

import pytest

from helpers import enumerate_pairs_total, random_cnf, random_digraph

from nftdev import (
    CnfFormula,
    Digraph,
    Run,
    Verdict,
    analyze_deviation,
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
    serialize_nft,
    stats,
    threshold,
)
from nftdev import gadgets


def test_family_counts_and_values():
    for n in range(2, 11):
        g = gen_family(n)
        assert g.nft.num_states == 2 * n
        assert len(g.nft.transitions) == 3 * n - 1
        assert stats(g.nft).smax == 1
        assert g.expected.deviation == n * (n + 1) // 2


def test_family_rejects_small_n():
    with pytest.raises(ValueError):
        gen_family(1)


def test_family4_accepts_worked_pair():
    t = gen_family(4).nft
    run = Run((4, 1, 5, 2, 2, 6, 3, 3, 3, 7, 8, 9, 10))
    u, v = run_words(t, run)
    assert (u, v) == ("1001110000", "0110001111")
    assert hamming_distance(u, v) == 10


def test_family2_oracle_value():
    g = gen_family(2)
    pairs = enumerate_pairs_total(g.nft, 24)
    best = max(hamming_distance(u, v) for u, v in pairs)
    assert best == 3 == g.expected.deviation


def test_reach_bounded_examples():
    with_edge = gen_reach_bounded(Digraph(2, ((0, 1),), s=0, t=1))
    assert with_edge.expected.bounded is False
    assert analyze_deviation(with_edge.nft).verdict is Verdict.UNBOUNDED

    no_edges = gen_reach_bounded(Digraph(2, (), s=0, t=1))
    assert no_edges.expected.bounded is True
    res = analyze_deviation(no_edges.nft)
    assert res.verdict is Verdict.BOUNDED and res.value == 1

    loop = gen_reach_bounded(Digraph(2, (), s=1, t=1))
    assert loop.expected.bounded is False
    assert analyze_deviation(loop.nft).verdict is Verdict.UNBOUNDED


def test_reach_bounded_differential():
    rng = random.Random(7)
    for _ in range(40):
        g = random_digraph(rng, max_vertices=8)
        inst = gen_reach_bounded(g)
        assert inst.expected.bounded == (not reachable(g))
        assert is_bounded(inst.nft) == inst.expected.bounded


def test_reach_threshold_examples():
    edge = gen_reach_threshold(Digraph(2, ((0, 1),), s=0, t=1), 3)
    assert edge.expected.threshold_answer is False
    res = analyze_deviation(edge.nft)
    assert res.value == 4
    assert not threshold(edge.nft, 3)
    assert exact(edge.nft, 4)

    no_path = gen_reach_threshold(Digraph(2, (), s=0, t=1), 3)
    res = analyze_deviation(no_path.nft)
    assert res.value == 3
    assert threshold(no_path.nft, 3)

    with pytest.raises(ValueError):
        gen_reach_threshold(Digraph(2, (), s=0, t=1), 0)


def test_reach_threshold_differential():
    rng = random.Random(8)
    for _ in range(20):
        g = random_digraph(rng, max_vertices=7)
        for k in (1, 2, 3):
            inst = gen_reach_threshold(g, k)
            assert threshold(inst.nft, k) == inst.expected.threshold_answer
            if not inst.expected.threshold_answer:
                assert exact(inst.nft, k + 1)


def test_3sat_examples():
    sat_one = gen_3sat(CnfFormula(1, ((1, 1, 1),)))
    assert sat_one.expected.threshold_k == 1
    assert sat_one.expected.threshold_answer is False
    assert analyze_deviation(sat_one.nft).value == 2

    unsat_one = gen_3sat(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
    assert unsat_one.expected.threshold_answer is True
    assert threshold(unsat_one.nft, 2)

    assert sat_one.nft.num_states == 3 * 2
    assert unsat_one.nft.num_states == 3 * 3


def test_3sat_state_count_formula():
    rng = random.Random(9)
    for _ in range(10):
        f = random_cnf(rng, max_vars=3, max_clauses=3)
        inst = gen_3sat(f)
        assert inst.nft.num_states == (2 * f.num_vars + 1) * (f.num_clauses + 1)


def test_3sat_differential():
    rng = random.Random(10)
    for _ in range(20):
        f = random_cnf(rng, max_vars=3, max_clauses=4)
        inst = gen_3sat(f)
        k = f.num_vars * (f.num_clauses + 1) - 1
        sat = sat_brute_force(f) is not None
        assert inst.expected.threshold_answer == (not sat)
        assert threshold(inst.nft, k) == (not sat)
        if sat:
            assert analyze_deviation(inst.nft).value == f.num_vars * (f.num_clauses + 1)


def test_3sat_block_structure():
    f = CnfFormula(2, ((1, 2, 2), (-1, 2, 1)))
    n, m = 2, 2
    inst = gen_3sat(f)
    pairs = enumerate_pairs_total(inst.nft, 2 * n * (m + 1))
    assert pairs
    for u, v in pairs:
        assert len(u) == len(v) == n * (m + 1)
        blocks = [u[i * n:(i + 1) * n] for i in range(m + 1)]
        vblocks = [v[i * n:(i + 1) * n] for i in range(m + 1)]
        # v = v_init . neg(u_1) ... neg(u_m); block i of u satisfies clause i
        for i in range(1, m + 1):
            assert vblocks[i] == "".join("1" if c == "0" else "0" for c in blocks[i - 1])
        for i, clause in enumerate(f.clauses):
            valuation = tuple(c == "1" for c in blocks[i])
            assert any(valuation[l - 1] if l > 0 else not valuation[-l - 1] for l in clause)


def test_sat_unsat_matrix():
    sat = CnfFormula(1, ((1, 1, 1),))
    unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    for f1, f2, answer in (
        (sat, unsat, True),
        (sat, sat, False),
        (unsat, unsat, False),
        (unsat, sat, False),
    ):
        inst = gen_sat_unsat(f1, f2)
        assert inst.expected.exact_answer is answer
        assert exact(inst.nft, inst.expected.exact_k) is answer


def test_sat_unsat_enumerates_each_formula_once(monkeypatch):
    """The SAT-UNSAT gadget reads each formula's satisfiability from its
    3-SAT gadget's ground truth instead of enumerating the valuations again."""
    calls = []

    def counting(f):
        calls.append(f)
        return sat_brute_force(f)

    monkeypatch.setattr(gadgets, "sat_brute_force", counting)
    sat = CnfFormula(2, ((1, -2, 2),))
    unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    for f1, f2 in ((sat, unsat), (unsat, sat)):
        calls.clear()
        inst = gen_sat_unsat(f1, f2)
        assert calls == [f1, f2]
        assert inst.expected.exact_answer is (f1 is sat)


def test_sat_unsat_both_sat_value():
    sat = CnfFormula(1, ((1, 1, 1),))
    inst = gen_sat_unsat(sat, sat)
    k1 = k2 = 2
    assert analyze_deviation(inst.nft).value == k1 * k2 + k2


def test_generated_instances_are_deterministic():
    g = Digraph(3, ((0, 1),), s=0, t=2)
    assert serialize_nft(gen_reach_bounded(g).nft) == serialize_nft(gen_reach_bounded(g).nft)
    f = CnfFormula(2, ((1, -2, 1),))
    assert serialize_nft(gen_3sat(f).nft) == serialize_nft(gen_3sat(f).nft)
    assert serialize_nft(gen_family(5).nft) == serialize_nft(gen_family(5).nft)


def test_input_validation():
    with pytest.raises(ValueError):
        Digraph(0, (), s=0, t=0)
    with pytest.raises(ValueError):
        Digraph(2, ((0, 5),), s=0, t=1)
    with pytest.raises(ValueError):
        CnfFormula(1, ((1, 2, 1),))
    with pytest.raises(ValueError):
        CnfFormula(1, ((1, 1),))


def test_family_reference_pair_all_n():
    # the k_i = i - 1 run: advance immediately at p_1, then i - 1 copies
    # before each later advance; every position of the resulting pair
    # mismatches, realizing n(n+1)/2
    for n in range(2, 9):
        t = gen_family(n).nft
        copies = list(range(n))
        advances = list(range(n, 2 * n - 1))  # p_i -> p_{i+1}, then the bridge
        bridge = 2 * n - 1
        chain = list(range(2 * n, 3 * n - 1))
        steps = []
        for i in range(1, n + 1):
            steps += [copies[i - 1]] * (i - 1)
            steps.append(advances[i - 1] if i < n else bridge)
        steps += chain
        u, v = run_words(t, Run(tuple(steps)))
        def c(i):
            return str(i % 2)
        expected_u = "".join(c(i) * i for i in range(1, n + 1))
        flipped = str((n + 1) % 2)
        expected_v = "".join(c(i) * (i - 1) for i in range(1, n + 1)) + flipped * n
        assert (u, v) == (expected_u, expected_v)
        assert hamming_distance(u, v) == n * (n + 1) // 2
