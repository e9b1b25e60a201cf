import ast
import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    conjugate_by,
    make_corpus,
    random_cnf,
    random_digraph,
    random_length_preserving_nft,
    random_unsat_cnf,
    reference_nonconjugate_cycle,
    reference_upper_bound,
    reference_walk,
    simple_cycles_shifts,
    tuple_keyed_graph,
    zero_shift_instances,
)
from test_acceptance import CORPUS_SEED

import nftdev

from nftdev import (
    INF,
    Bounds,
    CnfFormula,
    Digraph,
    Nft,
    Run,
    StateBudgetExceeded,
    Transition,
    Verdict,
    add_eps_self_loops,
    analyze_deviation,
    atomize,
    brute_force_deviation,
    compare,
    comparison_to_deviation,
    concat,
    deviation_to_comparison,
    exact,
    gen_3sat,
    gen_family,
    gen_reach_bounded,
    gen_reach_threshold,
    hamming_distance,
    is_bounded,
    parse_nft,
    repr_size,
    run_words,
    sat_brute_force,
    shift_assignment,
    stats,
    threshold,
    trim,
    union,
)
from nftdev.cli import main
from nftdev.engine import (
    _components,
    _configurations,
    _nonconjugate_cycle,
    _state_rows,
    _unfold,
    _upper_bound,
    _walk,
)
from nftdev.transform import trim_with_maps

# all 8 sign patterns over variables 1-3: unsatisfiable, so the gadget's
# deviation 26 lies below the engine's upper bound U = n(m + 1) = 27, and
# analyze and exact at U walk its whole configuration graph (222
# configurations)
UNSAT = CnfFormula(3, [(x, y, z) for x in (1, -1) for y in (2, -2) for z in (3, -3)])


def _nft(states, initials, finals, transitions, alphabet="ab"):
    return Nft(
        states=tuple(states),
        alphabet=frozenset(alphabet),
        initials=frozenset(initials),
        finals=frozenset(finals),
        transitions=tuple(transitions),
    )


def _bracket(t: Nft) -> tuple[int, int]:
    """The engine's (L, U) for t, length-preserving with finite deviation:
    U its upper bound and L the weight of its probe, which must be an
    accepting run of trim(t) from the start _upper_bound names."""
    trimmed = trim(t)
    rows = _state_rows(trimmed)
    shift, _ = shift_assignment(trimmed)
    upper, start, probe = _upper_bound(trimmed, rows, _components(trimmed, rows), shift)
    assert start in trimmed.initials and _accepting(trimmed, probe)
    assert not probe or trimmed.transitions[probe[0]].src == start
    return hamming_distance(*run_words(trimmed, Run(tuple(probe)))), upper


def _missed_family(n: int) -> Nft:
    """T_n with a second bridge from p_n to q_1, listed first, that copies
    c_n.  The deviation and U stay n(n+1)/2, but the probe, whose ties go
    to the first transition, crosses the new bridge and weighs one less,
    so the questions that L = U would answer still walk."""
    t = gen_family(n).nft
    bridge = Transition(n - 1, str(n % 2), str(n % 2), n)
    return dataclasses.replace(t, transitions=(bridge,) + t.transitions)


def _identity(letters="ab"):
    return _nft(
        ["p"], {0}, {0}, [Transition(0, c, c, 0) for c in letters], alphabet=letters
    )


def test_shift_assignment_family4():
    t4 = gen_family(4).nft
    shift, unbalanced = shift_assignment(t4)
    assert unbalanced is None
    # p1..p4 then q1..q4
    assert [shift[q] for q in range(8)] == [0, 1, 2, 3, 3, 2, 1, 0]


def test_shift_assignment_transition_relation(corpus):
    for t in corpus[:60]:
        shift, unbalanced = shift_assignment(t)
        if unbalanced is not None:
            continue
        for tr in t.transitions:
            assert shift[tr.dst] == shift[tr.src] + tr.shift
        for q in t.initials | t.finals:
            assert shift[q] == 0


def _unbalanced_accepting(t: Nft, run: Run) -> bool:
    """Whether run is an accepting run of t with |u| != |v|."""
    u, v = run_words(t, run)
    return len(u) != len(v) and _accepting(t, run.transitions)


def test_shift_assignment_final_conflict():
    # the final state 1 ends with shift 1: the run to it is unbalanced
    t = _nft(["i", "f"], {0}, {1}, [Transition(0, "a", "", 1)])
    shift, unbalanced = shift_assignment(t)
    assert shift == {0: 0, 1: 1}
    assert unbalanced == Run((0,))
    assert _unbalanced_accepting(t, unbalanced)


def test_shift_assignment_pair_conflict():
    t = _nft(
        ["i", "x", "f"],
        {0},
        {2},
        [
            Transition(0, "a", "", 1),
            Transition(0, "", "a", 1),
            Transition(1, "a", "a", 2),
        ],
    )
    # two runs reach state 1 with shifts 1 and -1; both extend to
    # unbalanced accepting runs, and the one through the transition that
    # meets the conflict is tried first
    shift, unbalanced = shift_assignment(t)
    assert shift == {0: 0, 1: 1}
    assert _unbalanced_accepting(t, unbalanced)
    assert unbalanced == Run((1, 2))


def test_shift_assignment_identity():
    assert shift_assignment(_identity()) == ({0: 0}, None)


def test_shift_assignment_requires_trim():
    t = _nft(["i", "f", "x"], {0}, {1}, [Transition(0, "a", "a", 1)])
    with pytest.raises(ValueError, match="trimmed"):
        shift_assignment(t)


def test_every_unbalanced_witness_reverifies():
    # the acceptance corpus and the seed 1-3 corpora hold 966 conflicts,
    # 55 of them at a final state; at a pair conflict at most one of the
    # two runs, extended to a final state, is balanced: 74 times the run
    # through the transition that meets the conflict, 745 times the other
    found = 0
    for seed in (CORPUS_SEED, 1, 2, 3):
        for t in make_corpus(500, seed=seed):
            res = analyze_deviation(t)
            trimmed = trim(t)
            _, unbalanced = shift_assignment(trimmed)
            assert (unbalanced is None) == res.length_preserving
            if unbalanced is None:
                continue
            found += 1
            assert _unbalanced_accepting(t, res.witness)
            assert _unbalanced_accepting(trimmed, unbalanced)
    assert found == 966


def test_consistency_implies_balanced_simple_cycles(corpus):
    for t in corpus[:60]:
        if shift_assignment(t)[1] is None:
            assert all(s == 0 for s in simple_cycles_shifts(t))


def test_family_deviation_exact():
    # the probe weighs U = v on T_n, so no configuration is built: T_22
    # answers within a budget of one, where its whole graph has over 4
    # million
    for n in [*range(2, 9), 22]:
        res = analyze_deviation(gen_family(n).nft, max_configs=1)
        assert res.verdict is Verdict.BOUNDED
        assert res.value == n * (n + 1) // 2


def test_reach_gadget_verdicts():
    with_path = gen_reach_bounded(Digraph(3, ((0, 1), (1, 2)), s=0, t=2)).nft
    res = analyze_deviation(with_path)
    assert res.verdict is Verdict.UNBOUNDED
    without = gen_reach_bounded(Digraph(3, ((1, 0),), s=0, t=2)).nft
    assert analyze_deviation(without).verdict is Verdict.BOUNDED
    assert is_bounded(without) and not is_bounded(with_path)


def test_is_bounded_never_builds_the_graph(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("is_bounded built the configuration graph")

    monkeypatch.setattr(nftdev.engine, "_configurations", refuse)
    assert is_bounded(gen_family(400).nft)
    rng = random.Random(2000)
    chain = [(v, v + 1) for v in range(1999)]
    extra = [(rng.randrange(2000), rng.randrange(2000)) for _ in range(2000)]
    edges = tuple(sorted({(u, v) for u, v in chain + extra if u != v}))
    assert not is_bounded(gen_reach_bounded(Digraph(2000, edges, s=0, t=1999)).nft)
    fam = str(tmp_path / "fam400.nft")
    assert main(["gen", "family", "400", "-o", fam]) == 0
    assert main(["bounded", fam]) == 0


def test_is_bounded_agrees_with_analysis():
    instances = make_corpus(500, seed=CORPUS_SEED)
    rng = random.Random(31)
    draws = (random_length_preserving_nft(rng) for _ in range(500))
    instances += [t for t in draws if t is not None]
    instances += [gen_family(n).nft for n in range(2, 11)]
    rng = random.Random(7)
    instances += [gen_reach_bounded(random_digraph(rng, max_vertices=8)).nft for _ in range(40)]
    instances += [gen_3sat(random_cnf(rng)).nft for _ in range(10)]
    for t in instances:
        assert is_bounded(t) == analyze_deviation(t).bounded


def test_not_length_preserving_verdict():
    t = _nft(["i", "f"], {0}, {1}, [Transition(0, "a", "", 1)])
    res = analyze_deviation(t)
    assert res.verdict is Verdict.NOT_LENGTH_PRESERVING
    u, v = run_words(t, res.witness)
    assert len(u) != len(v)


def test_empty_relation():
    t = _nft(["i", "f"], {0}, {1}, [])
    res = analyze_deviation(t)
    assert res.verdict is Verdict.EMPTY
    assert res.value == 0 and res.deviation == 0
    assert is_bounded(t)
    assert threshold(t, 0) and exact(t, 0) and not exact(t, 1)


def test_threshold_family():
    t4 = gen_family(4).nft
    assert threshold(t4, 10)
    assert not threshold(t4, 9)
    assert threshold(t4, analyze_deviation(t4).bounds.B)
    assert threshold(t4, 10**40)
    assert not threshold(_nft(["i", "f"], {0}, {1}, [Transition(0, "a", "", 1)]), 10**9)


def test_exact_family():
    t4 = gen_family(4).nft
    assert exact(t4, 10)
    assert not exact(t4, 11)
    assert not exact(t4, 0)


def test_eps_self_loops_do_not_change_deviation():
    t4 = gen_family(4).nft
    assert analyze_deviation(add_eps_self_loops(t4)).value == 10


def test_bounded_witness_realizes_value(corpus):
    for t in corpus:
        res = analyze_deviation(t)
        if res.verdict is Verdict.BOUNDED:
            u, v = run_words(t, res.witness)
            assert hamming_distance(u, v) == res.value
            assert res.value <= res.bounds.B


def test_unbounded_cycle_pumps(corpus):
    checked = 0
    for t in corpus:
        res = analyze_deviation(t)
        if res.verdict is not Verdict.UNBOUNDED:
            continue
        checked += 1
        cyc = res.cycle_witness.transitions
        pre = res.cycle_prefix.transitions
        suf = res.cycle_suffix.transitions
        anchor = res.anchor_state
        assert t.transitions[cyc[0]].src == anchor
        assert t.transitions[cyc[-1]].dst == anchor
        # the cycle is a genuine conjugacy violation at the anchor's shift
        cu, cv = run_words(t, res.cycle_witness)
        assert len(cu) == len(cv) > 0
        # the prefix is an initial run to the anchor, so its shift is s_anchor
        pu, pv = run_words(t, res.cycle_prefix)
        assert not conjugate_by(cu, cv, len(pu) - len(pv))
        for m in (1, 2, 3):
            run = Run(pre + cyc * m + suf)
            u, v = run_words(t, run)  # raises if the pieces do not chain
            start = t.transitions[run.transitions[0]].src if run.transitions else None
            assert start in t.initials
            assert t.transitions[run.transitions[-1]].dst in t.finals
            assert hamming_distance(u, v) >= m
    assert checked >= 5


def test_state_budget():
    # the probe weighs less than U on both, so the walk runs; the message
    # ends with the bracket [L, U] the deviation lies in
    bracket = r"^state budget exceeded: .*, deviation in \[9, 10\]$"
    with pytest.raises(StateBudgetExceeded, match=bracket):
        analyze_deviation(_missed_family(4), max_configs=3)
    # two initial configurations: the budget stops the seeding, when one
    # state holds a configuration
    two_starts = union(_missed_family(2), _missed_family(3))
    expected = (
        r"^state budget exceeded: budget of 1 configurations spent at 1 states,"
        r" b=2, \|Q\|=10, \d+\.\d\d s elapsed, deviation in \[5, 6\]$"
    )
    with pytest.raises(StateBudgetExceeded, match=expected):
        analyze_deviation(two_starts, max_configs=1)


def test_max_configs_below_one_rejected():
    # a usage error, not a spent budget, also where no graph would be built
    empty = Nft(("p",), frozenset("a"), frozenset({0}), frozenset(), ())
    chain = tuple((v, v + 1) for v in range(5))
    reach = gen_reach_bounded(Digraph(6, chain, s=0, t=5)).nft
    for t in (gen_family(4).nft, empty, reach):
        for budget in (0, -1):
            with pytest.raises(ValueError, match="max_configs must be at least 1"):
                analyze_deviation(t, budget)
            with pytest.raises(ValueError, match="max_configs must be at least 1"):
                threshold(t, 3, budget)
            with pytest.raises(ValueError, match="max_configs must be at least 1"):
                exact(t, 3, budget)
    single = Nft(("p",), frozenset("a"), frozenset({0}), frozenset({0}), ())
    assert analyze_deviation(single, max_configs=1).value == 0


def test_state_budget_boundary():
    # the budget counts the configurations at kept states, and the pad
    # chain q_1..q_9 of T_10 is fusable, so it has none.  On T_10 itself
    # the probe weighs U = v = 55 and no configuration is built, so the
    # walk is checked on _missed_family(10), whose probe weighs 54: with
    # limit U - 1 its walk stops at the first run weighing 55.  The
    # unsatisfiable gadget has v = 26 < U = 27, so its walk runs to the end
    cases = (
        (_missed_family(10), 55, 9, False),
        (gen_3sat(UNSAT).nft, 26, 8, True),
    )
    assert analyze_deviation(gen_family(10).nft, max_configs=1).value == 55
    for t, value, pad, full in cases:
        t = trim(t)
        shift, _ = shift_assignment(t)
        b = max(map(abs, shift.values()))
        rows = _state_rows(t)
        fusable = [len(row) == 1 and q not in t.initials | t.finals for q, row in enumerate(rows)]
        assert sum(fusable) == pad
        expand, state, _, starts, accepts = _configurations(t, rows, fusable, shift, b, 2**20)
        lower, upper = _bracket(t)
        assert lower < upper
        walk = _walk(starts, expand, accepts, upper - 1)
        assert (walk.heavier is None) == full
        n = len(state)
        assert analyze_deviation(t, max_configs=n).value == value
        # the walk discovers the configurations in the same order under any
        # budget, so the first n - 1 of them are spread over these states
        held = len(set(state[: n - 1]))
        assert held == t.num_states - pad
        expected = (
            rf"^state budget exceeded: budget of {n - 1} configurations spent at {held} states,"
            rf" b={b}, \|Q\|={t.num_states}, \d+\.\d\d s elapsed,"
            rf" deviation in \[{lower}, {upper}\]$"
        )
        with pytest.raises(StateBudgetExceeded, match=expected):
            analyze_deviation(t, max_configs=n - 1)


def _unpack_lag(lag: int, n: int, alphabet) -> str:
    """The n-letter word of a packed lag: w bits per letter, the first
    letter most significant, each letter its index in the sorted
    alphabet."""
    letters = sorted(alphabet)
    w = max(1, (len(letters) - 1).bit_length())
    return "".join(letters[lag >> w * (n - 1 - i) & (1 << w) - 1] for i in range(n))


def test_lag_bound_is_checked_by_the_walk():
    # every chain's new lag must hold |s_dst| letters; a potential that
    # is off by one at a single state trips the check when the chain's
    # plan is built, an explicit raise that python -O keeps
    t = gen_family(6).nft
    shift = shift_assignment(t)[0]
    b = max(map(abs, shift.values()))
    unfused = [False] * t.num_states
    _configurations(t, _state_rows(t), unfused, shift, b, 2**20)
    for q in range(t.num_states):
        wrong = dict(shift)
        wrong[q] += 1
        with pytest.raises(AssertionError, match="^lag length disagrees with the shift potential"):
            _configurations(t, _state_rows(t), unfused, wrong, b, 2**20)


def test_bounded_value_stays_within_B_where_lags_are_nonempty():
    # threshold(k >= B) answers True without the graph, so B must bound
    # every finite deviation with b > 0; b = max |s_q| is also at most the
    # size measures smax * |Q| and repr_size the paper states B in
    rng = random.Random(61)
    sources = {
        alphabet: [random_length_preserving_nft(rng, alphabet) for _ in range(2000)]
        for alphabet in ("a", "ab", "abc")
    }
    sources["family"] = [gen_family(n).nft for n in range(2, 19)]
    sources["3-SAT"] = []
    while len(sources["3-SAT"]) < 40:
        f = random_cnf(rng)
        if sat_brute_force(f) is not None:
            sources["3-SAT"].append(gen_3sat(f).nft)
    products = [deviation_to_comparison(gen_family(n).nft) for n in range(2, 13)]
    sources["product"] = [comparison_to_deviation(t1, t2) for t1, t2 in products]
    checked = Counter()
    for source, instances in sources.items():
        for t in instances:
            if t is None:
                continue
            res = analyze_deviation(t)
            if res.verdict is not Verdict.BOUNDED or res.bounds.b == 0:
                continue
            trimmed = trim(t)
            st = stats(trimmed)
            assert res.value <= res.bounds.B
            assert res.bounds.b <= min(st.smax * st.num_states, repr_size(trimmed))
            checked[source] += 1
    assert set(checked) == set(sources) and sum(checked.values()) >= 1500


def test_k_at_least_B_is_answered_without_the_graph(monkeypatch):
    # at b > 0, once the search finds the deviation finite, it is at most
    # U <= B: threshold(k >= U) is True and exact(k > U) False with no
    # configuration graph, so also at k >= B.  The probe weighs L <= v, so
    # k < L is False with no graph too, and L = U answers every k.  Every
    # answer must equal the one the walk's value gives.
    real = nftdev.engine._configurations
    graphs = []

    def counted(*args):
        graphs.append(args)
        return real(*args)

    monkeypatch.setattr(nftdev.engine, "_configurations", counted)
    # the acceptance corpus has no bounded instance with b > 0, so seeded
    # length-preserving draws join it and T_2..T_10
    instances = make_corpus(500, seed=CORPUS_SEED)
    rng = random.Random(43)
    draws = (random_length_preserving_nft(rng) for _ in range(600))
    instances += [t for t in draws if t is not None]
    instances += [gen_family(n).nft for n in range(2, 11)]
    skipped = walked = 0
    for t in instances:
        res = analyze_deviation(t)
        b, B = res.bounds.b, res.bounds.B
        lower, upper = _bracket(t) if res.verdict is Verdict.BOUNDED and b > 0 else (None, None)
        ks = {B - 1, B, B + 1} if upper is None else {upper - 1, upper, upper + 1, B - 1, B, B + 1}
        for k in sorted(ks):
            if k < 0:
                continue
            graphs.clear()
            assert threshold(t, k) == (res.bounded and res.value <= k)
            walked_threshold = bool(graphs)
            graphs.clear()
            assert exact(t, k) == (res.bounded and res.value == k)
            walked_exact = bool(graphs)
            if upper is not None:
                # only k in [L, U) walks for threshold and [L, U] for exact,
                # and neither walks when L = U
                assert walked_threshold == (lower <= k < upper)
                assert walked_exact == (lower <= k <= upper and lower < upper)
                skipped += (k >= B) + (k > B)
                walked += walked_threshold + walked_exact
    assert skipped >= 300 and walked >= 100


def test_flat_graph_matches_tuple_keyed_reference():
    # node ids are the walk's discovery order, so the graphs are compared
    # by configuration (state, lag), each node's edges in order; the
    # engine's packed lags are unpacked to the reference's strings
    instances = make_corpus(500, seed=CORPUS_SEED)
    rng = random.Random(41)
    draws = [random_length_preserving_nft(rng) for _ in range(500)]
    # one letter (w = 1, no mismatch ever) and five (w = 3, codes 5 to 7 unused)
    draws += [random_length_preserving_nft(rng, "a") for _ in range(150)]
    draws += [random_length_preserving_nft(rng, "abcde") for _ in range(150)]
    instances += [t for t in draws if t is not None]
    instances += [gen_family(n).nft for n in range(2, 13)]
    built = walked = 0
    for t in instances:
        shift, unbalanced = shift_assignment(t)
        if unbalanced is not None:
            continue
        b = max(map(abs, shift.values()))
        unfused = [False] * t.num_states
        expand, state, lags, starts, accepts = _configurations(
            t, _state_rows(t), unfused, shift, b, 2**20
        )
        rows = {}

        def record(u):
            rows[u] = expand(u)
            return rows[u]

        walk = _walk(starts, record, accepts)
        if walk.pumped is None:
            # a walk that ran to the end entered every configuration
            assert sorted(rows) == list(range(len(state)))
            walked += 1
        u = 0
        while u < len(state):  # expand what an early stop left unexpanded
            if u not in rows:
                rows[u] = expand(u)
            u += 1
        nodes, succ, _, ref_starts, ref_accepts = tuple_keyed_graph(t, shift, b)
        configs = [(q, _unpack_lag(lag, abs(shift[q]), t.alphabet)) for q, lag in zip(state, lags)]
        assert len(set(configs)) == len(configs)
        assert set(configs) == set(nodes)
        got = {configs[u]: [(configs[v], w, ti) for v, w, ti in rows[u]] for u in rows}
        ref = {nodes[u]: [(nodes[v], w, ti) for v, w, ti in succ[u]] for u in range(len(nodes))}
        assert got == ref
        assert [configs[u] for u in starts] == [nodes[u] for u in ref_starts]
        assert {configs[u] for u in accepts} == {nodes[u] for u in ref_accepts}
        built += 1
    assert built >= 600 and walked >= 400


def test_oracle_equivalence(corpus):
    for t in corpus:
        res = analyze_deviation(t)
        orc = brute_force_deviation(t)
        if not orc.saturated:
            if res.verdict is Verdict.NOT_LENGTH_PRESERVING:
                assert orc.max_seen == INF
            else:
                assert res.verdict in (Verdict.BOUNDED, Verdict.EMPTY)
                assert orc.max_seen == (res.value or 0)
        elif res.verdict in (Verdict.UNBOUNDED, Verdict.NOT_LENGTH_PRESERVING):
            assert orc.max_seen == INF or orc.max_seen > res.bounds.B
        else:
            assert orc.max_seen <= res.value


def test_trimmed_witness_indices_refer_to_original():
    # analysis trims internally, but reported runs index the original list
    t = _nft(
        ["sink", "i", "f"],
        {1},
        {2},
        [Transition(0, "a", "a", 0), Transition(1, "a", "b", 2)],
    )
    res = analyze_deviation(t)
    assert res.verdict is Verdict.BOUNDED and res.value == 1
    assert res.witness.transitions == (1,)
    assert hamming_distance(*run_words(t, res.witness)) == 1


def test_identity_bounded_zero():
    res = analyze_deviation(_identity())
    assert res.verdict is Verdict.BOUNDED and res.value == 0


def test_trim_inside_analysis_matches_trim_then_analyze(corpus):
    for t in corpus[:20]:
        direct = analyze_deviation(t)
        pre_trimmed = analyze_deviation(trim(t))
        assert direct.verdict == pre_trimmed.verdict
        assert direct.value == pre_trimmed.value


def test_bounds_formulas():
    t4 = gen_family(4).nft
    bounds = analyze_deviation(t4).bounds
    st = stats(t4)
    assert st.smax == 1 and st.lmax == 2 and st.num_states == 8
    assert bounds.b == max(map(abs, shift_assignment(t4)[0].values())) == 3
    assert bounds.B == (bounds.b + st.lmax + 2) * 8 == 56


def test_zero_state_nft():
    empty = Nft((), frozenset("a"), frozenset(), frozenset(), ())
    res = analyze_deviation(empty)
    assert res.verdict is Verdict.EMPTY and res.value == 0
    assert threshold(empty, 0) and exact(empty, 0)


def test_threshold_rejects_negative_k():
    with pytest.raises(ValueError):
        threshold(gen_family(2).nft, -1)
    with pytest.raises(ValueError):
        exact(gen_family(2).nft, -2)


def test_analysis_is_deterministic(corpus):
    for t in corpus[:25]:
        first = analyze_deviation(t)
        second = analyze_deviation(t)
        assert first.verdict == second.verdict
        assert first.value == second.value
        assert first.witness == second.witness
        assert first.cycle_witness == second.cycle_witness


def test_threshold_consistent_with_exact_value(corpus):
    instances = list(corpus[:40])
    rng = random.Random(53)
    draws = (random_length_preserving_nft(rng) for _ in range(500))
    instances += [t for t in draws if t is not None]
    bounded = 0
    for t in instances:
        res = analyze_deviation(t)
        if res.verdict in (Verdict.BOUNDED, Verdict.EMPTY):
            bounded += 1
            v = res.value or 0
            candidates = {0, 1, 2, max(0, v - 1), v, v + 1, res.bounds.B, res.bounds.B + 1}
            for k in candidates:
                assert threshold(t, k) == (v <= k)
                assert exact(t, k) == (v == k)
        else:
            for k in (0, 1, 2, res.bounds.B + 7):
                assert not threshold(t, k)
                assert not exact(t, k)
    assert bounded >= 300


def test_questions_on_bounded_instances_with_lags(monkeypatch):
    # the acceptance corpus has no bounded instance with b > 0, so the
    # questions' exit from [0, U] is checked on seeded length-preserving
    # draws kept when bounded with b > 0, on T_2..T_10, on 3-SAT gadgets
    # and on their comparison pairs, whose products have bounds of their
    # own
    real = nftdev.engine._configurations
    graphs = []

    def counted(*args):
        graphs.append(args)
        return real(*args)

    monkeypatch.setattr(nftdev.engine, "_configurations", counted)
    rng = random.Random(2121)
    instances = []
    for alphabet in ("ab", "abc"):
        for _ in range(300):
            t = random_length_preserving_nft(rng, alphabet)
            if t is not None:
                res = analyze_deviation(t)
                if res.verdict is Verdict.BOUNDED and res.bounds.b > 0:
                    instances.append(t)
    assert len(instances) >= 100
    instances += [gen_family(n).nft for n in range(2, 11)]
    # seeded satisfiable formulas and the unsatisfiable one of all 8 sign
    # patterns over variables 1-3
    rng = random.Random(2323)
    formulas = [random_cnf(rng, 5, 3) for _ in range(7)]
    formulas.append(UNSAT)
    gadgets = [gen_3sat(f) for f in formulas]
    assert [g.expected.deviation is None for g in gadgets] == [False] * 7 + [True]
    instances += [g.nft for g in gadgets]
    from_bounds = agreed = walked = 0
    for t in instances:
        res = analyze_deviation(t)
        v, (L, U), B = res.value, _bracket(t), res.bounds.B
        assert L <= v <= U
        orc = brute_force_deviation(t, node_budget=20_000)
        if not orc.saturated:
            assert orc.max_seen == v
            agreed += 1
        for k in sorted(k for k in {v - 1, v, v + 1, U - 1, U, U + 1, B - 1, B, B + 1} if k >= 0):
            # the probe answers k < L and every k when L = U; otherwise
            # threshold walks at k < U and exact at k <= U
            for question, answer, skips in (
                (threshold, v <= k, not L <= k < U),
                (exact, v == k, not (L <= k <= U and L < U)),
            ):
                graphs.clear()
                assert question(t, k) is answer
                assert (not graphs) is skips
                from_bounds += skips
                walked += not skips
        t1, t2 = deviation_to_comparison(t)
        z = comparison_to_deviation(t1, t2)
        product = analyze_deviation(z)
        assert product.verdict is Verdict.BOUNDED and product.value == v
        zU, zB = _bracket(z)[1], product.bounds.B
        assert compare(t1, t2, "bounded") is True
        for k in sorted(k for k in {v - 1, v, v + 1, zU - 1, zU, zU + 1, zB - 1, zB, zB + 1} if k >= 0):
            assert compare(t1, t2, "threshold", k) is (v <= k)
            assert compare(t1, t2, "exact", k) is (v == k)
    # threshold at U, U + 1, B - 1, B and B + 1 and exact at the last four
    # answer from the bounds, and also at v or v + 1 where those pass U;
    # the walk still runs where L < U
    assert agreed == len(instances) and from_bounds >= 9 * len(instances)
    assert walked >= 2 * len(instances)
    for g in gadgets:
        truth = g.expected
        assert threshold(g.nft, truth.threshold_k) is truth.threshold_answer
        if truth.deviation is not None:
            assert analyze_deviation(g.nft).value == truth.deviation
    assert {analyze_deviation(g.nft).bounds.b for g in gadgets} == {1, 2, 3, 4, 5}


def _accepting(t, steps) -> bool:
    """Whether the transitions `steps` chain from an initial state of t to
    a final one (run_words checks the chaining)."""
    run_words(t, Run(tuple(steps)))
    if not steps:
        return bool(t.initials & t.finals)
    return t.transitions[steps[0]].src in t.initials and t.transitions[steps[-1]].dst in t.finals


def test_fused_chains_keep_every_answer(monkeypatch):
    # atomize and concat make chains of states with one way out, and T_n
    # has its pad chain; the fused graph must give the answers of the
    # unfused one, and every run it finds must re-verify on the original ids
    real_run_words = nftdev.engine.run_words
    checked = []

    def recorded(t, run):
        checked.append(run.transitions)
        return real_run_words(t, run)

    monkeypatch.setattr(nftdev.engine, "run_words", recorded)
    rng = random.Random(2222)
    instances = []
    for alphabet in ("ab", "abc"):
        draws = [random_length_preserving_nft(rng, alphabet) for _ in range(120)]
        draws = [atomize(t) for t in draws if t is not None]
        instances += draws + [concat(a, c) for a, c in zip(draws[::3], draws[1::3])]
    instances += [gen_family(n).nft for n in range(2, 13)]
    with_chains = walked = from_oracle = 0
    for t in instances:
        trimmed, _, trans_map = trim_with_maps(t)
        rows = _state_rows(trimmed)
        shift, _ = shift_assignment(trimmed)
        b = max(map(abs, shift.values()))
        st_t = stats(trimmed)
        ends = trimmed.initials | trimmed.finals
        fusable = [len(row) == 1 and q not in ends for q, row in enumerate(rows)]
        # every trimmed transition lies in some chain, and each chain runs
        # from a kept state through fusable ones to a kept state
        chains = [
            _unfold(trimmed, rows, fusable, [ti])
            for ti, tr in enumerate(trimmed.transitions)
            if not fusable[tr.src]
        ]
        assert {i for chain in chains for i in chain} == set(range(len(trimmed.transitions)))
        for chain in chains:
            run_words(trimmed, Run(tuple(chain)))  # the transitions chain up
            srcs = [trimmed.transitions[i].src for i in chain]
            assert not fusable[srcs[0]] and all(fusable[q] for q in srcs[1:])
            assert not fusable[trimmed.transitions[chain[-1]].dst]
            assert len(chain) <= trimmed.num_states
        with_chains += any(fusable)
        orc = brute_force_deviation(t, node_budget=20_000)
        if orc.saturated:
            _, succ, _, starts, accepts = tuple_keyed_graph(trimmed, shift, b)
            ref = _walk(starts, succ.__getitem__, accepts)
            expected = INF if ref.pumped else max(ref.value[s] for s in starts)
        else:
            expected = orc.max_seen
            from_oracle += 1
        res = analyze_deviation(t)
        assert res.bounds == Bounds(b, (b + st_t.lmax + 2) * trimmed.num_states)
        if expected is INF:
            assert res.verdict is Verdict.UNBOUNDED
            run = res.cycle_prefix.transitions + res.cycle_witness.transitions
            assert _accepting(t, run + res.cycle_suffix.transitions)
            continue
        assert res.verdict is Verdict.BOUNDED and res.value == expected
        assert _accepting(t, res.witness.transitions)
        assert hamming_distance(*run_words(t, res.witness)) == expected
        walked += any(fusable) and b > 0
        for k in range(max(expected - 2, 0), min(expected + 2, res.bounds.B)):
            for question, answer in ((threshold, expected <= k), (exact, expected == k)):
                checked.clear()
                assert question(t, k) is answer
                if not answer and k < expected:
                    # the last run the engine checked is the heavier one
                    heavier = [trans_map[i] for i in checked[-1]]
                    assert _accepting(t, heavier)
                    assert hamming_distance(*run_words(t, Run(tuple(heavier)))) > k
    assert with_chains >= 100 and walked >= 50 and from_oracle >= 100


def test_a_merge_state_is_fused():
    # m has two ways in and one way out, so it is fusable and holds no
    # configuration: only i and f do, each with the empty lag.  Both ways
    # in give U = 3, but only the one through x weighs 3, and the probe
    # takes the one through y (weight 2), so the walk runs
    t = Nft(
        ("i", "x", "y", "m", "f"),
        frozenset("ab"),
        {0},
        {4},
        [(0, "b", "", 1), (0, "a", "", 2), (1, "b", "a", 3), (2, "a", "b", 3), (3, "a", "ab", 4)],
    )
    assert _bracket(t) == (2, 3)
    res = analyze_deviation(t, max_configs=2)
    assert res.bounds.b == 1
    assert res.value == 3 == brute_force_deviation(t).max_seen
    assert _accepting(t, res.witness.transitions)
    assert hamming_distance(*run_words(t, res.witness)) == 3
    with pytest.raises(StateBudgetExceeded):
        analyze_deviation(t, max_configs=1)


def test_wider_lags_match_oracle():
    # 3 letters and state shifts up to 3, beyond the 2-letter corpus
    rng = random.Random(4711)
    agreed = lagged = 0
    for _ in range(250):
        t = random_length_preserving_nft(rng)
        if t is None:
            continue
        res = analyze_deviation(t)
        orc = brute_force_deviation(t, node_budget=20_000)
        if orc.saturated:
            assert res.deviation >= orc.max_seen
        else:
            assert res.deviation == orc.max_seen
            agreed += 1
            shift, _ = shift_assignment(trim(t))
            lagged += max(map(abs, shift.values()), default=0) == 3
        if res.verdict is Verdict.BOUNDED:
            assert hamming_distance(*run_words(t, res.witness)) == res.value
    assert agreed >= 100 and lagged >= 5


def test_invariant_checks_survive_optimize():
    # a wrong distance function must trip the witness check even under -O,
    # in the full analysis and in the questions' check of a heavier run.
    # The unsatisfiable gadget has deviation 26 < U = 27, so its analysis
    # walks to the end and checks the heaviest run.  A distance of 0
    # weighs the probe 0 < U, so the questions walk: T_12 has deviation
    # 78 = U, so at k = 77 both walks stop at a heavier run, and T_3 has
    # deviation 6 = U, so its analysis and exact at 6 stop at a run that
    # must weigh U.  Patched shortest paths leave the probe of a
    # three-state cycle short of its final state, and a distance past U
    # makes the probe outweigh U once the search finds the deviation finite.
    # The probe's searches raise where they find nothing, also inside a
    # one-state component: state rows without their self-loops leave T_3's
    # p_2 (s = 1) with no cycle, and rows without the edge back to i split
    # the cycle i -> x -> i, leaving i with no way to a final state
    cases = [
        (
            "engine.hamming_distance = lambda u, v: -1\n"
            "f = CnfFormula(3, [(x, y, z) for x in (1, -1) for y in (2, -2) for z in (3, -3)])\n"
            "queries = [lambda: engine.analyze_deviation(gen_3sat(f).nft)]\n",
            ["raised: witness must realize"],
        ),
        (
            "engine.hamming_distance = lambda u, v: 0\n"
            "t = gen_family(12).nft\n"
            "queries = [lambda: engine.threshold(t, 77), lambda: engine.exact(t, 77)]\n",
            ["raised: run heavier than the limit does not exceed it"] * 2,
        ),
        (
            "engine.hamming_distance = lambda u, v: 0\n"
            "t = gen_family(3).nft\n"
            "queries = [lambda: engine.analyze_deviation(t), lambda: engine.exact(t, 6)]\n",
            ["raised: run heavier than U - 1 does not weigh the upper bound U"] * 2,
        ),
        (
            "engine._bfs_path = lambda *args: ()\n"
            "t = Nft(('i', 'x', 'f'), frozenset('a'), {0}, {2},"
            " [(0, 'a', '', 1), (1, '', 'a', 2), (2, 'a', '', 1)])\n"
            "queries = [lambda: engine.analyze_deviation(t), lambda: engine.threshold(t, 0)]\n",
            ["raised: probe run must start at an initial state and end at a final one"] * 2,
        ),
        (
            "engine.hamming_distance = lambda u, v: 10**6\n"
            "f = CnfFormula(3, [(x, y, z) for x in (1, -1) for y in (2, -2) for z in (3, -3)])\n"
            "queries = [lambda: engine.analyze_deviation(gen_family(3).nft),"
            " lambda: engine.analyze_deviation(gen_3sat(f).nft)]\n",
            ["raised: probe run outweighs the upper bound U"] * 2,
        ),
        (
            "rows = engine._state_rows\n"
            "engine._state_rows = lambda t, weighted=False: ["
            "[e for e in row if e[0] != q] for q, row in enumerate(rows(t, weighted))]\n"
            "t = gen_family(3).nft\n"
            "queries = [lambda: engine.analyze_deviation(t), lambda: engine.exact(t, 6)]\n",
            ["raised: no cycle through the state"] * 2,
        ),
        (
            "rows = engine._state_rows\n"
            "engine._state_rows = lambda t, weighted=False: ["
            "[e for e in row if e[0] >= q] for q, row in enumerate(rows(t, weighted))]\n"
            "t = Nft(('i', 'x', 'f'), frozenset('a'), {0}, {2},"
            " [(0, 'a', '', 1), (1, '', 'a', 0), (1, '', 'a', 2)])\n"
            "queries = [lambda: engine.analyze_deviation(t), lambda: engine.threshold(t, 0)]\n",
            ["raised: no path from the source to a target"] * 2,
        ),
    ]
    src = str(Path(nftdev.__file__).resolve().parent.parent)
    for patch, expected in cases:
        script = (
            "import nftdev.engine as engine\n"
            "from nftdev import CnfFormula, Nft, gen_3sat, gen_family\n"
            + patch
            + "for query in queries:\n"
            "    try:\n"
            "        query()\n"
            "    except AssertionError as exc:\n"
            "        print('raised:', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(expected), proc.stdout
        for line, prefix in zip(lines, expected):
            assert line.startswith(prefix), proc.stdout


def test_no_bare_asserts_in_package():
    # python -O strips assert statements; package invariants must raise
    package = Path(nftdev.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _walk_hand(succ, accepts):
    """_walk over a hand-made graph given as per-node (v, weight,
    transition) rows, from every node in order."""
    return _walk(range(len(succ)), lambda u: succ[u], accepts)


def test_value_components_zero_weight_component():
    # 0 -> 1 -> 2 -> 0 weigh 0; the component leaves by 2 -> 3 and 1 -> 4
    # (weight 1 each, ties) and by 0 -> 5 (weight 0); 3, 4, 5 accept
    succ = [
        [(1, 0, 10), (5, 0, 11)],
        [(2, 0, 12), (4, 1, 13)],
        [(3, 1, 14), (0, 0, 15)],
        [],
        [],
        [],
    ]
    walk = _walk_hand(succ, {3, 4, 5})
    comp = walk.comp
    assert walk.pumped is None
    assert comp[0] == comp[1] == comp[2]
    assert len({comp[0], comp[3], comp[4], comp[5]}) == 4
    assert walk.value[0] == walk.value[1] == walk.value[2] == 1
    assert walk.exit(0) == (1, 4, 13)  # the tie goes to the smaller node 1
    assert walk.value[3] == 0 and walk.exit(3) == (3, None, None)


def test_value_components_accepting_member_wins_ties():
    # the 0-weight cycle 0 <-> 1 holds the accepting node 1 and leaves by
    # a 0-weight edge to the accepting node 2
    succ = [[(1, 0, 0)], [(0, 0, 1), (2, 0, 2)], []]
    walk = _walk_hand(succ, {1, 2})
    assert walk.pumped is None
    assert walk.value[0] == 0 and walk.exit(0) == (1, None, None)


def test_value_components_reports_inner_positive_edge():
    # 0 -> 1 -> 0 is a cycle whose edge 1 -> 0 weighs 1
    succ = [[(1, 0, 0)], [(2, 0, 1), (0, 1, 2)], []]
    walk = _walk_hand(succ, {2})
    assert walk.pumped == (1, 0, 2)
    assert walk.comp[0] == walk.comp[1]


def test_value_components_requires_acceptance():
    # the configuration graph at b > 0 must reach acceptance everywhere;
    # only the smax = 0 walk, which does the trim, lets a component die
    succ = [[(1, 0, 0)], [(0, 1, 1)]]
    with pytest.raises(AssertionError, match="cannot reach acceptance"):
        _walk_hand(succ, set())
    walk = _walk(range(2), succ.__getitem__, set(), live=False)
    assert walk.pumped is None and walk.value[:2] == [-1, -1] and walk.comp[0] == walk.comp[1] < -1


@st.composite
def _walk_graphs(draw):
    """(succ, starts, accepts, limit, live) for _walk: up to 12 nodes,
    parallel edges and self-loops.  With live every node reaches an
    accepting one; otherwise some components may be dead.  In about half
    the draws every edge inside a component weighs 0, so the walk values
    all it reaches."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    weight = st.sampled_from((0, 0, 0, 1, 2))
    edges = draw(st.lists(st.tuples(node, node, weight), min_size=n, max_size=3 * n))
    _, comp, _, _ = reference_walk(
        [[(v, 0, 0) for u2, v, _ in edges if u2 == u] for u in range(n)], range(n), range(n)
    )
    if draw(st.booleans()):
        edges = [(u, v, 0 if v in comp[u] else wt) for u, v, wt in edges]
    succ = [[] for _ in range(n)]
    for ti, (u, v, wt) in enumerate(edges):
        succ[u].append((v, wt, ti))
    accepts = set(draw(st.sets(node, max_size=n)))
    live = draw(st.booleans())
    for c in set(comp.values()):
        # a component no edge leaves keeps an accepting member
        if live and not accepts & c and all(v in c for u in c for v, _, _ in succ[u]):
            accepts.add(min(c))
    starts = draw(st.lists(node, min_size=1, max_size=4))
    limit = draw(st.none() | st.integers(0, 4))
    return succ, starts, accepts, limit, live


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_walk_graphs())
def test_walk_matches_the_closure_reference(graph):
    succ, starts, accepts, limit, live = graph
    walk = _walk(starts, succ.__getitem__, accepts, limit, live)
    reached, comp, value, exit = reference_walk(succ, starts, accepts, live)
    n = len(succ)
    edges = {ti: (u, v, wt) for u, row in enumerate(succ) for v, wt, ti in row}
    ids = walk.comp + [-1] * (n - len(walk.comp))
    popped = {u for u in range(n) if u < len(walk.value) and walk.value[u] >= 0}
    dead = {u for u in reached if value[u] == -1}
    for u in popped:
        # a popped node's whole component popped with it, under an id of its own
        assert {v for v in range(n) if ids[v] == ids[u]} == comp[u]
        assert walk.value[u] == value[u]
        assert walk.exit(u) == exit[u]
    if walk.pumped is not None:
        # only a component that reaches acceptance pumps
        u, v, ti = walk.pumped
        assert edges[ti][:2] == (u, v) and edges[ti][2] > 0 and v in comp[u]
        assert value[u] == INF
    elif walk.heavier is None:
        # the walk ran to the end, so no positive edge lies inside a live
        # component (every value is finite), every dead component popped
        # under an id of its own, and no start outweighs the limit
        assert popped == reached - dead
        for u in dead:
            assert ids[u] <= -2 and {v for v in range(n) if ids[v] == ids[u]} == comp[u]
        assert limit is None or max(value[s] for s in starts) <= limit
    if walk.heavier is not None:
        steps, v = walk.heavier
        assert v in popped
        at = edges[steps[0]][0] if steps else v
        assert at in starts
        g = 0
        for ti in steps:  # the tree path chains from a start to v
            src, dst, wt = edges[ti]
            assert src == at
            at, g = dst, g + wt
        assert at == v and g + walk.value[v] > limit


def _mismatch_loop():
    # one state with a 0/1 self-loop: every lap adds a mismatch
    return _nft(["p"], {0}, {0}, [Transition(0, "0", "1", 0)], alphabet="01")


def _assert_pumps(t, res):
    pre = res.cycle_prefix.transitions
    cyc = res.cycle_witness.transitions
    suf = res.cycle_suffix.transitions
    assert t.transitions[cyc[0]].src == res.anchor_state
    assert t.transitions[cyc[-1]].dst == res.anchor_state
    distances = []
    for m in (1, 2, 3):
        run = Run(pre + cyc * m + suf)
        u, v = run_words(t, run)  # raises if the pieces do not chain
        assert t.transitions[run.transitions[0]].src in t.initials
        assert t.transitions[run.transitions[-1]].dst in t.finals
        assert len(u) == len(v)
        distances.append(hamming_distance(u, v))
    assert distances[0] < distances[1] < distances[2]


def test_bounds_b_is_its_formula():
    # b is the largest |s_q| of the potential, 0 when no transition shifts,
    # and smax * (|Q| - 1), which bounds every partial potential, when the
    # transducer is not length-preserving
    instances = make_corpus(500, seed=CORPUS_SEED) + [gen_family(n).nft for n in range(2, 11)]
    conflicts = 0
    for t in instances:
        st = stats(t)
        shift, unbalanced = shift_assignment(t)
        if st.smax == 0:
            b = 0
        elif unbalanced is None:
            b = max(map(abs, shift.values()))
        else:
            b = st.smax * (st.num_states - 1)
            assert all(abs(s) <= b for s in shift.values())
            conflicts += 1
        assert analyze_deviation(t).bounds == Bounds(b, (b + st.lmax + 2) * st.num_states)
    assert conflicts >= 100


def test_bounds_do_not_depend_on_the_order_of_transitions():
    # the propagation meets a conflict after a prefix that depends on the
    # transition order; the reported bounds must not
    pair = _nft(
        ["i", "x", "f"],
        {0},
        {2},
        [Transition(0, "a", "a", 1), Transition(0, "a", "", 1), Transition(1, "a", "a", 2)],
    )
    swapped = pair._with(transitions=(pair.transitions[1], pair.transitions[0], pair.transitions[2]))
    assert analyze_deviation(pair).bounds == analyze_deviation(swapped).bounds == Bounds(2, 18)
    rng = random.Random(13)
    instances = make_corpus(300, seed=CORPUS_SEED) + [gen_family(n).nft for n in range(2, 9)]
    for t in instances:
        want = analyze_deviation(t).bounds
        for _ in range(3):
            order = list(t.transitions)
            rng.shuffle(order)
            assert analyze_deviation(t._with(transitions=tuple(order))).bounds == want


def test_zero_shift_analysis_never_serializes(monkeypatch):
    # the bounds come from the shift potential, never from the size of the
    # serialization; at smax = 0 they have b = 0
    rng = random.Random(77)
    n = 2000
    edges = tuple((rng.randrange(n - 1), rng.randrange(n - 1)) for _ in range(2 * n))
    path = tuple((v, v + 1) for v in range(n - 1))
    gadgets = [gen_reach_bounded(Digraph(n, e, s=0, t=n - 1)).nft for e in (edges, edges + path)]
    want = [(analyze_deviation(t), threshold(t, 1)) for t in gadgets]

    def refuse(*args):
        raise AssertionError("serialized although smax = 0")

    monkeypatch.setattr(nftdev.textio, "serialize_nft", refuse)
    got = [(analyze_deviation(t), threshold(t, 1)) for t in gadgets]
    assert got == want
    assert [res.verdict for res, _ in got] == [Verdict.BOUNDED, Verdict.UNBOUNDED]
    assert [below for _, below in got] == [True, False]
    assert all(res.bounds.b == 0 for res, _ in got)


def test_unbounded_decided_before_any_configuration():
    # b > 0: the polynomial search answers before the walk, so a budget of
    # one configuration suffices where the graph of T_12 has 6,143
    t = union(gen_family(12).nft, _mismatch_loop())
    assert stats(t).smax > 0
    res = analyze_deviation(t, max_configs=1)
    assert res.verdict is Verdict.UNBOUNDED
    _assert_pumps(t, res)
    assert not threshold(t, 10**6, max_configs=1)
    assert not exact(t, 78, max_configs=1)


def test_unbounded_at_zero_shift_comes_from_the_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("the search ran although every lag is empty")

    monkeypatch.setattr(nftdev.engine, "_nonconjugate_cycle", refuse)
    instances = [gen_reach_bounded(Digraph(3, ((0, 1), (1, 2)), s=0, t=2)).nft]
    instances += [t for t in make_corpus(200, seed=CORPUS_SEED) if stats(t).smax == 0]
    unbounded = 0
    for t in instances:
        res = analyze_deviation(t)
        if res.verdict is Verdict.UNBOUNDED:
            _assert_pumps(t, res)
            unbounded += 1
    assert unbounded >= 2


def test_state_graph_walk_matches_the_configuration_graph():
    # at smax = 0 the engine walks the state graph; the
    # configuration graph, built and walked directly, must agree with it
    bounded = unbounded = 0
    for t in zero_shift_instances():
        trimmed = trim(t)
        if trimmed.num_states == 0:
            continue
        assert stats(trimmed).smax == 0
        shift, _ = shift_assignment(trimmed)
        unfused = [False] * trimmed.num_states
        expand, _, _, starts, accepts = _configurations(
            trimmed, _state_rows(trimmed), unfused, shift, 0, 2**20
        )
        walk = _walk(starts, expand, accepts)
        res = analyze_deviation(t)
        assert is_bounded(t) == (walk.pumped is None)
        if walk.pumped is not None:
            assert res.verdict is Verdict.UNBOUNDED
            _assert_pumps(t, res)
            assert not threshold(t, 10**6) and not exact(t, 0)
            unbounded += 1
            continue
        value = max(walk.value[s] for s in starts)
        assert res.verdict is Verdict.BOUNDED and res.value == value
        steps = res.witness.transitions
        if steps:
            assert t.transitions[steps[0]].src in t.initials
            assert t.transitions[steps[-1]].dst in t.finals
        else:
            assert t.initials & t.finals
        u, v = run_words(t, res.witness)
        assert hamming_distance(u, v) == value
        assert threshold(t, value) and exact(t, value) and not exact(t, value + 1)
        if value > 0:
            assert not threshold(t, value - 1) and not exact(t, value - 1)
        bounded += 1
    assert bounded >= 500 and unbounded >= 500


def _map_result(res, state_map, trans_map):
    """res with its runs and anchor state mapped to the original ids."""

    def run(r):
        return None if r is None else Run(tuple(trans_map[i] for i in r.transitions))

    return dataclasses.replace(
        res,
        witness=run(res.witness),
        cycle_witness=run(res.cycle_witness),
        cycle_prefix=run(res.cycle_prefix),
        cycle_suffix=run(res.cycle_suffix),
        anchor_state=None if res.anchor_state is None else state_map[res.anchor_state],
    )


def _dead_state_fixtures():
    """Untrimmed smax = 0 transducers whose dead states would change an
    answer if the walk counted them: i (0) and f (1) live, d, e dead."""
    a, b = Transition, "ab"
    return [
        # a positive self-loop on a reachable dead state, and a positive
        # edge into it from a live cycle: neither pumps
        _nft("ifd", {0}, {1}, [a(0, "a", "a", 1), a(1, "a", "a", 0), a(1, "a", "b", 2),
                               a(2, "b", "a", 2)], b),
        # a positive cycle of two dead states
        _nft("ifde", {0}, {1}, [a(0, "a", "a", 1), a(0, "a", "b", 2), a(2, "a", "b", 3),
                                a(3, "b", "b", 2)], b),
        # a dead branch heavier than every live run (weight 3 against 1)
        _nft("ifd", {0}, {1}, [a(0, "a", "b", 1), a(0, "aaa", "bbb", 2), a(2, "a", "a", 2)], b),
        # a dead initial state first in id order, with a heavy loop
        _nft("dif", {0, 1}, {2}, [a(0, "aa", "bb", 0), a(1, "a", "a", 2)], b),
        # a dead transition longer than any live one: B comes from trim(t)
        _nft("ifd", {0}, {1}, [a(0, "a", "b", 1), a(0, "aaaa", "bbbb", 2)], b),
        # no initial state reaches a final one: EMPTY
        _nft("idf", {0}, {2}, [a(0, "a", "b", 1), a(1, "a", "b", 1), a(2, "a", "a", 2)], b),
    ]


def test_untrimmed_walk_answers_as_trim_first():
    # at smax = 0 the walk runs on the untrimmed state graph; every answer,
    # its bounds included, must be the trimmed transducer's, mapped back
    fixtures = _dead_state_fixtures()
    instances = fixtures + [t for t in zero_shift_instances() if trim(t) != t]
    seen = Counter()
    for t in instances:
        trimmed, state_map, trans_map = trim_with_maps(t)
        assert trimmed.num_states < t.num_states and stats(t).smax == 0
        want = analyze_deviation(trimmed)
        assert analyze_deviation(t) == _map_result(want, state_map, trans_map)
        assert is_bounded(t) == is_bounded(trimmed)
        ks = {0, 1, 2}
        if want.verdict is Verdict.BOUNDED:
            ks |= {want.value - 1, want.value}
        for k in sorted(k for k in ks if k >= 0):
            assert threshold(t, k) == threshold(trimmed, k)
            assert exact(t, k) == exact(trimmed, k)
        seen[want.verdict] += 1
    assert seen[Verdict.BOUNDED] >= 500 and seen[Verdict.UNBOUNDED] >= 500
    assert seen[Verdict.EMPTY] >= 300
    got = [analyze_deviation(t) for t in fixtures]
    assert [(r.verdict, r.value) for r in got] == [
        (Verdict.BOUNDED, 0), (Verdict.BOUNDED, 0), (Verdict.BOUNDED, 1),
        (Verdict.BOUNDED, 0), (Verdict.BOUNDED, 1), (Verdict.EMPTY, 0),
    ]
    assert [r.bounds for r in got] == [
        Bounds(0, 8), Bounds(0, 8), Bounds(0, 8), Bounds(0, 8), Bounds(0, 8), Bounds(0, 0)
    ]


def test_questions_build_no_unbounded_witness(monkeypatch):
    # every question answers an unbounded deviation with False, so none
    # builds the prefix, the suffix or the closing path of the cycle: the
    # shortest paths with no component to stay in
    instances = [
        gen_reach_bounded(Digraph(3, ((0, 1), (1, 2)), s=0, t=2)).nft,
        union(gen_family(3).nft, _mismatch_loop()),
    ]
    real = nftdev.engine._bfs_path

    def inside_only(rows, sources, targets, comp=None):
        if comp is None:
            raise AssertionError("a question built an unbounded witness")
        return real(rows, sources, targets, comp)

    monkeypatch.setattr(nftdev.engine, "_bfs_path", inside_only)
    for t in instances:
        assert is_bounded(t) is False
        for k in (0, 1, 6, 10**6):
            assert threshold(t, k) is False and exact(t, k) is False
    monkeypatch.setattr(nftdev.engine, "_bfs_path", real)
    for t in instances:
        res = analyze_deviation(t)
        assert res.verdict is Verdict.UNBOUNDED
        _assert_pumps(t, res)


def test_smax_zero_skips_the_potential_the_graph_and_the_search(monkeypatch):
    names = ("_shift_potential", "_components", "_nonconjugate_cycle", "_upper_bound")
    calls = Counter()
    for name in names + ("_configurations",):

        def counted(*args, _real=getattr(nftdev.engine, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(nftdev.engine, name, counted)
    chain = tuple((v, v + 1) for v in range(5))
    zero = [gen_reach_bounded(Digraph(6, e, s=0, t=5)).nft for e in (chain, chain[:-1])]
    zero.append(gen_reach_threshold(Digraph(6, chain, s=0, t=5), 2).nft)
    for t in zero:
        analyze_deviation(t)
        threshold(t, 2)
        exact(t, 2)
        is_bounded(t)
    assert not calls
    # T_4 has deviation 10 = U = L: every question but is_bounded answers
    # from the probe, and threshold at 9 before the search; _missed_family(4)
    # has L = 9, so threshold at 9 and exact at 10 walk and threshold at 10
    # answers from U.  is_bounded answers from the search alone
    every = dict.fromkeys(names + ("_configurations",), 1)
    queries = (analyze_deviation, lambda t: threshold(t, 9), lambda t: exact(t, 10))
    for query, searched in zip(queries, (True, False, True)):
        query(gen_family(4).nft)
        assert calls == {name: 1 for name in names if searched or name != "_nonconjugate_cycle"}
        calls.clear()
        query(_missed_family(4))
        assert calls == every
        calls.clear()
    for t in (gen_family(4).nft, _missed_family(4)):
        assert threshold(t, 10)
        assert calls == dict.fromkeys(names, 1)
        calls.clear()
        assert is_bounded(t)
        assert calls == dict.fromkeys(names[:3], 1)
        calls.clear()


def test_every_question_takes_one_route(monkeypatch):
    # each question trims once at smax > 0, on the way into the one
    # analysis, and never at smax = 0, where the walk over the untrimmed
    # state graph does the trim; no question meets a budget at smax = 0,
    # and is_bounded meets none at b > 0 either, answering before the walk
    real = nftdev.engine.trim_with_maps
    trimmed = []

    def counted(t):
        trimmed.append(t)
        return real(t)

    monkeypatch.setattr(nftdev.engine, "trim_with_maps", counted)
    chain = tuple((v, v + 1) for v in range(5))
    instances = [
        gen_family(4).nft,
        union(gen_family(3).nft, _mismatch_loop()),
        gen_reach_bounded(Digraph(6, chain, s=0, t=5)).nft,
        gen_reach_bounded(Digraph(6, chain[:-1], s=0, t=5)).nft,
        _nft(["i", "f"], {0}, {1}, [Transition(0, "a", "", 1)]),
        _nft(["i", "f"], {0}, {1}, []),
    ]
    queries = (analyze_deviation, is_bounded, lambda t: threshold(t, 3), lambda t: exact(t, 3))
    for t in instances:
        for query in queries:
            trimmed.clear()
            query(t)
            assert trimmed == ([t] if stats(t).smax > 0 else [])
    rng = random.Random(2000)
    edges = tuple((rng.randrange(2000), rng.randrange(2000)) for _ in range(4000))
    reach = gen_reach_bounded(Digraph(2000, edges, s=0, t=1999)).nft
    assert stats(reach).smax == 0
    assert is_bounded(gen_family(400).nft) is True
    assert is_bounded(reach) is analyze_deviation(reach).bounded
    # with t cut off the deviation is 1; either way a budget of one
    # configuration changes no answer
    cut = gen_reach_bounded(Digraph(2000, [e for e in edges if e[1] != 1999], s=0, t=1999)).nft
    for t in (reach, cut):
        res = analyze_deviation(t)
        assert analyze_deviation(t, max_configs=1) == res
        for k in (0, 1, 2):
            assert threshold(t, k, max_configs=1) == threshold(t, k)
            assert exact(t, k, max_configs=1) == exact(t, k)
    assert (res.verdict, res.value) == (Verdict.BOUNDED, 1)


def test_inner_positive_edge_is_an_invariant_when_b_positive(monkeypatch):
    # with b > 0 the search has ruled out every pumpable cycle before the
    # walk; an inner positive edge after it means the two disagree.  The
    # probe of _missed_family(3) weighs 5 < U = 6, so the questions walk,
    # and the loop's initial state comes first, so the walk meets the loop
    # before the run weighing U can end it
    monkeypatch.setattr(nftdev.engine, "_nonconjugate_cycle", lambda *args: None)
    t = union(_mismatch_loop(), _missed_family(3))
    for query in (analyze_deviation, lambda t: exact(t, 6), lambda t: threshold(t, 5)):
        with pytest.raises(AssertionError, match="positive edge inside a component"):
            query(t)


def test_threshold_and_exact_stop_at_the_first_heavier_path():
    # _missed_family(12) has deviation 78 = U, a probe of weight 77 and
    # over 6,000 configurations, so at k = 77 the questions walk
    t = _missed_family(12)
    assert not threshold(t, 77, max_configs=500)
    assert not exact(t, 77, max_configs=500)
    assert not threshold(_missed_family(16), 135, max_configs=1000)
    # exact at k = U stops at the first run weighing U, and threshold at
    # k >= U walks nothing
    assert exact(t, 78, max_configs=500)
    assert analyze_deviation(t, max_configs=500).value == 78
    assert threshold(t, 78, max_configs=1)
    # the unsatisfiable gadget's deviation 26 lies below U = 27, so at k =
    # 26 no run stops the walk of its 222 configurations
    g = gen_3sat(UNSAT).nft
    for question in (threshold, exact):
        with pytest.raises(StateBudgetExceeded):
            question(g, 26, max_configs=200)


def test_decisions_write_nothing(capsys):
    # the decisions answer through their return values and exceptions
    # only: a caller that prints its own last line (the CLI, the
    # benchmark) must find stdout and stderr untouched
    instances = [
        gen_family(6).nft,
        gen_reach_bounded(Digraph(3, ((0, 1), (1, 2)), s=0, t=2)).nft,
        gen_reach_bounded(Digraph(3, ((1, 0),), s=0, t=2)).nft,
        _nft(["i", "f"], {0}, {1}, [Transition(0, "a", "", 1)]),
        union(gen_family(4).nft, _mismatch_loop()),
        _nft(["i", "f"], {0}, {1}, []),
    ]
    for t in instances:
        analyze_deviation(t)
        is_bounded(t)
        for k in (0, 3, 20, 10**9):
            threshold(t, k)
            exact(t, k)
        t1, t2 = deviation_to_comparison(t)
        for mode, k in (("bounded", None), ("threshold", 3), ("exact", 3)):
            compare(t1, t2, mode, k)
    # the unsatisfiable gadget's deviation 26 lies below U = 27, so these
    # walk until the budget stops them
    g = gen_3sat(UNSAT).nft
    with pytest.raises(StateBudgetExceeded):
        analyze_deviation(g, max_configs=100)
    with pytest.raises(StateBudgetExceeded):
        threshold(g, 26, max_configs=100)
    assert capsys.readouterr() == ("", "")


def test_threshold_raises_on_a_too_light_early_run(monkeypatch):
    real = nftdev.engine._walk

    def light(starts, expand, accepts, limit=None, live=True):
        # the heaviest run from a start, reported as exceeding the limit
        return real(starts, expand, accepts, live=live)._replace(heavier=([], starts[0]))

    monkeypatch.setattr(nftdev.engine, "_walk", light)
    # the unsatisfiable gadget has deviation 26 < U = 27: at k = 26 the
    # questions walk with limit 26, which its heaviest run does not exceed;
    # analyze and exact at k = U walk with limit U - 1 and take a heavier
    # run as the witness of value U, so one that weighs 26 trips that
    # check.  Both are explicit raises, which python -O keeps.
    g = gen_3sat(UNSAT).nft
    assert _bracket(g) == (18, 27)
    for query in (lambda t: threshold(t, 26), lambda t: exact(t, 26)):
        with pytest.raises(AssertionError, match="^run heavier than the limit does not exceed"):
            query(g)
    for query in (analyze_deviation, lambda t: exact(t, 27)):
        with pytest.raises(AssertionError, match="^run heavier than U - 1 does not weigh"):
            query(g)


def test_upper_bound_lies_between_the_deviation_and_B(monkeypatch):
    # U >= v is what lets analyze and exact stop at the first run weighing
    # U; U <= B keeps the paper's bound; U = v on T_n, and U = n(m + 1) on
    # the 3-SAT gadgets, which is v exactly when the formula is
    # satisfiable.  The probe is an accepting run, so its weight L <= v,
    # and L = U on T_n and on their comparison products, so these answer
    # with no configuration.  The corpora hold no bounded instance with
    # b > 0, so seeded length-preserving draws join them.
    rng = random.Random(67)
    sources = {"corpus": [t for seed in (CORPUS_SEED, 1, 2, 3) for t in make_corpus(500, seed)]}
    sources["draws"] = [random_length_preserving_nft(rng, a) for a in ("a", "ab", "abc") * 300]
    sources["family"] = [gen_family(n).nft for n in range(2, 41)]
    formulas = [random_cnf(rng) for _ in range(15)] + [random_unsat_cnf(rng) for _ in range(15)]
    sources["3-SAT"] = [gen_3sat(f).nft for f in formulas + [UNSAT]]
    pairs = sources["family"][:11] + sources["3-SAT"][::3] + sources["draws"][:60]
    sources["product"] = [
        comparison_to_deviation(*deviation_to_comparison(t)) for t in pairs if t is not None
    ]
    checked, tight, probed = Counter(), Counter(), Counter()
    for source, instances in sources.items():
        for t in instances:
            if t is None:
                continue
            res = analyze_deviation(t)
            if res.verdict is not Verdict.BOUNDED or res.bounds.b == 0:
                continue
            lower, upper = _bracket(t)
            assert lower <= res.value <= upper <= res.bounds.B
            checked[source] += 1
            tight[source] += res.value == upper
            probed[source] += lower == upper
    family = [n * (n + 1) // 2 for n in range(2, 41)]
    assert [_bracket(t) for t in sources["family"]] == [(v, v) for v in family]
    assert [_bracket(z) for z in sources["product"][:11]] == [(v, v) for v in family[:11]]
    sat = [f.num_vars * (f.num_clauses + 1) for f in formulas + [UNSAT]]
    assert [_bracket(t)[1] for t in sources["3-SAT"]] == sat
    assert checked["corpus"] == 0 and tight["family"] == probed["family"] == 39
    assert checked["draws"] >= 200 and checked["3-SAT"] == 31 and checked["product"] >= 40
    assert tight["3-SAT"] == sum(sat_brute_force(f) is not None for f in formulas) < 31
    assert 0 < tight["draws"] < checked["draws"]
    assert probed["draws"] >= 42 and probed["product"] >= 17
    # on T_n the probe answers analyze, threshold at v - 1 and exact at v
    # with no configuration graph

    def unused(*args):
        raise AssertionError("a configuration graph was built")

    monkeypatch.setattr(nftdev.engine, "_configurations", unused)
    for t, v in zip(sources["family"], family):
        assert analyze_deviation(t, max_configs=1).value == v
        assert threshold(t, v - 1, max_configs=1) is False
        assert exact(t, v, max_configs=1) is True


def _differential_fixtures() -> list[Nft]:
    """Shapes the seeded sources may miss: a one-state component whose
    first self-loop in row order is the longer one, a component of two
    states with nonzero shift, and a non-final component {x, y} whose kept
    exit, y -> g, is not its first leaving transition, x -> f."""
    states = ["i", "x", "y", "f", "g"]
    longer_loop_first = [(0, "a", "", 1), (1, "ab", "ab", 1), (1, "a", "a", 1), (1, "", "a", 3)]
    two_state_cycle = [(0, "a", "", 1), (1, "a", "a", 2), (2, "b", "b", 1), (1, "", "a", 3)]
    later_exit = two_state_cycle + [(2, "", "b", 4), (4, "ab", "ab", 3)]
    shapes = (longer_loop_first, two_state_cycle, later_exit)
    return [_nft(states, {0}, {3}, trans) for trans in shapes]


def test_upper_bound_and_search_match_their_references():
    # the shortcuts of _upper_bound (the entry bonus list, the first
    # self-loop as the shortest cycle) and of _nonconjugate_cycle (each
    # state's inner transitions listed once) must keep (U, start, steps)
    # and (p, run, i, j) exactly
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench))
    sources = {"family": [gen_family(n).nft for n in range(2, 41)]}
    sources["compare"] = [
        comparison_to_deviation(*map(parse_nft, q.texts))
        for seed in (1, 2)
        for q in workloads.build_compare(seed)
    ]
    sources["sat"] = [parse_nft(q.texts[0]) for q in workloads.build_sat(1)]
    sources["corpus"] = [t for seed in (1, 2, 3) for t in make_corpus(500, seed)]
    sources["fixtures"] = _differential_fixtures()
    checked, shifted, found = Counter(), Counter(), Counter()
    probes = []
    for source, instances in sources.items():
        for t in instances:
            t = trim(t)
            if t.num_states == 0:
                continue
            shift, unbalanced = shift_assignment(t)
            if unbalanced is not None:
                continue
            rows = _state_rows(t)
            comp = _components(t, rows)
            upper = _upper_bound(t, rows, comp, shift)
            assert upper == reference_upper_bound(t, rows, comp, shift)
            cycle = _nonconjugate_cycle(t, rows, shift, comp)
            assert cycle == reference_nonconjugate_cycle(t, rows, shift, comp)
            checked[source] += 1
            shifted[source] += any(shift.values())
            found[source] += cycle is not None
            if source == "fixtures":
                probes.append(upper[2])
    assert checked["family"] == 39 and checked["fixtures"] == 3
    assert shifted["compare"] == 128 and shifted["sat"] == 106
    assert checked["corpus"] >= 700 and found["corpus"] >= 200
    # the fixtures are the shapes they claim: the probe loops the longer
    # self-loop (transition 1), and the cycle x -> y -> x (1, 2), once each,
    # and leaves {x, y} by the later exit y -> g (4)
    assert probes == [[0, 1, 3], [0, 1, 2, 3], [0, 1, 2, 1, 4, 5]]
