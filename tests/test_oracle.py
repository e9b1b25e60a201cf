import random

import pytest

from helpers import enumerate_relation, literal_max_distance, make_corpus

from nftdev import (
    INF,
    CnfFormula,
    Nft,
    OracleScaleExceeded,
    Transition,
    brute_force_deviation,
    domains_equal_upto,
    gen_family,
    hamming_distance,
    run_words,
    sat_brute_force,
    trim,
)
from nftdev.oracle import _default_caps, _domain_upto


def _nft(states, initials, finals, transitions, alphabet="ab"):
    return Nft(
        states=tuple(states),
        alphabet=frozenset(alphabet),
        initials=frozenset(initials),
        finals=frozenset(finals),
        transitions=tuple(transitions),
    )


def test_family4_worked_example():
    t4 = gen_family(4).nft
    res = brute_force_deviation(t4, 24)
    assert res.max_seen == 10
    assert res.saturated is False
    assert run_words(t4, res.witness) == ("1001110000", "0110001111")


def test_unbalanced_single_transition():
    t = _nft(["i", "f"], {0}, {1}, [Transition(0, "a", "", 1)])
    res = brute_force_deviation(t, 8)
    assert res.max_seen == INF
    u, v = run_words(t, res.witness)
    assert len(u) != len(v)


def test_empty_relation_convention():
    t = trim(_nft(["i", "f"], {0}, {1}, []))
    res = brute_force_deviation(t, 8)
    assert res.max_seen == 0 and res.saturated is False and res.witness is None


def test_default_caps_formula():
    t4 = gen_family(4).nft
    assert _default_caps(t4) == 4 * 96


def test_agrees_with_literal_run_dfs():
    corpus = make_corpus(25, seed=31415)
    for t in corpus:
        small = [x for x in (t,) if x.num_states <= 3 and len(x.transitions) <= 5]
        if not small:
            continue
        reference = literal_max_distance(t, 7)
        got = brute_force_deviation(t, 7)
        expected = reference if reference >= 0 else 0
        assert got.max_seen == expected, t


def test_witness_realizes_max(corpus):
    for t in corpus[:50]:
        res = brute_force_deviation(t)
        if res.witness is None or res.max_seen == INF:
            continue
        u, v = run_words(t, res.witness)
        assert hamming_distance(u, v) == res.max_seen


def test_enumerate_identity():
    ident = _nft(["p"], {0}, {0}, [Transition(0, "a", "a", 0)], alphabet="a")
    assert enumerate_relation(ident, 2) == {("", ""), ("a", "a"), ("aa", "aa")}


def test_enumerate_family2_closed_form():
    t2 = gen_family(2).nft
    expected = set()
    for k1 in range(4):
        for k2 in range(4):
            u = "1" * (k1 + 1) + "0" * (k2 + 1)
            v = "1" * k1 + "0" * k2 + "11"
            if len(u) <= 4 and len(v) <= 4:
                expected.add((u, v))
    assert enumerate_relation(t2, 4) == expected


def test_enumerate_empty():
    empty = trim(_nft(["i", "f"], {0}, {1}, []))
    assert enumerate_relation(empty, 5) == set()


def test_enumerate_terminates_with_eps_loops():
    t = _nft(
        ["p", "q"],
        {0},
        {1},
        [Transition(0, "", "", 0), Transition(0, "a", "b", 1), Transition(1, "", "", 0)],
    )
    assert enumerate_relation(t, 2) == {("a", "b"), ("aa", "bb")}


def test_domains():
    ident_a = _nft(["p"], {0}, {0}, [Transition(0, "a", "a", 0)], alphabet="ab")
    ident_b = _nft(["p"], {0}, {0}, [Transition(0, "b", "b", 0)], alphabet="ab")
    assert not domains_equal_upto(ident_a, ident_b, 1)
    assert domains_equal_upto(ident_a, ident_a, 5)
    t4 = gen_family(4).nft
    assert domains_equal_upto(t4, trim(t4), 6)
    assert _domain_upto(ident_a, 2) == {"", "a", "aa"}
    assert _domain_upto(ident_a, 0) == {""}


def test_domains_reject_negative_length():
    t4 = gen_family(4).nft
    with pytest.raises(ValueError, match="max_word_len must be a natural number"):
        _domain_upto(t4, -1)
    with pytest.raises(ValueError, match="max_word_len must be a natural number"):
        domains_equal_upto(t4, t4, -1)


def test_sat_brute_force_examples():
    assert sat_brute_force(CnfFormula(1, ((1, 1, 1),))) == (True,)
    assert sat_brute_force(CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))) is None
    with pytest.raises(OracleScaleExceeded, match="oracle scale exceeded"):
        sat_brute_force(CnfFormula(25, ((1, 2, 3),)))


def _sat_reversed_order(f):
    """Independent enumerator: highest assignment first."""
    for mask in range((1 << f.num_vars) - 1, -1, -1):
        val = tuple(bool(mask >> i & 1) for i in range(f.num_vars))
        if all(
            any(val[l - 1] if l > 0 else not val[-l - 1] for l in clause)
            for clause in f.clauses
        ):
            return val
    return None


def test_sat_brute_force_matches_independent_order():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 5)
        clauses = tuple(
            tuple(rng.randrange(1, n + 1) * rng.choice((1, -1)) for _ in range(3))
            for _ in range(rng.randint(1, 6))
        )
        f = CnfFormula(n, clauses)
        assert (sat_brute_force(f) is None) == (_sat_reversed_order(f) is None)
        found = sat_brute_force(f)
        if found is not None:
            assert all(
                any(found[l - 1] if l > 0 else not found[-l - 1] for l in clause)
                for clause in f.clauses
            )


def test_saturation_flag_on_tight_caps():
    t4 = gen_family(4).nft
    res = brute_force_deviation(t4, 3)
    assert res.saturated is True
    assert res.max_seen <= 10


# Each cap below is the only one an exploration reaches, so a cap that cut
# the frontier without flagging it would leave saturated False.


def test_lag_cap_saturates():
    # q1 is a dead end whose (a, eps) loop grows the lag without bound; the
    # lag cap is 3 * smax * |Q| + lmax = 7 and the run cap 4B = 40
    dead_end = _nft(
        ["q0", "q1"], {0}, {0}, [Transition(0, "a", "", 1), Transition(1, "a", "", 1)], "a"
    )
    assert _default_caps(dead_end) == 40
    res = brute_force_deviation(dead_end)
    assert res.saturated is True
    assert res.max_seen == 0


def test_node_budget_saturates():
    res = brute_force_deviation(gen_family(4).nft, node_budget=3)
    assert res.saturated is True
    assert res.max_seen < 10
