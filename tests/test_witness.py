import pytest

from helpers import (
    conjugate_by,
    find_short_unbalanced_accepting_run,
    find_short_unbalanced_cycle,
    find_threshold_witness,
)

from nftdev import (
    CnfFormula,
    Digraph,
    Nft,
    Transition,
    Verdict,
    analyze_deviation,
    gen_3sat,
    gen_family,
    gen_reach_bounded,
    hamming_distance,
    run_words,
    sat_brute_force,
    shift_assignment,
    trim,
)
from nftdev.engine import _components, _nonconjugate_cycle, _state_rows


def _nft(states, initials, finals, transitions, alphabet="ab"):
    return Nft(
        states=tuple(states),
        alphabet=frozenset(alphabet),
        initials=frozenset(initials),
        finals=frozenset(finals),
        transitions=tuple(transitions),
    )


def _identity():
    return _nft(["p"], {0}, {0}, [Transition(0, c, c, 0) for c in "ab"])


def test_unbalanced_run_examples():
    assert find_short_unbalanced_accepting_run(_identity()) is None
    t = _nft(["i", "f"], {0}, {1}, [Transition(0, "a", "", 1)])
    run = find_short_unbalanced_accepting_run(t)
    assert run.transitions == (0,)
    # the 3-SAT gadgets are length-preserving
    gadget = trim(gen_3sat(CnfFormula(2, ((1, -2, 2),))).nft)
    assert find_short_unbalanced_accepting_run(gadget) is None
    assert find_short_unbalanced_cycle(gadget) is None


def test_unbalanced_cycle_examples():
    assert find_short_unbalanced_cycle(gen_family(4).nft) is None
    t = _nft(
        ["i", "p", "f"],
        {0},
        {2},
        [
            Transition(0, "a", "a", 1),
            Transition(1, "a", "", 1),
            Transition(1, "b", "b", 2),
        ],
    )
    state, run = find_short_unbalanced_cycle(t)
    assert state == 1
    u, v = run_words(t, run)
    assert len(u) != len(v)


def test_no_cycles_means_no_cycle_witness():
    # an output-only chain (the relation {eps} x {0,1}^2) has no cycles at
    # all, even though it is not length-preserving
    chain = _nft(
        ["i0", "i1", "i2"],
        {0},
        {2},
        [Transition(j, "", b, j + 1) for j in range(2) for b in "01"],
        alphabet="01",
    )
    assert find_short_unbalanced_cycle(chain) is None
    assert find_short_unbalanced_accepting_run(chain) is not None


def test_unbalanced_agreement(corpus):
    for t in corpus[:80]:
        consistent = shift_assignment(t)[1] is None
        none_found = (
            find_short_unbalanced_accepting_run(t) is None
            and find_short_unbalanced_cycle(t) is None
        )
        assert none_found == consistent


def _assert_first_mismatch_at_shift(u, v, s, i, j):
    """(i, j) is the first pair of 1-based positions with j - i = s
    exactly and u_i != v_j."""
    assert j - i == s
    assert 1 <= i <= len(u) and 1 <= j <= len(v)
    assert u[i - 1] != v[j - 1]
    assert all(u[k - 1] == v[k - 1 + s] for k in range(max(1, 1 - s), i))


def test_nonconjugate_cycle_on_reach_gadget():
    t = trim(gen_reach_bounded(Digraph(2, ((0, 1),), s=0, t=1)).nft)
    shift, _ = shift_assignment(t)
    rows = _state_rows(t)
    comp, _ = _components(rows, range(t.num_states))
    found = _nonconjugate_cycle(t, rows, shift, comp)
    assert found is not None
    p, run, i, j = found
    u, v = run_words(t, run)
    assert len(u) == len(v)
    _assert_first_mismatch_at_shift(u, v, shift[p], i, j)
    assert not conjugate_by(u, v, shift[p])


def test_nonconjugate_cycle_none_on_bounded():
    for t in (gen_family(4).nft, _identity()):
        rows = _state_rows(t)
        comp, _ = _components(rows, range(t.num_states))
        assert _nonconjugate_cycle(t, rows, shift_assignment(t)[0], comp) is None


def test_nonconjugate_agreement(corpus):
    for t in corpus[:80]:
        shift, unbalanced = shift_assignment(t)
        if unbalanced is not None:
            continue
        res = analyze_deviation(t)
        rows = _state_rows(t)
        comp, _ = _components(rows, range(t.num_states))
        found = _nonconjugate_cycle(t, rows, shift, comp)
        if res.verdict is Verdict.UNBOUNDED:
            assert found is not None
            p, run, i, j = found
            u, v = run_words(t, run)
            _assert_first_mismatch_at_shift(u, v, shift[p], i, j)
        else:
            assert found is None


def test_threshold_witness_family():
    t4 = gen_family(4).nft
    run = find_threshold_witness(t4, 9)
    u, v = run_words(t4, run)
    assert hamming_distance(u, v) == 10
    assert t4.transitions[run.transitions[0]].src in t4.initials
    assert t4.transitions[run.transitions[-1]].dst in t4.finals
    assert find_threshold_witness(t4, 10) is None


def test_threshold_witness_encodes_satisfying_valuation():
    f = CnfFormula(3, ((1, -2, 3), (-1, -1, 2)))
    n, m = f.num_vars, f.num_clauses
    gadget = trim(gen_3sat(f).nft)
    k = n * (m + 1) - 1
    run = find_threshold_witness(gadget, k)
    assert run is not None
    u, v = run_words(gadget, run)
    assert hamming_distance(u, v) == n * (m + 1)
    # all positions mismatch, so every block is the same satisfying valuation
    block = u[:n]
    valuation = tuple(c == "1" for c in block)
    assert u == block * (m + 1)
    for clause in f.clauses:
        assert any(valuation[l - 1] if l > 0 else not valuation[-l - 1] for l in clause)
    assert sat_brute_force(f) is not None


def test_threshold_witness_preconditions():
    bad = _nft(["i", "f"], {0}, {1}, [Transition(0, "a", "", 1)])
    with pytest.raises(ValueError):
        find_threshold_witness(bad, 1)
    with pytest.raises(ValueError):
        find_threshold_witness(gen_family(2).nft, -1)


def test_threshold_witness_agreement(corpus):
    for t in corpus[:60]:
        res = analyze_deviation(t)
        if res.verdict not in (Verdict.BOUNDED, Verdict.EMPTY):
            continue
        value = res.value or 0
        for k in range(0, min(res.bounds.B, 5) + 1):
            run = find_threshold_witness(t, k)
            if value > k:
                assert run is not None
                u, v = run_words(t, run)
                assert hamming_distance(u, v) > k
            else:
                assert run is None
