import random
from itertools import product

import pytest

from helpers import (
    all_pairs_product,
    enumerate_relation,
    io_map,
    random_acyclic_nft,
    random_length_preserving_nft,
    random_trimmed_nft,
)

from nftdev import (
    CnfFormula,
    Nft,
    Transition,
    Verdict,
    add_eps_self_loops,
    analyze_deviation,
    compare,
    comparison_to_deviation,
    deviation_to_comparison,
    domains_equal_upto,
    gen_3sat,
    gen_family,
    hamming_distance,
    union,
)


def _nft(states, initials, finals, transitions, alphabet="ab"):
    return Nft(
        states=tuple(states),
        alphabet=frozenset(alphabet),
        initials=frozenset(initials),
        finals=frozenset(finals),
        transitions=tuple(transitions),
    )


def _identity(letters="a"):
    return _nft(
        ["p"], {0}, {0}, [Transition(0, c, c, 0) for c in letters], alphabet=letters
    )


def _unary_writer(letter):
    """Maps a^n to letter^n."""
    return _nft(["p"], {0}, {0}, [Transition(0, "a", letter, 0)])


def test_equal_transducers_have_deviation_zero():
    z = comparison_to_deviation(_identity(), _identity())
    res = analyze_deviation(z)
    assert res.verdict is Verdict.BOUNDED and res.value == 0


def test_diverging_writers_are_unbounded():
    z = comparison_to_deviation(_unary_writer("a"), _unary_writer("b"))
    assert analyze_deviation(z).verdict is Verdict.UNBOUNDED
    # the brute-force sup over shared inputs grows linearly
    m1 = io_map(_unary_writer("a"), 6, 6)
    m2 = io_map(_unary_writer("b"), 6, 6)
    sups = [
        max(hamming_distance(v1, v2) for v1 in m1[x] for v2 in m2[x])
        for x in sorted(m1.keys() & m2.keys(), key=len)
    ]
    assert sups == [0, 1, 2, 3, 4, 5, 6]


def test_single_letter_domain_distance_one():
    a_to_a = _nft(["i", "f"], {0}, {1}, [Transition(0, "a", "a", 1)])
    a_to_b = _nft(["i", "f"], {0}, {1}, [Transition(0, "a", "b", 1)])
    z = comparison_to_deviation(a_to_a, a_to_b)
    res = analyze_deviation(z)
    assert res.value == 1
    assert compare(a_to_a, a_to_b, "exact", 1)


def test_deviation_to_comparison_construction():
    t = _nft(["i", "f"], {0}, {1}, [Transition(0, "a", "b", 1)])
    t1, t2 = deviation_to_comparison(t)
    assert t2 == t
    assert t1.transitions == (Transition(0, "a", "a", 1),)
    ident = _identity()
    t1, t2 = deviation_to_comparison(ident)
    assert t1.transitions == ident.transitions and t2 == ident


def test_deviation_to_comparison_domains(corpus):
    for t in corpus[:25]:
        t1, t2 = deviation_to_comparison(t)
        assert domains_equal_upto(t1, t2, 4)


def test_round_trip_preserves_deviation(corpus):
    for t in corpus[:40]:
        direct = analyze_deviation(t)
        z = comparison_to_deviation(*deviation_to_comparison(t))
        via = analyze_deviation(z)
        assert direct.deviation == via.deviation, t


def _length_preserving_draws_with_lag():
    """Seeded length-preserving draws over "ab" and "abc" whose lag bound b
    is positive, so compare walks a configuration graph with lags."""
    draws = []
    for alphabet in ("ab", "abc"):
        rng = random.Random(f"compare-lag:{alphabet}")
        for _ in range(40):
            t = random_length_preserving_nft(rng, alphabet)
            if t is not None and analyze_deviation(t).bounds.b > 0:
                draws.append(t)
    return draws


def test_compare_agrees_with_direct_verdicts(corpus):
    draws = _length_preserving_draws_with_lag()
    lagged_bounded = [t for t in draws if analyze_deviation(t).verdict is Verdict.BOUNDED]
    assert len(lagged_bounded) >= 10, len(lagged_bounded)
    for t in corpus[:30] + draws:
        direct = analyze_deviation(t)
        t1, t2 = deviation_to_comparison(t)
        assert compare(t1, t2, "bounded") == direct.bounded
        if direct.verdict is Verdict.BOUNDED:
            assert compare(t1, t2, "threshold", direct.value)
            assert compare(t1, t2, "exact", direct.value)
            if direct.value > 0:
                assert not compare(t1, t2, "threshold", direct.value - 1)
        else:
            assert not compare(t1, t2, "threshold", 3)
            assert not compare(t1, t2, "exact", 3)


def _seeded_pairs() -> list[tuple[Nft, Nft]]:
    rng = random.Random(4242)
    pairs = []
    while len(pairs) < 80:
        t1, t2, t3 = (random_trimmed_nft(rng) for _ in range(3))
        if t1 is None or t2 is None or t3 is None:
            continue
        # a union gives several initial states, hence several initial pairs
        pairs.append((t1, t2) if len(pairs) % 4 else (union(t1, t3), t2))
    return pairs


def test_product_matches_all_pairs_reference():
    pairs = _seeded_pairs()
    f = CnfFormula(3, ((1, -2, 3), (-1, -1, 2)))
    pairs.append(deviation_to_comparison(gen_3sat(f).nft))
    for t1, t2 in pairs:
        assert comparison_to_deviation(t1, t2) == all_pairs_product(t1, t2)


def test_product_has_no_idle_step_and_keeps_its_deviation():
    # an (eps, eps) self-loop reads and writes nothing and stays put, so
    # putting such loops back changes no answer
    for t1, t2 in _seeded_pairs():
        z = comparison_to_deviation(t1, t2)
        assert all(tr != (tr.src, "", "", tr.src) for tr in z.transitions)
        res, looped = analyze_deviation(z), analyze_deviation(add_eps_self_loops(z))
        assert (looped.verdict, looped.deviation) == (res.verdict, res.deviation)


def test_product_membership_matches_oracle():
    rng = random.Random(42)
    checked = 0
    while checked < 12:
        t1 = random_acyclic_nft(rng)
        t2 = random_acyclic_nft(rng)
        if t1 is None or t2 is None:
            continue
        checked += 1
        z = comparison_to_deviation(t1, t2)
        m1 = io_map(t1, 8, 8)
        m2 = io_map(t2, 8, 8)
        expected = {
            (v1, v2)
            for x in m1.keys() & m2.keys()
            for v1 in m1[x]
            for v2 in m2[x]
        }
        assert enumerate_relation(z, 8) == expected


def test_compare_self_is_bounded_for_functions():
    for t in (_identity("ab"), gen_family(3).nft):
        assert compare(t, t, "bounded")
        assert compare(t, t, "exact", 0)


def test_bit_flip_exact_three():
    # identity vs bitwise negation on {0,1}^3: every one of the 8 inputs
    # gives distance exactly 3
    ident = _nft(
        [f"s{i}" for i in range(4)],
        {0},
        {3},
        [Transition(i, c, c, i + 1) for i in range(3) for c in "01"],
        alphabet="01",
    )
    flip = _nft(
        [f"s{i}" for i in range(4)],
        {0},
        {3},
        [Transition(i, c, "1" if c == "0" else "0", i + 1) for i in range(3) for c in "01"],
        alphabet="01",
    )
    for word in product("01", repeat=3):
        x = "".join(word)
        flipped = "".join("1" if c == "0" else "0" for c in x)
        assert hamming_distance(x, flipped) == 3
    assert compare(ident, flip, "exact", 3)
    assert not compare(ident, flip, "exact", 2)
    assert compare(ident, flip, "threshold", 3)
    assert not compare(ident, flip, "threshold", 2)


def test_compare_3sat_halves():
    f = CnfFormula(2, ((1, 2, 2),))
    gadget = gen_3sat(f).nft
    k = 2 * (1 + 1) - 1
    t1, t2 = deviation_to_comparison(gadget)
    assert not compare(t1, t2, "threshold", k)  # satisfiable: deviation is k+1


def test_unknown_mode_rejected():
    try:
        compare(_identity(), _identity(), "nonsense")
    except ValueError as exc:
        assert "mode" in str(exc)
    else:
        raise AssertionError("expected ValueError")
    for mode in ("threshold", "exact"):
        try:
            compare(_identity(), _identity(), mode)
        except ValueError as exc:
            assert str(exc) == f"{mode} mode needs k"
        else:
            raise AssertionError("expected ValueError")


@pytest.mark.parametrize(
    "mode, k, message",
    [
        ("bogus", 1, "unknown comparison mode 'bogus'"),
        ("threshold", None, "threshold mode needs k"),
        ("exact", None, "exact mode needs k"),
        ("threshold", -1, "threshold expects a natural number"),
        ("exact", -1, "exact expects a natural number"),
        ("bounded", 5, "bounded mode takes no k"),
        ("bounded", 0, "bounded mode takes no k"),
        ("threshold", (3, 0), "max_configs must be at least 1"),
        ("exact", (3, -1), "max_configs must be at least 1"),
        ("bounded", (None, 0), "max_configs must be at least 1"),
        ("bounded", (None, -5), "max_configs must be at least 1"),
    ],
)
def test_compare_checks_arguments_before_the_product(monkeypatch, mode, k, message):
    # a pair k stands for (k, max_configs)
    def no_product(t1, t2):
        raise AssertionError("the product was built")

    monkeypatch.setattr("nftdev.reductions.comparison_to_deviation", no_product)
    with pytest.raises(ValueError) as exc:
        compare(_identity(), _identity(), mode, *(k if isinstance(k, tuple) else (k,)))
    assert str(exc.value) == message
