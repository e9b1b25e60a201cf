import operator
import random

import pytest

from helpers import conjugate_by

from nftdev import (
    INF,
    Nft,
    Run,
    Transition,
    gen_family,
    hamming_distance,
    repr_size,
    run_words,
    stats,
)

# the k_i = i - 1 accepting run of the n=4 family (copy loops are indices
# 0..3, advances 4..6, the bridge 7, the output chain 8..10)
T4_WITNESS_RUN = Run((4, 1, 5, 2, 2, 6, 3, 3, 3, 7, 8, 9, 10))
T4_PAIR = ("1001110000", "0110001111")


def test_hamming_examples():
    assert hamming_distance("abc", "abc") == 0
    assert hamming_distance(*T4_PAIR) == 10
    assert hamming_distance("ab", "abc") == INF


def test_hamming_symmetry_and_identity():
    rng = random.Random(5)
    for _ in range(200):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        assert hamming_distance(u, v) == hamming_distance(v, u)
        assert hamming_distance(u, u) == 0


def test_infinity_ordering():
    assert INF == INF
    assert INF > 10**30
    assert not INF < 5
    assert 5 < INF
    assert INF >= INF
    assert INF <= INF and not INF > INF and not INF < INF
    assert INF > True and not INF <= 0
    assert hash(INF) == hash(INF)
    # only ints and INF compare with INF; floats and others raise
    for other in (1.5, float("inf"), "a", None):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(INF, other)
            with pytest.raises(TypeError):
                op(other, INF)


def _conjugate_reference(u, v, n):
    """Literal transcription of the definition, as an independent oracle."""
    if len(u) != len(v):
        return False
    size = len(u)
    if size == 0:
        return True
    is_rotation = any(u[k:] + u[:k] == v for k in range(size))
    positions = all(
        u[i - 1] == v[j - 1]
        for i in range(1, size + 1)
        for j in range(1, size + 1)
        if (j - i - n) % size == 0
    )
    return is_rotation and positions


def test_conjugate_examples():
    assert conjugate_by("ab", "ba", 1) is True
    assert conjugate_by("ab", "ab", 0) is True
    assert conjugate_by("ab", "ab", 1) is False


def test_conjugate_matches_definition_exhaustively():
    words = [""]
    for length in range(1, 4):
        new = []
        for w in words:
            if len(w) == length - 1:
                new += [w + "a", w + "b"]
        words += new
    words = [w for w in words]
    for u in words:
        for v in words:
            for n in range(-2, 6):
                assert conjugate_by(u, v, n) == _conjugate_reference(u, v, n), (u, v, n)


def test_conjugate_symmetry_footnote():
    rng = random.Random(11)
    for _ in range(300):
        size = rng.randint(1, 6)
        u = "".join(rng.choice("ab") for _ in range(size))
        v = "".join(rng.choice("ab") for _ in range(size))
        n = rng.randint(0, size - 1)
        assert conjugate_by(u, v, n) == conjugate_by(v, u, (size - n) % size)


def _single(input_word, output_word):
    return Nft(
        states=("p", "q"),
        alphabet=frozenset("abc"),
        initials=frozenset({0}),
        finals=frozenset({1}),
        transitions=(Transition(0, input_word, output_word, 1),),
    )


def test_run_words():
    t4 = gen_family(4).nft
    assert run_words(t4, Run(())) == ("", "")
    assert run_words(t4, T4_WITNESS_RUN) == T4_PAIR
    assert run_words(_single("a", "b"), Run((0,))) == ("a", "b")


def test_run_words_rejects_broken_chain():
    t4 = gen_family(4).nft
    with pytest.raises(ValueError, match="not a run"):
        run_words(t4, Run((0, 2)))  # p1 self-loop then p3 self-loop
    with pytest.raises(ValueError, match="not a run"):
        run_words(t4, Run((99,)))


def test_run_concatenation_distributes():
    t4 = gen_family(4).nft
    left = Run(T4_WITNESS_RUN.transitions[:5])
    right = Run(T4_WITNESS_RUN.transitions[5:])
    u1, v1 = run_words(t4, left)
    u2, v2 = run_words(t4, right)
    assert run_words(t4, T4_WITNESS_RUN) == (u1 + u2, v1 + v2)


def test_stats_values():
    for n in (2, 4, 6):
        assert stats(gen_family(n).nft).smax == 1
    st = stats(_single("ab", "c"))
    assert st.smax == 1 and st.lmax == 3
    empty = Nft(("p",), frozenset("a"), frozenset({0}), frozenset({0}), ())
    st = stats(empty)
    assert st.smax == 0 and st.lmax == 0
    assert repr_size(empty) >= st.num_states


def test_stats_invariants(corpus):
    for t in corpus[:40]:
        st = stats(t)
        assert st.smax <= st.lmax
        assert repr_size(t) >= st.num_states


def test_nft_validation():
    with pytest.raises(ValueError, match="duplicate state"):
        Nft(("p", "p"), frozenset("a"), frozenset(), frozenset(), ())
    with pytest.raises(ValueError, match="alphabet"):
        Nft(("p",), frozenset({"ab"}), frozenset(), frozenset(), ())
    with pytest.raises(ValueError, match="reserved"):
        Nft(("p",), frozenset({"-"}), frozenset(), frozenset(), ())
    for bad in ("#", " ", "\t"):
        with pytest.raises(ValueError, match="may not be '#' or whitespace"):
            Nft(("p",), frozenset({bad}), frozenset(), frozenset(), ())
    with pytest.raises(ValueError, match="out of range"):
        Nft(("p",), frozenset("a"), frozenset({3}), frozenset(), ())
    with pytest.raises(ValueError, match="outside the state set"):
        Nft(("p",), frozenset("a"), frozenset(), frozenset(), (Transition(0, "a", "", 4),))
    with pytest.raises(ValueError, match="outside the alphabet"):
        Nft(("p",), frozenset("a"), frozenset(), frozenset(), (Transition(0, "b", "", 0),))
    with pytest.raises(ValueError, match="letter 'b' outside the alphabet"):
        Nft(("p",), frozenset("a"), frozenset(), frozenset(), (Transition(0, "a", "ab", 0),))
    for bad in ("", "p#", "#", "p q", " p", "p\t", "p\u00a0q", "\u3000"):
        with pytest.raises(ValueError, match="invalid state name"):
            Nft((bad,), frozenset("a"), frozenset(), frozenset(), ())


def test_nft_rejects_fields_of_the_wrong_type():
    # each raises the ValueError of its field, not a bare TypeError
    base = dict(states=("p",), alphabet="a", initials={0}, finals={0}, transitions=())
    cases = [
        (dict(name=5), "invalid name 5"),
        (dict(states=(5,)), "invalid state name 5"),
        (dict(initials={"0"}), "state id '0' out of range"),
        (dict(finals={0.0}), "state id 0.0 out of range"),
        (dict(transitions=[(0, "a", "a", 0.0)]), "transition 0 has an endpoint outside"),
        (dict(transitions=[(0, "a", "a")]), "needs the fields"),
        (dict(transitions=[(0, 5, "a", 0)]), "transition 0 has a word that is not a string"),
        (dict(alphabet={5}), "letters must be single characters"),
    ]
    for fields, message in cases:
        with pytest.raises(ValueError, match=message):
            Nft(**{**base, **fields})
    t = Nft(**{**base, "transitions": [(0, "a", "a", 0)]}, name="ok")
    assert t.transitions == (Transition(0, "a", "a", 0),)


def test_transition_record():
    tr = Transition(0, "ab", "c", 1)
    with pytest.raises(AttributeError):
        tr.src = 2
    assert not hasattr(tr, "__dict__")
    assert tr.shift == 1
    assert Transition(0, "", "abc", 0).shift == -3
    assert tr == (0, "ab", "c", 1)
    assert tr._replace(dst=0) == Transition(0, "ab", "c", 0)


def test_nft_turns_plain_tuples_into_transitions():
    t = Nft(("p", "q"), frozenset("a"), {0}, {1}, [(0, "a", "", 1), Transition(1, "", "a", 1)])
    assert all(type(tr) is Transition for tr in t.transitions)
    assert t.transitions == (Transition(0, "a", "", 1), Transition(1, "", "a", 1))
