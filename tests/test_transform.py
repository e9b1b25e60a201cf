import random

from helpers import (
    copying_trim_with_maps,
    enumerate_pairs_total,
    enumerate_relation,
    make_corpus,
    random_digraph,
    random_untrimmed_nft,
)

from nftdev import (
    Nft,
    Transition,
    add_eps_self_loops,
    atomize,
    concat,
    gen_family,
    gen_reach_bounded,
    gen_reach_threshold,
    is_trim,
    serialize_nft,
    stats,
    trim,
    union,
)
from nftdev.transform import trim_with_maps


def _nft(states, initials, finals, transitions, alphabet="ab"):
    return Nft(
        states=tuple(states),
        alphabet=frozenset(alphabet),
        initials=frozenset(initials),
        finals=frozenset(finals),
        transitions=tuple(transitions),
    )


def test_trim_removes_unreachable_sink():
    t = _nft(
        ["i", "f", "sink"],
        {0},
        {1},
        [Transition(0, "a", "a", 1), Transition(2, "a", "a", 1)],
    )
    trimmed = trim(t)
    assert trimmed.states == ("i", "f")
    assert len(trimmed.transitions) == 1
    assert is_trim(trimmed)


def test_trim_idempotent_on_family():
    t4 = gen_family(4).nft
    assert trim(t4) == t4
    assert is_trim(t4)


def test_trim_with_maps_is_identity_on_trim_inputs():
    rng = random.Random(5)
    instances = make_corpus(200, seed=11)
    instances += [gen_family(n).nft for n in range(2, 12)]
    for _ in range(30):
        g = random_digraph(rng, max_vertices=10)
        instances.append(trim(gen_reach_bounded(g).nft))
        instances.append(trim(gen_reach_threshold(g, rng.randint(1, 3)).nft))
    for t in instances:
        assert is_trim(t)
        trimmed, state_map, trans_map = trim_with_maps(t)
        assert trimmed == t
        assert state_map == list(range(t.num_states))
        assert trans_map == list(range(len(t.transitions)))


def test_trim_with_maps_matches_copying_reference():
    rng = random.Random(12)
    removed = 0
    for _ in range(400):
        t = random_untrimmed_nft(rng)
        got = trim_with_maps(t)
        assert got == copying_trim_with_maps(t)
        removed += got[0].num_states < t.num_states
    assert removed >= 100


def test_trim_to_empty():
    t = _nft(["i", "f"], {0}, {1}, [Transition(1, "a", "a", 1)])
    trimmed = trim(t)
    assert trimmed.num_states == 0
    assert trimmed.transitions == ()


def test_trim_keeps_initial_final_state():
    t = _nft(["p"], {0}, {0}, [])
    assert trim(t).num_states == 1
    assert enumerate_relation(t, 2) == {("", "")}


def test_relation_preserving_transforms(corpus):
    for t in corpus[:30]:
        reference = enumerate_pairs_total(t, 8)
        for f in (trim, atomize, add_eps_self_loops):
            assert enumerate_pairs_total(f(t), 8) == reference, f.__name__


def test_atomize_examples():
    t = _nft(["p", "q"], {0}, {1}, [Transition(0, "ab", "c", 1)], alphabet="abc")
    a = atomize(t)
    assert a.num_states == 3
    assert [(tr.input, tr.output) for tr in a.transitions] == [("a", "c"), ("b", "")]
    # transitions reading at most one letter stay as they are
    for word_in, word_out in (("a", "bc"), ("", "b")):
        t = _nft(["p", "q"], {0}, {1}, [Transition(0, word_in, word_out, 1)], alphabet="abc")
        assert atomize(t) == t


def test_atomize_bounds(corpus):
    for t in corpus[:40]:
        st = stats(t)
        a = atomize(t)
        assert max((len(tr.input) for tr in a.transitions), default=0) <= 1
        assert stats(a).smax <= max(st.smax, st.lmax)


def test_atomize_deterministic_names():
    t = _nft(["p", "q"], {0}, {1}, [Transition(0, "ab", "", 1)])
    assert serialize_nft(atomize(t)) == serialize_nft(atomize(t))


def test_add_eps_self_loops():
    t = _nft(["p", "q"], {0}, {1}, [Transition(0, "a", "a", 1)])
    once = add_eps_self_loops(t)
    assert len(once.transitions) == 3
    assert add_eps_self_loops(once) == once
    empty = trim(_nft(["p"], set(), set(), []))
    assert add_eps_self_loops(empty) == empty


def _one_pair(u, v, alphabet="ab"):
    return _nft(["i", "f"], {0}, {1}, [Transition(0, u, v, 1)], alphabet=alphabet)


def test_concat_single_pairs():
    c = concat(_one_pair("a", "b"), _one_pair("b", "a"))
    assert enumerate_relation(c, 4) == {("ab", "ba")}


def test_concat_with_empty_relation():
    empty = trim(_nft(["i", "f"], {0}, {1}, []))
    c = concat(_one_pair("a", "b"), empty)
    assert enumerate_relation(c, 4) == set()


def test_concat_fallback_mode_uses_bridges():
    # two finals on the left force the (eps, eps) bridge construction
    left = _nft(
        ["i", "f1", "f2"],
        {0},
        {1, 2},
        [Transition(0, "a", "a", 1), Transition(0, "b", "b", 2)],
    )
    c = concat(left, _one_pair("a", "b"))
    assert enumerate_relation(c, 4) == {("aa", "ab"), ("ba", "bb")}
    assert any(tr.input == "" and tr.output == "" for tr in c.transitions)


def test_concat_union_match_set_algebra(corpus):
    rng = random.Random(99)
    small = [t for t in corpus if t.num_states <= 3][:12]
    for _ in range(15):
        a = rng.choice(small)
        b = rng.choice(small)
        ra = enumerate_pairs_total(a, 6)
        rb = enumerate_pairs_total(b, 6)
        expected_concat = {
            (ua + ub, va + vb)
            for ua, va in ra
            for ub, vb in rb
            if len(ua + ub) + len(va + vb) <= 6
        }
        assert enumerate_pairs_total(concat(a, b), 6) == expected_concat
        assert enumerate_pairs_total(union(a, b), 6) == ra | rb


def test_union_examples():
    u = union(_one_pair("0", "1", "01"), _one_pair("00", "11", "01"))
    assert enumerate_relation(u, 4) == {("0", "1"), ("00", "11")}
    empty = trim(_nft(["i", "f"], {0}, {1}, []))
    assert enumerate_relation(union(_one_pair("a", "a"), empty), 4) == {("a", "a")}


def test_union_renames_colliding_states():
    a = _one_pair("a", "a")
    u = union(a, a)
    assert len(set(u.states)) == u.num_states == 4
    assert enumerate_relation(u, 2) == {("a", "a")}


def test_family_concat_structure():
    # chaining generators through shared boundary states keeps the relation
    # equal to the pairwise concatenation
    corpus2 = make_corpus(4, seed=3)
    a, b = corpus2[0], corpus2[1]
    ra = enumerate_pairs_total(a, 6)
    rb = enumerate_pairs_total(b, 6)
    got = enumerate_pairs_total(concat(a, b), 6)
    expected = {
        (ua + ub, va + vb) for ua, va in ra for ub, vb in rb if len(ua + ub) + len(va + vb) <= 6
    }
    assert got == expected


def test_family_is_already_input_atomic():
    t4 = gen_family(4).nft
    assert atomize(t4) == t4
