"""Every Nft the package builds itself skips the public constructor's
checks (Nft._trusted), so each producer's output is checked here: it must
validate, hold exactly the field types Nft(...) would coerce to, and equal
the same fields built through the public constructor."""

import dataclasses
import random

from helpers import make_corpus, random_cnf_mixed, random_digraph, random_untrimmed_nft

from nftdev import (
    CnfFormula,
    Nft,
    Transition,
    add_eps_self_loops,
    atomize,
    concat,
    gen_3sat,
    gen_family,
    gen_reach_bounded,
    gen_reach_threshold,
    gen_sat_unsat,
    parse_nft,
    serialize_nft,
    trim,
    union,
)
from nftdev.cli import main
from nftdev.gadgets import _bit_chain, _clause_gadget
from nftdev.reductions import comparison_to_deviation, deviation_to_comparison
from nftdev.transform import trim_with_maps


def _assert_well_formed(t: Nft):
    t._validate()
    assert type(t.states) is tuple
    assert type(t.transitions) is tuple
    assert all(type(tr) is Transition for tr in t.transitions)
    # frozenset == set, so equality alone would let a plain set through
    for part in (t.alphabet, t.initials, t.finals):
        assert type(part) is frozenset
    hash(t)
    assert t == Nft(**{f.name: getattr(t, f.name) for f in dataclasses.fields(t)})


def _parsed(t: Nft):
    text = serialize_nft(t)
    commented = "".join(f"{line}  # note\n" for line in text.splitlines())
    return parse_nft(text), parse_nft(commented)


def _gadgets():
    rng = random.Random(12)
    for n in range(2, 13):
        yield gen_family(n).nft
    for _ in range(20):
        g = random_digraph(rng, max_vertices=12, density=(0.05, 0.4))
        yield gen_reach_bounded(g).nft
        yield gen_reach_threshold(g, rng.randint(1, 3)).nft
    for _ in range(10):
        f = random_cnf_mixed(rng, max_vars=4, max_clauses=4, unsat_bias=0.3)
        yield gen_3sat(f).nft
        yield _bit_chain(f.num_vars, reads=False)
        yield _bit_chain(f.num_vars, reads=True)
        yield _clause_gadget(1, f.num_vars, f.clauses[0])
    for _ in range(4):
        f1 = random_cnf_mixed(rng, max_vars=2, max_clauses=2, unsat_bias=0.5)
        f2 = random_cnf_mixed(rng, max_vars=2, max_clauses=2, unsat_bias=0.5)
        yield gen_sat_unsat(f1, f2).nft
    yield gen_sat_unsat(CnfFormula(1, ((1, 1, 1),)), CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))).nft


def test_producers_build_well_formed_nfts():
    checked = 0
    for seed in (1, 2, 3):
        corpus = make_corpus(500, seed)
        rng = random.Random(seed)
        for t, u in zip(corpus, corpus[1:] + corpus[:1]):
            untrimmed = random_untrimmed_nft(rng)
            outputs = [
                *_parsed(t),
                trim_with_maps(untrimmed)[0],
                atomize(t),
                add_eps_self_loops(t),
                concat(t, u),
                union(t, u),
                comparison_to_deviation(t, u),
                deviation_to_comparison(t)[0],
            ]
            for out in outputs:
                _assert_well_formed(out)
            checked += len(outputs)
    for g in _gadgets():
        for out in (g, *_parsed(g), trim(g), atomize(g), add_eps_self_loops(g)):
            _assert_well_formed(out)
            checked += 1
    assert checked > 14_000, checked


# '|' joins the product's pair names, so 'p|q' x 'r' and 'p' x 'q|r' collide
COLLIDING = (
    "nft a\nalphabet x y\nstate p|q initial\nstate p final\ntrans p|q p x x\nend\n",
    "nft b\nalphabet x y\nstate r initial\nstate q|r final\ntrans r q|r x y\nend\n",
)
# the same collision where the lower-indexed pair, p|q x r, is reached but
# dead, and the initial pair p|q x t is dead too
COLLIDING_DEAD = (
    "nft a\nalphabet x y\nstate s initial\nstate p|q initial\nstate p final\n"
    "trans s p|q x x\ntrans s p y y\nend\n",
    "nft b\nalphabet x y\nstate t initial\nstate r\nstate q|r final\n"
    "trans t r x x\ntrans t q|r y x\nend\n",
)


def test_product_state_names_that_collide_are_answered(tmp_path):
    """The second of two colliding pair names gets a ~k suffix, and every
    compare answer equals the one for the same files with '|' renamed."""
    a, b = COLLIDING
    z = comparison_to_deviation(parse_nft(a), parse_nft(b))
    assert sorted(z.states) == ["p|q|r", "p|q|r~2"]
    files = {}
    texts = {"a": a, "b": b, "a_": a.replace("p|q", "p_q"), "b_": b.replace("q|r", "q_r")}
    for name, text in texts.items():
        path = tmp_path / f"{name}.nft"
        path.write_text(text)
        files[name] = str(path)
    queries = [["bounded"]] + [[mode, str(k)] for mode in ("threshold", "exact") for k in (0, 1, 2)]
    for query in queries:
        colliding = main(["compare", *query, files["a"], files["b"]])
        renamed = main(["compare", *query, files["a_"], files["b_"]])
        assert colliding == renamed, query
    exact = [main(["compare", "exact", str(k), files["a"], files["b"]]) for k in (0, 1, 2)]
    assert exact == [1, 0, 1]  # the deviation is 1


def test_product_names_dead_pairs_before_dropping_them():
    """Every reached pair is named in index order and only then are the dead
    ones dropped, so a live pair whose name collides with a lower-indexed
    dead pair's keeps its ~2 suffix; dead pairs, initial ones included,
    leave no state behind."""
    t1, t2 = (parse_nft(text) for text in COLLIDING_DEAD)
    z = comparison_to_deviation(t1, t2)
    assert z.states == ("s|t", "p|q|r~2")
    assert z.initials == {0} and z.finals == {1}
    # the pairs of two (eps, eps) self-loops are idle and skipped
    assert z.transitions == (Transition(0, "y", "x", 1),)
    _assert_well_formed(z)
