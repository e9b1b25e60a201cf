"""One SHA-256 over the engine's observable outputs, to show that a change
keeps them byte for byte.

    PYTHONPATH=src python tests/digest.py

Run it on two trees, each in its own process, and compare the lines.
With --lines it prints every hashed line instead, each after the name of
its digest, so that two trees' outputs can be diffed line by line:

    PYTHONPATH=src python tests/digest.py --lines > lines.txt

It hashes, per instance:

- the repr of analyze_deviation;
- threshold and exact at k in {0, 1, 2, 5, v - 1, v}, v the value when
  it is finite;
- compare on the deviation_to_comparison pair, in bounded mode and at the
  same k in threshold and exact mode (T_n only up to n = 12);
- for T_n, analyze_deviation under a budget of 1,000 configurations,
  whose StateBudgetExceeded message is hashed without its elapsed time.

The instances are the acceptance corpus, the seed 1-3 corpora of 500,
1,500 length-preserving draws (500 each over "a", "ab" and "abc", seed
99) and T_2..T_16.  The bounds of NOT_LENGTH_PRESERVING results get a
second digest of their own, so a change to them alone shows as such.

A third digest, `product`, hashes serialize_nft of comparison_to_deviation
on every deviation_to_comparison pair above, on 300 seeded
union(t1, t3) x t2 pairs of random_trimmed_nft draws and on the
colliding-name fixtures of test_producers.py.  A fourth, `bounded`,
hashes is_bounded of every instance, apart from `main` so that `main`
stays comparable with trees that did not hash it.  A fifth, `oracle`,
hashes brute_force_deviation at its default caps and a node budget of
20,000 on the corpora and T_2..T_8, so that a change to the reference
engine can be shown to keep its answers too.  A sixth, `zero-shift`,
hashes the repr of analyze_deviation, is_bounded, and threshold and exact
at the same k on the untrimmed draws of helpers.zero_shift_instances
(smax = 0 with dead states, which none of the instances above has), so
that the walk's own trim is covered.  A seventh, `walk`, hashes the repr
of analyze_deviation, and threshold and exact at k in {L, v - 1, v, v + 1,
U}, on seeded gen_3sat and gen_sat_unsat gadgets and on T_n with a missed
bridge (helpers.missed_family): the instances where the probe weighs L <
U and the configuration walk runs.  An eighth, `bracket`, hashes (L, U)
for every instance above with a bounded deviation and b > 0, T_n among
them, so that a change to the bound or the probe shows apart from the
witnesses in `main`.  A ninth, `search`, hashes the (p, run, i, j), or
None, of engine._nonconjugate_cycle on the trim of every length-preserving
instance among T_2..T_60, the seed 1-3 corpora, the products of the
benchmark's `compare` queries (seed 1) and 2,000 seeded
helpers.random_lone_loop_nft draws, so that a change to the search shows
apart from the verdicts it feeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import (  # noqa: E402
    engine_probe,
    make_corpus,
    missed_family,
    random_cnf,
    random_length_preserving_nft,
    random_lone_loop_nft,
    random_trimmed_nft,
    random_unsat_cnf,
    zero_shift_instances,
)
from test_acceptance import CORPUS_SEED  # noqa: E402
from test_producers import COLLIDING, COLLIDING_DEAD  # noqa: E402
from test_engine import _bench_workloads  # noqa: E402

from nftdev import (  # noqa: E402
    StateBudgetExceeded,
    Run,
    Verdict,
    analyze_deviation,
    brute_force_deviation,
    compare,
    comparison_to_deviation,
    deviation_to_comparison,
    exact,
    gen_3sat,
    gen_family,
    gen_sat_unsat,
    hamming_distance,
    is_bounded,
    parse_nft,
    run_words,
    serialize_nft,
    shift_assignment,
    threshold,
    trim,
    union,
)
from nftdev.engine import _components, _nonconjugate_cycle, _state_rows  # noqa: E402

BUDGET = 1000
COMPARE_MAX_STATES = 64  # compares T_n up to n = 12 (4n states)
UNION_PAIRS = 300
ORACLE_NODE_BUDGET = 20_000
ORACLE_MAX_FAMILY = 8  # the oracle runs on T_n up to n = 8


def instances():
    """(label, Nft) in a fixed order."""
    for seed in (CORPUS_SEED, 1, 2, 3):
        for i, t in enumerate(make_corpus(500, seed=seed)):
            yield f"corpus{seed}#{i}", t
    rng = random.Random(99)
    for alphabet in ("a", "ab", "abc"):
        for i in range(500):
            t = random_length_preserving_nft(rng, alphabet)
            if t is not None:
                yield f"lp-{alphabet}#{i}", t
    for n in range(2, 17):
        yield f"T{n}", gen_family(n).nft


def budget_message(e: StateBudgetExceeded) -> str:
    """The message without the seconds it reports, which vary by run."""
    return re.sub(r", \d+\.\d\d s elapsed", "", str(e))


def union_pairs():
    """(label, t1, t2) for UNION_PAIRS seeded union(t1, t3) x t2 products,
    which have several initial pairs, and for the colliding-name fixtures."""
    rng = random.Random(4243)
    i = 0
    while i < UNION_PAIRS:
        t1, t2, t3 = (random_trimmed_nft(rng) for _ in range(3))
        if t1 is not None and t2 is not None and t3 is not None:
            yield f"union#{i}", union(t1, t3), t2
            i += 1
    for label, texts in (("colliding", COLLIDING), ("colliding-dead", COLLIDING_DEAD)):
        yield label, *(parse_nft(text) for text in texts)


def product_lines(label: str, t1, t2) -> list[str]:
    return [label, serialize_nft(comparison_to_deviation(t1, t2))]


def question_ks(res) -> list[int]:
    """The k at which threshold and exact are hashed: 0, 1, 2, 5, and v - 1
    and v when the value v is finite."""
    ks = {0, 1, 2, 5}
    if res.verdict is Verdict.BOUNDED:
        ks |= {res.value - 1, res.value}
    return sorted(k for k in ks if k >= 0)


def zero_shift_lines(label: str, t) -> list[str]:
    res = analyze_deviation(t)
    lines = [label, repr(res), f"bounded {is_bounded(t)}"]
    lines += [f"threshold {k} {threshold(t, k)} exact {exact(t, k)}" for k in question_ks(res)]
    return lines


def walk_instances():
    """(label, Nft) for the walk digest, in a fixed order: 3-SAT gadgets
    of 40 seeded formulas, 20 of them unsatisfiable, SAT-UNSAT gadgets of
    20 pairs of them, and T_n with a missed bridge for n = 2..14."""
    rng = random.Random(3131)
    formulas = [random_cnf(rng, 4, 6) for _ in range(20)]
    formulas += [random_unsat_cnf(rng, 4, 6) for _ in range(20)]
    for i, f in enumerate(formulas):
        yield f"3sat#{i}", gen_3sat(f).nft
    for i in range(20):
        yield f"satunsat#{i}", gen_sat_unsat(formulas[i], formulas[20 + i]).nft
    for n in range(2, 15):
        yield f"missed{n}", missed_family(n)


def bracket(t) -> tuple[int, int]:
    """(L, U) for t with a finite deviation and b > 0: the weight of the
    engine's probe and its upper bound."""
    trimmed = trim(t)
    rows = _state_rows(trimmed)
    shift, _ = shift_assignment(trimmed)
    upper, _, probe = engine_probe(trimmed, rows, shift)
    return hamming_distance(*run_words(trimmed, Run(tuple(probe)))), upper


def search_instances():
    """(label, Nft) for the search digest, in a fixed order."""
    for n in range(2, 61):
        yield f"T{n}", gen_family(n).nft
    for seed in (1, 2, 3):
        for i, t in enumerate(make_corpus(500, seed=seed)):
            yield f"corpus{seed}#{i}", t
    for q in _bench_workloads().build_compare(1):
        yield f"compare {q.label}", comparison_to_deviation(*map(parse_nft, q.texts))
    rng = random.Random(3535)
    for i in range(2000):
        yield f"loop#{i}", random_lone_loop_nft(rng)[0]


def search_lines(label: str, t) -> list[str]:
    """_nonconjugate_cycle's (p, run, i, j), or None, on trim(t) when it is
    non-empty and length-preserving; no line otherwise."""
    t = trim(t)
    if t.num_states == 0:
        return []
    shift, unbalanced = shift_assignment(t)
    if unbalanced is not None:
        return []
    rows = _state_rows(t)
    comp, _ = _components(rows, range(t.num_states))
    return [f"{label} {_nonconjugate_cycle(t, rows, shift, comp)!r}"]


def walk_lines(label: str, t) -> list[str]:
    """analyze_deviation's repr, and threshold and exact at L, v - 1, v,
    v + 1 and U, (L, U) being the probe's weight and the engine's upper
    bound, where the deviation is finite with b > 0; elsewhere at
    question_ks."""
    res = analyze_deviation(t)
    ks = question_ks(res)
    if res.verdict is Verdict.BOUNDED and res.bounds.b > 0:
        lower, upper = bracket(t)
        ks = sorted(k for k in {lower, res.value - 1, res.value, res.value + 1, upper} if k >= 0)
    lines = [label, repr(res)]
    lines += [f"threshold {k} {threshold(t, k)} exact {exact(t, k)}" for k in ks]
    return lines


def outputs(label: str, t):
    """The strings hashed for one instance: (main, nlp_bounds, product,
    bounded, oracle, bracket)."""
    main, nlp, product = [label], [], []
    res = analyze_deviation(t)
    if res.verdict is Verdict.NOT_LENGTH_PRESERVING:
        nlp.append(repr(res.bounds))
        main.append(repr(dataclasses.replace(res, bounds=None)))
    else:
        main.append(repr(res))
    ks = question_ks(res)
    for k in ks:
        main.append(f"threshold {k} {threshold(t, k)} exact {exact(t, k)}")
    if not label.startswith("T") or t.num_states <= COMPARE_MAX_STATES:
        t1, t2 = deviation_to_comparison(t)
        product = product_lines(label, t1, t2)
        main.append(f"compare bounded {compare(t1, t2, 'bounded')}")
        for k in ks:
            main.append(
                f"compare {k} {compare(t1, t2, 'threshold', k)} {compare(t1, t2, 'exact', k)}"
            )
    if label.startswith("T"):
        try:
            main.append(repr(analyze_deviation(t, max_configs=BUDGET)))
        except StateBudgetExceeded as e:
            main.append(budget_message(e))
    oracle = []
    if label.startswith("corpus") or label.startswith("T") and int(label[1:]) <= ORACLE_MAX_FAMILY:
        oracle.append(f"{label} {brute_force_deviation(t, node_budget=ORACLE_NODE_BUDGET)!r}")
    brackets = []
    if res.verdict is Verdict.BOUNDED and res.bounds.b > 0:
        brackets.append("{} L={} U={}".format(label, *bracket(t)))
    return main, nlp, product, [f"{label} {is_bounded(t)}"], oracle, brackets


def main() -> None:
    parser = argparse.ArgumentParser(description="Digest the engine's observable outputs.")
    parser.add_argument(
        "--lines", action="store_true", help="print every hashed line instead of the digests"
    )
    show = parser.parse_args().lines
    names = (
        "main", "nlp-bounds", "product", "bounded", "oracle", "bracket", "zero-shift", "walk",
        "search",
    )
    digests = {name: hashlib.sha256() for name in names}
    counts = dict.fromkeys(digests, 0)

    def add(name, lines):
        for line in lines:
            digests[name].update(line.encode() + b"\n")
            if show:
                print(name, line)
        counts[name] += len(lines)

    for label, t in instances():
        for name, lines in zip(digests, outputs(label, t)):
            add(name, lines)
    for label, t1, t2 in union_pairs():
        add("product", product_lines(label, t1, t2))
    for i, t in enumerate(zero_shift_instances()):
        if trim(t) != t:
            add("zero-shift", zero_shift_lines(f"zero#{i}", t))
    for label, t in walk_instances():
        add("walk", walk_lines(label, t))
    for label, t in search_instances():
        add("search", search_lines(label, t))
    if not show:
        for name, h in digests.items():
            print(f"{name} {h.hexdigest()} ({counts[name]} lines)")


if __name__ == "__main__":
    main()
