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
that the walk's own trim is covered.
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
    make_corpus,
    random_length_preserving_nft,
    random_trimmed_nft,
    zero_shift_instances,
)
from test_acceptance import CORPUS_SEED  # noqa: E402
from test_producers import COLLIDING, COLLIDING_DEAD  # noqa: E402

from nftdev import (  # noqa: E402
    StateBudgetExceeded,
    Verdict,
    analyze_deviation,
    brute_force_deviation,
    compare,
    comparison_to_deviation,
    deviation_to_comparison,
    exact,
    gen_family,
    is_bounded,
    parse_nft,
    serialize_nft,
    threshold,
    trim,
    union,
)

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


def outputs(label: str, t):
    """The strings hashed for one instance: (main, nlp_bounds, product,
    bounded, oracle)."""
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
    return main, nlp, product, [f"{label} {is_bounded(t)}"], oracle


def main() -> None:
    parser = argparse.ArgumentParser(description="Digest the engine's observable outputs.")
    parser.add_argument(
        "--lines", action="store_true", help="print every hashed line instead of the digests"
    )
    show = parser.parse_args().lines
    names = ("main", "nlp-bounds", "product", "bounded", "oracle", "zero-shift")
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
    if not show:
        for name, h in digests.items():
            print(f"{name} {h.hexdigest()} ({counts[name]} lines)")


if __name__ == "__main__":
    main()
