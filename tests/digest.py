"""One SHA-256 over the engine's observable outputs, to show that a change
keeps them byte for byte.

    PYTHONPATH=src python tests/digest.py

Run it on two trees, each in its own process, and compare the lines.  It
hashes, per instance:

- the repr of analyze_deviation;
- threshold and exact at k in {0, 1, 2, 5, v - 1, v}, v the value when
  it is finite;
- compare on the deviation_to_comparison pair, in bounded mode and at the
  same k in threshold and exact mode (T_n only up to n = 12);
- for T_n, analyze_deviation under a budget of 1,000 configurations,
  whose StateBudgetExceeded message is hashed up to its elapsed time.

The instances are the acceptance corpus, the seed 1-3 corpora of 500,
1,500 length-preserving draws (500 each over "a", "ab" and "abc", seed
99) and T_2..T_16.  The bounds of NOT_LENGTH_PRESERVING results get a
second digest of their own, so a change to them alone shows as such.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import make_corpus, random_length_preserving_nft  # noqa: E402
from test_acceptance import CORPUS_SEED  # noqa: E402

from nftdev import (  # noqa: E402
    StateBudgetExceeded,
    Verdict,
    analyze_deviation,
    compare,
    deviation_to_comparison,
    exact,
    gen_family,
    threshold,
)

BUDGET = 1000
COMPARE_MAX_STATES = 64  # compares T_n up to n = 12 (4n states)


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
    """The message up to the seconds it reports, which vary by run."""
    return str(e).rpartition(",")[0]


def outputs(label: str, t):
    """The strings hashed for one instance: (main, nlp_bounds)."""
    main, nlp = [label], []
    res = analyze_deviation(t)
    if res.verdict is Verdict.NOT_LENGTH_PRESERVING:
        nlp.append(repr(res.bounds))
        main.append(repr(dataclasses.replace(res, bounds=None)))
    else:
        main.append(repr(res))
    ks = {0, 1, 2, 5}
    if res.verdict is Verdict.BOUNDED:
        ks |= {res.value - 1, res.value}
    ks = sorted(k for k in ks if k >= 0)
    for k in ks:
        main.append(f"threshold {k} {threshold(t, k)} exact {exact(t, k)}")
    if not label.startswith("T") or t.num_states <= COMPARE_MAX_STATES:
        t1, t2 = deviation_to_comparison(t)
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
    return main, nlp


def main() -> None:
    digests = {"main": hashlib.sha256(), "nlp-bounds": hashlib.sha256()}
    counts = dict.fromkeys(digests, 0)
    for label, t in instances():
        for name, lines in zip(digests, outputs(label, t)):
            for line in lines:
                digests[name].update(line.encode() + b"\n")
            counts[name] += len(lines)
    for name, h in digests.items():
        print(f"{name} {h.hexdigest()} ({counts[name]} lines)")


if __name__ == "__main__":
    main()
