"""The four benchmark workloads, built from a seed.

Each builder returns the query list of one pass.  A query holds only NFT
text for the package to parse, the decision to ask, and the answer
expected from ground truth computed outside the engine: the generators'
closed forms, ``reachable``, ``sat_brute_force`` and an unsaturated
``brute_force_deviation``.  The same seed always gives the same queries.
Instance sizes are fixed per slot; the seed varies only their content
(clauses, edges, transitions), so pass times stay comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import nftdev

# Each query is one sample; a full-size query list holds at least this
# many, so that the 90th percentile has at least ten samples beyond it.
MIN_QUERIES = 100


@dataclass(frozen=True)
class Expect:
    """An analyze answer: the verdict and, when bounded, the value."""

    verdict: str
    value: int | None = None


@dataclass(frozen=True)
class Query:
    label: str
    op: str  # analyze | bounded | threshold | exact | compare
    texts: tuple[str, ...]  # one NFT, or two for compare
    expected: object  # bool, or Expect for analyze
    k: int | None = None
    mode: str | None = None  # compare mode
    nft: object = None  # the generated Nft, for witness re-verification


# ---------------------------------------------------------------- family


def build_family(seed: int, tiny: bool = False) -> list[Query]:
    """T_n for n = 4..16 with four queries each, the ladder listed twice to
    reach MIN_QUERIES; the seed is unused."""
    queries = []
    for n in list(range(4, 7 if tiny else 17)) * (1 if tiny else 2):
        inst = nftdev.gen_family(n)
        text = nftdev.serialize_nft(inst.nft)
        dev = inst.expected.deviation
        if dev != n * (n + 1) // 2:
            raise RuntimeError(f"family{n}: generator gives deviation {dev}")
        name = f"family{n}#{len(queries) // 4}"
        queries += [
            Query(f"{name}/analyze", "analyze", (text,), Expect("bounded", dev), nft=inst.nft),
            Query(f"{name}/bounded", "bounded", (text,), True),
            Query(f"{name}/threshold", "threshold", (text,), False, k=dev - 1),
            Query(f"{name}/exact", "exact", (text,), True, k=dev),
        ]
    return queries


# ------------------------------------------------------------------- sat


def random_cnf(rng: random.Random, n: int, m: int, want_sat: bool):
    """A random 3-CNF with n variables and m clauses whose satisfiability,
    decided by ``sat_brute_force``, is ``want_sat``.  Clauses use three
    distinct variables when n >= 3."""
    for _ in range(20000):
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3) if n >= 3 else [rng.randint(1, n) for _ in range(3)]
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        f = nftdev.CnfFormula(num_vars=n, clauses=tuple(clauses))
        if (nftdev.sat_brute_force(f) is not None) == want_sat:
            return f
    raise RuntimeError(f"no {'satisfiable' if want_sat else 'unsatisfiable'} formula n={n} m={m}")


# (n, m, slots): half the slots satisfiable where the clause ratio allows
# both answers; the two largest sizes are satisfiable only.  The counts put
# the median query inside the n = 4 group rather than between two groups.
_SAT3_SLOTS = [(3, 13, 20), (4, 17, 36), (5, 21, 14), (6, 26, 10), (7, 16, 8), (8, 18, 4)]
_SAT3_TINY = [(3, 13, 2), (4, 17, 2)]
# (n1, m1, sat1, n2, m2, sat2): the exact answer is TRUE iff sat1 and not sat2.
_SATUNSAT_SLOTS = [
    (2, 3, True, 2, 5, False),
    (2, 3, True, 2, 4, True),
    (2, 6, False, 2, 5, False),
    (2, 4, True, 2, 6, False),
    (3, 3, True, 2, 5, True),
    (3, 4, True, 2, 6, False),
    (2, 6, False, 2, 6, True),
    (3, 5, True, 2, 6, False),
    (3, 6, True, 2, 7, True),
    (3, 6, True, 2, 7, False),
    (4, 5, True, 2, 6, False),
    (3, 8, True, 3, 10, False),
    (4, 6, True, 3, 10, True),
    (4, 8, True, 3, 10, False),
]
_SATUNSAT_TINY = [(2, 3, True, 2, 5, False), (2, 6, False, 2, 4, True)]


def build_sat(seed: int, tiny: bool = False) -> list[Query]:
    """Seeded 3-SAT gadgets (threshold at k = n(m+1) - 1) and SAT-UNSAT
    gadgets (exact at k1*k2 + k2 - 1)."""
    rng = random.Random(f"sat:{seed}")
    queries = []
    for n, m, slots in _SAT3_TINY if tiny else _SAT3_SLOTS:
        mixed = n <= 6
        for i in range(slots):
            want = (i % 2 == 0) or not mixed
            inst = nftdev.gen_3sat(random_cnf(rng, n, m, want))
            k = n * (m + 1) - 1
            if inst.expected.threshold_k != k:
                raise RuntimeError(f"3sat n={n} m={m}: generator threshold differs from {k}")
            text = nftdev.serialize_nft(inst.nft)
            queries.append(Query(f"3sat_n{n}m{m}#{i}", "threshold", (text,),
                                 inst.expected.threshold_answer, k=k))
    for i, (n1, m1, s1, n2, m2, s2) in enumerate(_SATUNSAT_TINY if tiny else _SATUNSAT_SLOTS):
        f1 = random_cnf(rng, n1, m1, s1)
        f2 = random_cnf(rng, n2, m2, s2)
        inst = nftdev.gen_sat_unsat(f1, f2)
        text = nftdev.serialize_nft(inst.nft)
        queries.append(Query(f"satunsat#{i}/{inst.nft.num_states}", "exact", (text,),
                             inst.expected.exact_answer, k=inst.expected.exact_k))
    return queries


# ----------------------------------------------------------------- reach


def random_reach_graph(rng: random.Random, vertices: int, want_path: bool):
    """A sparse digraph with 2 edges per vertex, s a vertex that reaches
    some but not all others, and t chosen on the requested side."""
    draw = rng.random
    edges = []
    while len(edges) < 2 * vertices:
        u, v = int(draw() * vertices), int(draw() * vertices)
        if u != v:
            edges.append((u, v))
    adj: list[list[int]] = [[] for _ in range(vertices)]
    for u, v in edges:
        adj[u].append(v)
    for _ in range(100):
        s = rng.randrange(vertices)
        seen = {s}
        stack = [s]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        side = sorted(seen - {s}) if want_path else sorted(set(range(vertices)) - seen)
        if side:
            return nftdev.Digraph(vertices, tuple(edges), s, rng.choice(side))
    raise RuntimeError("no suitable source vertex")


def build_reach(seed: int, tiny: bool = False) -> list[Query]:
    """Per graph: a reach gadget queried with bounded and analyze, and a
    reach-k gadget queried with threshold; half the graphs have a path."""
    rng = random.Random(f"reach:{seed}")
    count, low, high = (4, 20, 60) if tiny else (34, 1000, 4000)
    queries = []
    for i in range(count):
        vertices = low + (high - low) * i // (count - 1)
        path = i % 2 == 0
        g = random_reach_graph(rng, vertices, path)
        bounded = nftdev.gen_reach_bounded(g)
        text = nftdev.serialize_nft(bounded.nft)
        k = 1 + i % 3
        reach_k = nftdev.gen_reach_threshold(g, k)
        name = f"reach{vertices}#{i}"
        if bounded.expected.bounded == path:
            raise RuntimeError(f"{name}: generator and graph disagree on reachability")
        analyze = Expect("unbounded") if path else Expect("bounded", 1)
        queries += [
            Query(f"{name}/bounded", "bounded", (text,), bounded.expected.bounded),
            Query(f"{name}/analyze", "analyze", (text,), analyze, nft=bounded.nft),
            Query(f"{name}/threshold", "threshold", (nftdev.serialize_nft(reach_k.nft),),
                  reach_k.expected.threshold_answer, k=k),
        ]
    return queries


# --------------------------------------------------------------- compare

# word pairs with |u| + |v| <= 2, weighted toward length-preserving shapes
_WORD_PAIRS = (
    [("a", "a")] * 10 + [("b", "b")] * 10 + [("a", "b")] * 3 + [("b", "a")] * 3
    + [("a", ""), ("b", ""), ("", "a"), ("", "b"), ("aa", ""), ("", "bb"), ("ab", "")]
    + [("", "ba"), ("", "")]
)


def random_nft(rng: random.Random, nq: int, ntrans: int):
    transitions = []
    for _ in range(ntrans):
        u, v = rng.choice(_WORD_PAIRS)
        transitions.append(nftdev.Transition(rng.randrange(nq), u, v, rng.randrange(nq)))
    finals = {rng.randrange(nq)}
    if rng.random() < 0.3:
        finals.add(rng.randrange(nq))
    return nftdev.Nft(
        states=tuple(f"s{i}" for i in range(nq)),
        alphabet=frozenset("ab"),
        initials=frozenset({rng.randrange(nq)}),
        finals=frozenset(finals),
        transitions=tuple(transitions),
        name="rand",
    )


# Caps for the setup-time oracle; a saturated result is discarded.
_ORACLE_NODE_BUDGET = 5_000
_COMPARE_SAT3 = [(3, 12, 16), (4, 16, 16), (5, 12, 8)]  # (n, m, slots), as in sat
_COMPARE_SAT3_TINY = [(3, 12, 2)]


def _random_pair_query(i: int, t, dev) -> Query:
    """One comparison query for a random NFT of known deviation."""
    t1, t2 = nftdev.deviation_to_comparison(t)
    texts = (nftdev.serialize_nft(t1), nftdev.serialize_nft(t2))
    label = f"random#{i}"
    if dev == nftdev.INF:
        mode, k, answer = [
            ("bounded", None, False), ("threshold", 1, False), ("exact", 0, False)
        ][i % 3]
    else:
        mode, k, answer = [
            ("threshold", dev, True),
            ("threshold", max(dev - 1, 0), dev == 0),
            ("exact", dev, True),
            ("exact", dev + 1, False),
            ("bounded", None, True),
        ][i % 5]
    return Query(f"{label}/{mode}", "compare", texts, answer, k=k, mode=mode)


def build_compare(seed: int, tiny: bool = False) -> list[Query]:
    """Comparison queries in threshold, exact and bounded modes.  Random
    draws whose oracle result was cut by a cap are discarded."""
    rng = random.Random(f"compare:{seed}")
    queries = []
    for n in range(4, 6 if tiny else 12):
        inst = nftdev.gen_family(n)
        t1, t2 = nftdev.deviation_to_comparison(inst.nft)
        texts = (nftdev.serialize_nft(t1), nftdev.serialize_nft(t2))
        dev = inst.expected.deviation
        queries += [
            Query(f"family{n}/threshold", "compare", texts, False, k=dev - 1, mode="threshold"),
            Query(f"family{n}/exact", "compare", texts, True, k=dev, mode="exact"),
            Query(f"family{n}/bounded", "compare", texts, True, mode="bounded"),
        ]
    for n, m, slots in _COMPARE_SAT3_TINY if tiny else _COMPARE_SAT3:
        mixed = n <= 4
        for i in range(slots):
            want = (i % 2 == 0) or not mixed
            inst = nftdev.gen_3sat(random_cnf(rng, n, m, want))
            t1, t2 = nftdev.deviation_to_comparison(inst.nft)
            texts = (nftdev.serialize_nft(t1), nftdev.serialize_nft(t2))
            full = n * (m + 1)
            mode, k, answer = [
                ("threshold", full - 1, inst.expected.threshold_answer),
                ("exact", full, want),
                ("bounded", None, True),
            ][i % 3]
            queries.append(
                Query(f"3sat_n{n}m{m}#{i}/{mode}", "compare", texts, answer, k=k, mode=mode))
    for i in range(6 if tiny else 36):
        while True:  # slot i has 2 to 5 states and 3 to 8 transitions
            t = random_nft(rng, 2 + i % 4, 3 + i % 6)
            res = nftdev.brute_force_deviation(t, node_budget=_ORACLE_NODE_BUDGET)
            if not res.saturated:
                break
        queries.append(_random_pair_query(i, t, res.max_seen))
    return queries


BUILDERS = {
    "family": build_family,
    "sat": build_sat,
    "reach": build_reach,
    "compare": build_compare,
}
