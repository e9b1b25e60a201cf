"""Hardness-instance generators with independently computed ground truth.

Each generator returns a GadgetInstance: the transducer plus the expected
analysis answer, computed from the source object by direct means (graph
search, 2^n satisfiability enumeration, closed forms), never by the
deviation engine itself.  The instances realize the classic reductions:
graph reachability into (threshold-)boundedness, 3-SAT into a threshold
query, SAT-UNSAT into an exact-deviation query, plus the quadratic
deviation family.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

from .core import CnfFormula, Digraph, Nft, Transition
from .oracle import sat_brute_force
from .transform import concat, union


def reachable(g: Digraph) -> bool:
    """True iff t is reachable from s (the empty path counts)."""
    if g.s == g.t:
        return True
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
    seen = {g.s}
    queue = deque([g.s])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v == g.t:
                return True
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False


@dataclass(frozen=True)
class GroundTruth:
    """Expected analysis answers, recomputable from generator parameters."""

    bounded: bool | None = None
    deviation: int | None = None
    threshold_k: int | None = None
    threshold_answer: bool | None = None
    exact_k: int | None = None
    exact_answer: bool | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class GadgetInstance:
    nft: Nft
    expected: GroundTruth
    provenance: str


def gen_family(n: int) -> GadgetInstance:
    """The quadratic-deviation family T_n: 2n states, 3n-1 transitions,
    smax = 1 and deviation exactly n(n+1)/2.

    State p_i copies the letter c_i = i mod 2 any number of times, then
    consumes one more c_i silently when advancing; the bridge flips the
    last letter and the q-chain pads the output with n copies of the
    flipped letter.  Reading c1^(k1+1)...cn^(kn+1) therefore outputs
    c1^k1...cn^kn followed by the n-letter pad, and choosing k_i = i - 1
    makes every position mismatch.
    """
    if n < 2:
        raise ValueError("family size must be at least 2")

    def c(i: int) -> str:
        return str(i % 2)

    flipped = str((n + 1) % 2)
    states = tuple(f"p{i}" for i in range(1, n + 1)) + tuple(f"q{i}" for i in range(1, n + 1))
    p = {i: i - 1 for i in range(1, n + 1)}
    q = {i: n + i - 1 for i in range(1, n + 1)}
    transitions = [Transition(p[i], c(i), c(i), p[i]) for i in range(1, n + 1)]
    transitions += [Transition(p[i], c(i), "", p[i + 1]) for i in range(1, n)]
    transitions.append(Transition(p[n], c(n), flipped, q[1]))
    transitions += [Transition(q[j], "", flipped, q[j + 1]) for j in range(1, n)]
    nft = Nft._trusted(
        states,
        frozenset("01"),
        frozenset({p[1]}),
        frozenset({q[n]}),
        tuple(transitions),
        f"family{n}",
    )
    dev = n * (n + 1) // 2
    expected = GroundTruth(bounded=True, deviation=dev, exact_k=dev, exact_answer=True)
    return GadgetInstance(nft=nft, expected=expected, provenance=f"family(n={n})")


def _reach_nft(g: Digraph, extra: list[Transition], name: str) -> Nft:
    """The graph embedded with (a, a) transitions, then `extra`: qi enters
    every vertex, every vertex exits to qf, and each edge is a transition.
    State 0 is qi, vertex v is state v + 1 and qf is state |V| + 1."""
    n = g.vertex_count
    # one int object per state id, shared by every transition that holds it
    vid = list(range(1, n + 2))
    qf = vid[n]
    transitions = [Transition(0, "a", "a", vid[v]) for v in range(n)]
    transitions += [Transition(vid[v], "a", "a", qf) for v in range(n)]
    transitions += [Transition(vid[u], "a", "a", vid[v]) for u, v in g.edges]
    states = ("qi",) + tuple(f"v{i}" for i in range(n)) + ("qf",)
    return Nft._trusted(
        states, frozenset("ab"), frozenset({0}), frozenset({qf}), tuple(transitions + extra), name
    )


def gen_reach_bounded(g: Digraph) -> GadgetInstance:
    """Reachability into boundedness: the graph is embedded with (a, a)
    transitions, and a single mismatching transition from t back to s
    closes a pumpable cycle exactly when an s->t path exists."""
    extra = [Transition(g.t + 1, "a", "b", g.s + 1)]
    nft = _reach_nft(g, extra, f"reach{g.vertex_count}")
    path = reachable(g)
    expected = GroundTruth(bounded=not path, deviation=None if path else 1)
    prov = f"reach_bounded(|V|={g.vertex_count}, |E|={len(g.edges)}, s={g.s}, t={g.t})"
    return GadgetInstance(nft=nft, expected=expected, provenance=prov)


def gen_reach_threshold(g: Digraph, k: int) -> GadgetInstance:
    """Reachability into a fixed threshold: an a^k/b^k entry transition
    always yields k mismatches, and one extra mismatch before the final
    state is collectable exactly when an s->t path exists (deviation k+1
    versus k)."""
    if k < 1:
        raise ValueError("threshold parameter must be at least 1")
    extra = [
        Transition(0, "a" * k, "b" * k, g.s + 1),
        Transition(g.t + 1, "a", "b", g.vertex_count + 1),
    ]
    nft = _reach_nft(g, extra, f"reachk{g.vertex_count}")
    path = reachable(g)
    expected = GroundTruth(
        bounded=True,
        deviation=k + 1 if path else k,
        threshold_k=k,
        threshold_answer=not path,
        exact_k=k + 1,
        exact_answer=path,
    )
    prov = f"reach_threshold(|V|={g.vertex_count}, |E|={len(g.edges)}, s={g.s}, t={g.t}, k={k})"
    return GadgetInstance(nft=nft, expected=expected, provenance=prov)


def _flip(b: str) -> str:
    return "1" if b == "0" else "0"


def _bit_chain(n: int, reads: bool) -> Nft:
    """n free bits in a row: the final gadget reads each bit, (b, eps), and
    the init gadget writes it, (eps, b)."""
    prefix, name = ("f", "final") if reads else ("i", "init")
    words = [(b, "") if reads else ("", b) for b in "01"]
    transitions = tuple(Transition(j, x, y, j + 1) for j in range(n) for x, y in words)
    states = tuple(f"{prefix}{j}" for j in range(n + 1))
    return Nft._trusted(states, frozenset("01"), frozenset({0}), frozenset({n}), transitions, name)


def _clause_gadget(i: int, n: int, clause: tuple[int, int, int]) -> Nft:
    """Reads an n-bit valuation, writes its bitwise negation, and accepts
    exactly when the valuation satisfies the clause: the only way from the
    bottom row of states to the top row is a transition triggered by a
    literal of the clause."""
    # the bottom row is states 0..n, the top row n+1..2n+1
    top = {j: n + 1 + j for j in range(n + 1)}
    states = tuple(f"c{i}b{j}" for j in range(n + 1)) + tuple(f"c{i}t{j}" for j in range(n + 1))
    transitions = [
        Transition(top[j], b, _flip(b), top[j + 1]) for j in range(n) for b in "01"
    ]
    transitions += [Transition(j, b, _flip(b), j + 1) for j in range(n) for b in "01"]
    # a literal fixes its variable and its sign: each distinct one, in clause order
    for lit in dict.fromkeys(clause):
        var = abs(lit)
        if lit > 0:
            transitions.append(Transition(var - 1, "1", "0", top[var]))
        else:
            transitions.append(Transition(var - 1, "0", "1", top[var]))
    return Nft._trusted(
        states,
        frozenset("01"),
        frozenset({0}),
        frozenset({top[n]}),
        tuple(transitions),
        f"clause{i}",
    )


def gen_3sat(f: CnfFormula) -> GadgetInstance:
    """3-SAT into the threshold problem with k = n(m+1) - 1.

    The chain init . clause_1 ... clause_m . final forces every accepted
    pair to interleave m+1 valuation blocks against the negations of
    their predecessors; all n(m+1) positions can mismatch exactly when a
    single valuation satisfies every clause.  The construction is emitted
    unmodified (untrimmed), with (2n+1)(m+1) states.
    """
    n = f.num_vars
    m = f.num_clauses
    nft = _bit_chain(n, reads=False)
    for i, clause in enumerate(f.clauses, start=1):
        nft = concat(nft, _clause_gadget(i, n, clause))
    nft = concat(nft, _bit_chain(n, reads=True))._with(name=f"sat3_n{n}m{m}")
    if nft.num_states != (2 * n + 1) * (m + 1):
        raise AssertionError("3-SAT gadget has the wrong number of states")
    sat = sat_brute_force(f) is not None
    k = n * (m + 1) - 1
    expected = GroundTruth(
        bounded=True,
        deviation=n * (m + 1) if sat else None,
        threshold_k=k,
        threshold_answer=not sat,
    )
    return GadgetInstance(nft=nft, expected=expected, provenance=f"gen_3sat({f})")


def gen_sat_unsat(f1: CnfFormula, f2: CnfFormula) -> GadgetInstance:
    """SAT-UNSAT into the exact problem.

    With k_i = n_i(m_i + 1) (the deviation of the 3-SAT gadget when the
    formula is satisfiable), the transducer k2-copies of T(f1), followed
    by the choice between T(f2) and a fixed pair at distance k2 - 1, has
    deviation exactly k1 k2 + k2 - 1 iff f1 is satisfiable and f2 is not:
    the padding branch pins the second summand to k2 - 1 from below, and
    a satisfiable f2 overshoots it to k2.
    """
    g1 = gen_3sat(f1)
    g2 = gen_3sat(f2)
    k1 = f1.num_vars * (f1.num_clauses + 1)
    k2 = f2.num_vars * (f2.num_clauses + 1)
    repeated = g1.nft
    for _ in range(k2 - 1):
        repeated = concat(repeated, g1.nft)
    pad = Nft._trusted(
        ("z0", "z1"),
        frozenset("01"),
        frozenset({0}),
        frozenset({1}),
        (Transition(0, "0" * (k2 - 1), "1" * (k2 - 1), 1),),
        "pad",
    )
    nft = concat(repeated, union(g2.nft, pad))._with(
        name=f"satunsat_{f1.num_vars}v{f1.num_clauses}c_{f2.num_vars}v{f2.num_clauses}c"
    )
    # a 3-SAT gadget's threshold answer is FALSE exactly when its formula is satisfiable
    sat1 = not g1.expected.threshold_answer
    sat2 = not g2.expected.threshold_answer
    target = k1 * k2 + k2 - 1
    if sat1:
        deviation = target if not sat2 else k1 * k2 + k2
    else:
        deviation = None
    expected = GroundTruth(
        bounded=True,
        deviation=deviation,
        exact_k=target,
        exact_answer=sat1 and not sat2,
    )
    prov = f"gen_sat_unsat({f1}, {f2})"
    return GadgetInstance(nft=nft, expected=expected, provenance=prov)
