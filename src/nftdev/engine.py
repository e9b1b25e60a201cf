"""Deterministic deviation analysis.

The engine decides, for an NFT, whether the Hamming distance between
input and output is unbounded over the accepted pairs, and computes the
exact supremum when it is finite:

1. trim (at smax = 0 the walk does it; see below, and reductions.compare
   says its product is trim already); an empty result means the relation
   is empty (deviation 0);
2. propagate the shift potential s_p from the initial states; where two
   initial runs disagree on a state's shift, or a final state's is not 0,
   the propagation returns an accepting run with |u| != |v|, the witness
   that the transducer is not length-preserving (deviation INF);
3. otherwise consider the alignment-configuration graph.  A configuration
   is a state q with the buffer of unmatched letters (the lag); the lag
   holds |s_q| letters, of the input when s_q > 0 and of the output when
   s_q < 0, so (q, lag) determines it.  Edges carry the number of freshly
   compared mismatching positions.  Every reachable configuration is also
   co-reachable: each transition of the trimmed transducer applies to
   every configuration at its source state, every state reaches a final
   state, and s_f = 0 empties the lag there.  So a positive-weight edge
   on any cycle can be pumped, and the deviation is INF; otherwise every
   cycle weighs 0 and the deviation is the maximum edge-weight sum over
   paths from an initial to an accepting configuration.  Configurations
   sit at kept states only (see below).

When smax = 0 (so b = 0) every shift is 0, step 2 has nothing to find,
every lag is empty and the configuration graph is the state graph itself,
walked directly and untrimmed, from the initial states with the final
ones as accepts: the walk does the trim.  A component that reaches no
final state is dead and the walk skips the edges into it; a dead state
reaches no live one, so the live part of the walk (its order, values and
tie-breaks, and the shortest paths of the witnesses) is the walk of
trim(t), whose ids keep t's order, and every answer is trim(t)'s in t's
ids.  A positive edge inside a live component closes into a pumpable
cycle.  Trim is then needed only at smax > 0, where the shift potential
needs it (trim(t) has smax = 0 whenever t does).  That walk is linear in
the transducer, so no budget applies to it.  The state graph's rows
(_state_rows, built in one pass over the transitions) are the engine's
one adjacency: the shift potential, the components and the shortest
paths read them too.  Their edges carry mismatch weights only at
smax = 0, the one place the weights are read.

When b > 0 the INF verdict needs no configuration graph: a
length-preserving transducer has finite deviation exactly when no cycle
breaks conjugacy by its anchor's shift, which _nonconjugate_cycle decides
in polynomial time by one breadth-first search over (state, phase) pairs
inside the strongly connected components of the state graph, a phase
being idle, a confirmed mismatch, or one letter waiting on the other
stream for its partner; a scan of the closed cycle's words then finds
the positions.  Every question runs it first and takes UNBOUNDED from
its cycle; analyze_deviation adds shortest state-graph paths as prefix
and suffix, and the other questions, which answer False, build none.

A fusable state is neither initial nor final and has one outgoing
transition; the others are kept.  An edge of the graph is a chain, a
transition from a kept state followed through fusable states to the next
kept state, and the chains are exactly the runs between kept states
(_configurations).  On T_n the pad chain q_1..q_{n-1} goes, a third of
the configurations.  Every run the walk finds is unfolded to the trimmed
transitions before it is checked and mapped back to the original ids.

The graph is walked once, by Tarjan's algorithm run on the fly (_walk):
a configuration is expanded when the depth-first walk first enters it,
and each strongly connected component is decided and valued as it pops,
from the final values of the components it leads to, which pop first.
The node being scanned lives in locals and each tree edge of the DFS
path is one saved frame.  Edge rows are kept only for nodes on that path
and in multi-node components; a popped node keeps ints only: its
component id, its value and, at the member its component leaves by, the
leaving edge.

The four public questions take one route, _analyze.  analyze_deviation
asks for the whole result; is_bounded, threshold and exact ask whether
the deviation lies in [lo, hi], namely [0, INF], [0, k] and [k, k], and
get the answer as soon as it is known.  A verdict other than BOUNDED
answers from the value 0 (EMPTY) or False.  When b > 0, is_bounded
answers from the search alone, so it walks at most the state graph, at
smax = 0, and needs no budget.  Every other question first takes, from
the state graph's condensation, an upper bound U and a probe, an
accepting run along the path U maximises, of weight L (_upper_bound;
L = U = v on T_n).  A finite deviation lies in [L, U]:
  - lo > U (exact at k > U) answers False at once;
  - lo = 0 and U <= hi (threshold at k >= U) answers from the search
    alone, True when it finds the deviation finite;
  - otherwise L > hi answers False before the search, since that run
    refutes [lo, hi] whether or not the deviation is finite, and once
    the search finds it finite, L = U answers BOUNDED with value U and
    the probe as witness,
all with no configuration walked.  Otherwise the walk stops at the first
component whose root's tree path and value together weigh more than the
limit, hi, or U - 1 where hi >= U (analyze_deviation; exact at k = U).
That run is rebuilt and checked: past hi it answers False; past U - 1 it
must weigh exactly U, the deviation, and is the witness.  A budget that
stops the walk reports the bracket [L, U].

For a length-preserving trimmed transducer the lag at q holds |s_q|
letters, so every lag stays within b = max |s_q|, read from the shift
potential (Bounds gives the argument that B built on it is still the
paper's quadratic bound), and the graph is finite; its size is still
exponential in b in the worst case, hence the max_configs budget (at
least 1), which counts these configurations only.  A lag is kept as one
int, its letters packed in a fixed number of bits each: since the lag at
q always holds |s_q| letters, every transition moves fixed bit fields,
and an edge costs a few integer operations and a dict lookup on an int
key.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import ne
from typing import NamedTuple

from .core import INF, ExtendedNat, Nft, Run, hamming_distance, run_words, stats
from .transform import _live_states, is_trim, trim_with_maps

DEFAULT_MAX_CONFIGS = 2**20


class StateBudgetExceeded(RuntimeError):
    """Raised when the configuration graph outgrows max_configs."""


@dataclass(frozen=True)
class Bounds:
    """The two size bounds of an analysis, for the trimmed transducer.

    b = max |s_q| over the shift potential, and 0 at smax = 0, where no
    state shifts.  B = (b + lmax + 2) * |Q| is still the paper's quadratic
    bound: each s_q is the shift of a simple path from an initial state,
    at most |Q| - 1 transitions whose letters all appear in the
    serialization, so b <= smax * (|Q| - 1) and b <= textio.repr_size(t);
    and the deviation argument uses b only as the length of a lag, while
    the lag at q holds exactly |s_q| letters.  A transducer that is not
    length-preserving has no consistent potential, and b is that bound,
    smax * (|Q| - 1): every s_q the propagation assigns before it meets a
    conflict is the shift of the simple breadth-first path that reached
    q, so b bounds each of them whatever the order of the transitions.
    Once the search finds the deviation finite, _upper_bound gives a
    tighter bound U <= B, which the engine uses and does not report.
    """

    b: int
    B: int


def _upper_bound(t: Nft, rows, comp, shift: dict[int, int]) -> tuple[int, int, list[int]]:
    """(U, q, steps) for a trimmed length-preserving t, rows being
    _state_rows(t) and comp[q] naming q's strongly connected component
    (_components): U >= the deviation once the search has found it
    bounded, and the probe, an accepting run of t that starts at the
    initial state q and follows the path U maximises; steps are its
    transitions.

    U is the longest path over the condensation, U = max enter(q) over the
    initial states.  enter(q) = bonus(q) + leave(q's component), the entry
    bonus being |s_q| when q's component is cyclic and 0 otherwise, read
    from a list built once; leave(C) is the max of 0 (when C holds a final
    state) and of overlap(d) + enter(dst d) over the transitions d leaving
    C; overlap(d) = min(|s_p| + |joined|, |fixed|) counts the positions d
    compares from its source p (the words of _configurations).

    A run enters each component once and leaves it for good.  Two letters
    written within one visit never mismatch, or the search would have
    found the pair as a (state, phase) path inside the component.  So a
    mismatch is compared on a transition between components, or inside a
    cyclic one against the |s_q| letters of lag the run entered it with
    at q.  A run crosses at most |Q| components, so v <= U <= (b + lmax)
    * |Q| < B.  leave(C) is final once each transition leaving C is
    counted, as its target's component becomes final; each component
    keeps the transition that gave its leave, or None to end at one of its
    final states.

    The probe walks that path: from the argmax initial state q (ties go to
    the smallest id), at each entry q of a cyclic component with s_q != 0
    it loops a shortest cycle through q, of input length l, ceil(|s_q| / l)
    times (none when l = 0), so that the lag it entered with is compared
    in full, then takes a shortest path inside the component to the kept
    transition's source, or to a final state.  That is the run the paper's
    k_i = i - 1 gives on T_n.  It is a run of t, so its weight L is at most
    the deviation v; L = U proves v = U.  Each component adds at most b
    cycles and one path, of at most |Q| transitions each, so the probe
    has O(b * |Q|^2) transitions.
    """
    finals = {comp[f] for f in t.finals}
    leave = {c: 0 if c in finals else -1 for c in comp[: t.num_states]}
    out = dict.fromkeys(leave)
    waits = dict.fromkeys(leave, 0)
    cyclic, into = set(), {}
    for ti, (src, x, y, dst) in enumerate(t.transitions):
        c = comp[src]
        if c == comp[dst]:
            cyclic.add(c)
        else:
            waits[c] += 1
            s = shift[src]
            joined, fixed = (x, y) if s >= 0 else (y, x)
            overlap = min(abs(s) + len(joined), len(fixed))
            into.setdefault(comp[dst], []).append((ti, c, overlap, dst))
    bonus = [abs(shift[q]) if comp[q] in cyclic else 0 for q in range(t.num_states)]
    ready = [c for c, n in waits.items() if n == 0]
    while ready:
        # the transitions into a component whose leave is final
        done = ready.pop()
        after = leave[done]
        for ti, c, overlap, q in into.get(done, ()):
            weight = overlap + after + bonus[q]
            if weight > leave[c]:
                leave[c], out[c] = weight, ti
            waits[c] -= 1
            if waits[c] == 0:
                ready.append(c)
    start = q = max(sorted(t.initials), key=lambda p: leave[comp[p]] + bonus[p])
    steps: list[int] = []
    while True:
        c = comp[q]
        if bonus[q]:
            cycle = _shortest_cycle(rows, q, comp)
            ell = sum(len(t.transitions[ti].input) for ti in cycle)
            if ell:
                steps += cycle * -(-bonus[q] // ell)
        d = out[c]
        steps += _bfs_path(rows, (q,), t.finals if d is None else {t.transitions[d].src}, comp)
        if d is None:
            return leave[comp[start]] + bonus[start], start, steps
        steps.append(d)
        q = t.transitions[d].dst


class Verdict(str, Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"
    NOT_LENGTH_PRESERVING = "not-length-preserving"
    EMPTY = "empty"


@dataclass(frozen=True)
class DeviationResult:
    """Outcome of analyze_deviation.

    value is the exact deviation for BOUNDED, 0 for EMPTY, None otherwise.
    witness is a maximum-mismatch accepting run (BOUNDED) or an accepting
    run with unequal word lengths (NOT_LENGTH_PRESERVING), the run that
    shift_assignment(trim(t)) returns in the trimmed ids.  For UNBOUNDED,
    cycle_witness is a mismatching run from anchor_state to itself, and
    cycle_prefix/cycle_suffix complete it to a pumpable accepting run.
    All runs and states use the identifiers of the analyzed (original)
    Nft, even where the analysis trims first.
    """

    verdict: Verdict
    bounds: Bounds
    value: int | None = None
    witness: Run | None = None
    cycle_witness: Run | None = None
    anchor_state: int | None = None
    cycle_prefix: Run | None = None
    cycle_suffix: Run | None = None

    @property
    def deviation(self) -> ExtendedNat:
        if self.verdict in (Verdict.BOUNDED, Verdict.EMPTY):
            return self.value if self.value is not None else 0
        return INF

    @property
    def length_preserving(self) -> bool:
        return self.verdict is not Verdict.NOT_LENGTH_PRESERVING

    @property
    def bounded(self) -> bool:
        return self.verdict in (Verdict.BOUNDED, Verdict.EMPTY)


def _parent_chain(parent, q: int) -> tuple[int, ...]:
    """Labels of the parent links from q back to a root, in path order.

    parent[x] is (predecessor, label), or None at a root.
    """
    steps: list[int] = []
    while parent[q] is not None:
        q, label = parent[q]
        steps.append(label)
    steps.reverse()
    return tuple(steps)


def _bfs_path(rows, sources, targets, comp=None) -> tuple[int, ...]:
    """Transitions of a shortest path from a node in `sources` to one in
    `targets`, over the (v, weight, transition) edges rows[u] leaving u.

    With comp, a component id per node, the path stays inside the
    sources' component.
    """
    if any(s in targets for s in sources):
        return ()
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(sources)
    queue = deque(parent)
    c = None if comp is None else comp[sources[0]]
    while queue:
        u = queue.popleft()
        for v, _, label in rows[u]:
            if v in parent or (c is not None and comp[v] != c):
                continue
            parent[v] = (u, label)
            if v in targets:
                return _parent_chain(parent, v)
            queue.append(v)
    raise AssertionError("no path from the source to a target")


def _shortest_cycle(rows, q: int, comp) -> tuple[int, ...]:
    """Transitions of a shortest cycle from q back to q inside q's
    component, over the (v, weight, transition) edges rows[u] leaving u;
    q's component must be cyclic.  The first self-loop at q in row order
    is the answer whenever q has one, so it is returned with no search."""
    for v, _, label in rows[q]:
        if v == q:
            return (label,)
    parent: dict[int, tuple[int, int] | None] = {q: None}
    queue = deque(parent)
    while queue:
        u = queue.popleft()
        for v, _, label in rows[u]:
            if v == q:
                return _parent_chain(parent, u) + (label,)
            if v not in parent and comp[v] == comp[q]:
                parent[v] = (u, label)
                queue.append(v)
    raise AssertionError("no cycle through the state")


def shift_assignment(t: Nft) -> tuple[dict[int, int], Run | None]:
    """The shift potential s_p of a trimmed transducer, propagated from the
    initial states, and an accepting run with |u| != |v|, or None.

    The run is None exactly when the potential is consistent: every
    initial run to p has shift s_p, initial and final states have shift
    0, and s_q = s_p + shift(d) for every transition d from p to q; this
    is equivalent to the transducer being length-preserving.  Otherwise
    two initial runs disagree on some state's shift or a final state ends
    with nonzero shift, the run shows it and the potential covers only
    the states assigned before.  For any Nft, shift_assignment(trim(t))
    gives both in the trimmed ids.
    """
    if not is_trim(t):
        raise ValueError("engine requires trimmed Nft")
    return _shift_potential(t, _state_rows(t))


def _shift_potential(t: Nft, rows) -> tuple[dict[int, int], Run | None]:
    """shift_assignment without its trimness check, for callers that have
    just trimmed; rows is _state_rows(t)."""
    s: dict[int, int] = {}
    parent: dict[int, tuple[int, int] | None] = {}
    queue: deque[int] = deque()
    for q in sorted(t.initials):
        s[q] = 0
        parent[q] = None
        queue.append(q)
    while queue:
        p = queue.popleft()
        for q, _, idx in rows[p]:
            _, x, y, _ = t.transitions[idx]
            val = s[p] + len(x) - len(y)
            if q not in s:
                s[q] = val
                parent[q] = (p, idx)
                queue.append(q)
            elif s[q] != val:
                # two initial runs reach q with different shifts, so at
                # most one of them extends to a balanced accepting run
                ext = _bfs_path(rows, (q,), t.finals)
                for base in (_parent_chain(parent, p) + (idx,), _parent_chain(parent, q)):
                    steps = base + ext
                    if sum(t.transitions[i].shift for i in steps) != 0:
                        return s, Run(steps)
                raise AssertionError(
                    "conflicting runs cannot both extend to balanced accepting runs"
                )
    for f in sorted(t.finals):
        if s[f] != 0:
            return s, Run(_parent_chain(parent, f))
    return s, None


def _map_run(steps, trans_map) -> Run:
    return Run(tuple(trans_map[i] for i in steps))


class _Walk(NamedTuple):
    """What _walk found, per node id.

    comp[u] is -1 before the walk enters u and u's DFS number while u is
    on the Tarjan stack; once u's component pops it is -2 - m, m being the
    member the component's heaviest path to acceptance leaves by (-2 - r,
    r its root, while a multi-node component is being valued), so it
    tells the components apart.  value[u] is then the weight of that path
    (-1 before, and -1 for good in a dead component, one with no path to
    acceptance), and nxt[m], via[m] the node and transition it leaves by,
    or nxt[m] = -1 when it ends at the accepting member m; exit reads
    them.  inner holds the rows of the members of multi-node components.
    The walk ends early at pumped, a positive (u, v, transition) edge
    inside a component that reaches acceptance, or at heavier, (steps, v)
    when the tree path `steps` to the root v of a popped component
    outweighs the limit together with v's value.
    """

    comp: list[int]
    value: list[int]
    nxt: list[int]
    via: list[int]
    inner: dict[int, list[tuple[int, int, int]]]
    pumped: tuple[int, int, int] | None
    heavier: tuple[list[int], int] | None

    def exit(self, u: int) -> tuple[int, int | None, int | None]:
        """(m, v, transition): the edge the heaviest path from u's
        component leaves it by, or (m, None, None) when that path ends at
        the accepting member m."""
        m = -2 - self.comp[u]
        v = self.nxt[m]
        return (m, None, None) if v < 0 else (m, v, self.via[m])


def _walk(starts, expand, accepts, limit=None, live=True) -> _Walk:
    """Tarjan's strongly connected components, run on the fly, deciding
    and valuing each component as it pops.

    Nodes are ints.  expand(u) returns u's row of (v, weight, transition)
    edges; it is called once, when the depth-first walk first enters u,
    so the graph is unfolded as it is walked.  A row is kept while u is on
    the DFS path and afterwards only if u's component has more than one
    node.  The node being scanned lives in locals (node, row cursor, row,
    low link, tree path weight g, tree transition); descending pushes them
    as one frame and returning pops it.  Components pop in reverse
    topological order, so every edge leaving a component reaches one
    whose value is already final, while value[w] < 0 marks w as inside
    the popping component or dead.  Members are scanned in node order, an
    accepting member first and then strictly heavier edges, so ties go to
    the smallest node id.  With a limit the walk stops at the first popped
    component whose root has g + value > limit.

    A component with no path to acceptance is dead: when live is set every
    node must reach acceptance and a dead component raises, otherwise it
    pops with value -1.  Edges into dead nodes are skipped, a positive
    edge inside a dead component does not pump (the walk reports the
    first one only once the component's value is known to be >= 0), and a
    dead root never outweighs the limit.
    """
    # comp[u] (see _Walk) doubles as Tarjan's index: a popped id is
    # negative, so it never undercuts a low link.  The per-node lists at
    # least double whenever expand hands out a node id beyond them.
    comp: list[int] = []
    value: list[int] = []
    nxt: list[int] = []
    via: list[int] = []
    size = 0

    def grow(u: int) -> int:
        for a in (comp, value, nxt, via):
            a.extend(repeat(-1, u + 1))
        return len(comp)

    held: dict[int, list] = {}
    stack: list[int] = []
    frames: list[tuple] = []  # the DFS path above the node being scanned
    tick = 0
    for v in starts:
        # v, cursor, row, low, g and tl are the node being scanned
        if v >= size:
            size = grow(v)
        if comp[v] != -1:
            continue
        comp[v] = low = tick
        tick += 1
        stack.append(v)
        row = expand(v)
        cursor = iter(row)
        g = tl = 0
        while True:
            for w, wt, ti in cursor:
                if w >= size:
                    size = grow(w)
                i = comp[w]
                if i < 0:
                    if i == -1:
                        frames.append((v, cursor, row, low, g, tl))
                        comp[w] = low = tick
                        tick += 1
                        stack.append(w)
                        v, g, tl = w, g + wt, ti
                        row = expand(w)
                        cursor = iter(row)
                        break
                elif i < low:
                    low = i
            else:
                if low != comp[v]:
                    held[v] = row
                else:
                    b = nx = lb = -1
                    m0 = v
                    pumped = None
                    if stack[-1] == v:
                        # one node, the common case (every component of an
                        # acyclic graph): no member list, and its row is at hand
                        stack.pop()
                        members = ()
                        if v in accepts:
                            b = 0
                        for w, wt, ti in row:
                            x = value[w]
                            if x < 0:
                                # w is v itself or dead
                                if wt > 0 and w == v and pumped is None:
                                    pumped = (v, w, ti)
                            elif wt + x > b:
                                b, nx, lb = wt + x, w, ti
                    else:
                        # the stack is in index order; v's component is the
                        # part from v up
                        height = bisect_left(stack, low, key=comp.__getitem__)
                        members = sorted(stack[height:])
                        del stack[height:]
                        held[v] = row
                        inside = -2 - v
                        for m in members:
                            comp[m] = inside
                        for m in members:
                            if m in accepts:
                                b, m0 = 0, m
                                break
                        for u in members:
                            for w, wt, ti in held[u]:
                                x = value[w]
                                if x < 0:
                                    # w is a member or dead
                                    if wt > 0 and comp[w] == inside and pumped is None:
                                        pumped = (u, w, ti)
                                elif wt + x > b:
                                    b, m0, nx, lb = wt + x, u, w, ti
                    if b < 0:
                        if live:
                            raise AssertionError("configuration cannot reach acceptance")
                    elif pumped is not None:
                        return _Walk(comp, value, nxt, via, held, pumped, None)
                    for m in members:
                        comp[m] = -2 - m0
                        value[m] = b
                    comp[v] = -2 - m0
                    value[v] = b
                    nxt[m0] = nx
                    via[m0] = lb
                    if b >= 0 and limit is not None and g + b > limit:
                        steps = [f[5] for f in frames[1:]]
                        if frames:
                            steps.append(tl)
                        return _Walk(comp, value, nxt, via, held, None, (steps, v))
                if not frames:
                    break
                x = low
                v, cursor, row, low, g, tl = frames.pop()
                if x < low:
                    low = x
    return _Walk(comp, value, nxt, via, held, None, None)


def _state_rows(t: Nft, weighted: bool = False) -> list[list[tuple[int, int, int]]]:
    """The state graph of t as _walk rows: per state its (dst, weight,
    transition) edges in transition order.  The weight is the mismatch
    count when `weighted` and 0 otherwise.  When smax = 0 every lag is
    empty, and the weighted rows are those of the configuration graph;
    at smax > 0 no reader uses the weights."""
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(t.num_states)]
    for ti, (src, x, y, dst) in enumerate(t.transitions):
        rows[src].append((dst, sum(map(ne, x, y)) if weighted and x != y else 0, ti))
    return rows


def _configurations(
    trimmed: Nft, rows, fusable, shift: dict[int, int], b: int, max_configs: int, bracket=None
):
    """The configuration graph as _walk unfolds it: (expand, state, lags,
    starts, accepts), with no configuration at a fusable state; rows is
    _state_rows(trimmed) and fusable[q] says whether q is fusable.  An edge
    is a chain, named by its first transition, which leaves a kept state:
    that transition, then the one way out of each fusable state reached,
    up to a kept state, reading and writing the chain's words.  In a
    trimmed transducer the way out of a fusable state is no self-loop and
    no cycle has fusable states alone, or they could not reach a final
    state, so every chain ends within |Q| steps.  A run entering a fusable
    state must leave it by its one transition, whatever its in-degree, so
    the runs between kept states are exactly the chains, with the same
    words; s_q at the kept states, b and B are unchanged.

    Node ids number the configurations (q, lag) in discovery order, the
    starts first; state[u] and lags[u] are u's state and lag, and each
    state keeps a dict from lag to node id.  A lag is a packed int: each
    letter is its index in the sorted alphabet, in w = max(1,
    ceil(log2 |alphabet|)) bits, the first letter most significant.  The
    lag at q holds exactly |s_q| letters, so the int alone identifies it
    among q's configurations, and every stream length along a transition
    is fixed.  The lag joins the input when s_src >= 0 and the output when
    s_src < 0 (the joined stream; the other word is the fixed one); the
    overlap of the two streams is compared and the rest of the longer one
    is the new lag.  A transition's plan is (transition, dst, dst's dict,
    dst is final, shift, joined, cut, other, tail, rest): the joined
    stream is (lag << shift) | joined, its top letters (>> cut) are
    compared with `other`, the overlap of the fixed word, and the new lag
    is (joined stream & tail) | rest, rest being the tail of the fixed
    word when that one is longer; building the plan checks once that the
    new lag holds |s_dst| letters.  The mismatches are the nonzero w-bit
    digits of the xor: with w > 1 each digit's bits are or-folded into its
    lowest bit, kept by a digit mask as wide as the longest overlap.
    s_f = 0, so a configuration at a final state has the empty lag and
    accepts.  A spent budget raises StateBudgetExceeded; with bracket =
    (L, U) its message ends with the interval the deviation lies in.
    """
    began = time.perf_counter()
    code = {a: i for i, a in enumerate(sorted(trimmed.alphabet))}
    w = max(1, (len(code) - 1).bit_length())

    def pack(word: str) -> int:
        n = 0
        for a in word:
            n = n << w | code[a]
        return n

    node_id: list[dict[int, int]] = [{} for _ in range(trimmed.num_states)]
    plans: list[list[tuple]] = [[] for _ in range(trimmed.num_states)]
    overlap = 0
    for ti, (src, x, y, dst) in enumerate(trimmed.transitions):
        if fusable[src]:
            continue
        for ni in _unfold(trimmed, rows, fusable, [ti])[1:]:
            _, nx, ny, dst = trimmed.transitions[ni]
            x, y = x + nx, y + ny
        s = shift[src]
        joined, fixed = (x, y) if s >= 0 else (y, x)
        lj, lf = abs(s) + len(joined), len(fixed)
        if abs(lj - lf) != abs(shift[dst]):
            raise AssertionError("lag length disagrees with the shift potential")
        overlap = max(overlap, min(lj, lf))
        # bits past the overlap in the joined stream and in the fixed word
        cut, spare = w * max(lj - lf, 0), w * max(lf - lj, 0)
        word = pack(fixed)
        plans[src].append(
            (ti, dst, node_id[dst], dst in trimmed.finals, w * len(joined), pack(joined),
             cut, word >> spare, (1 << cut) - 1, word & (1 << spare) - 1)
        )
    wide, folds = w > 1, range(1, w)
    digits = sum(1 << w * i for i in range(overlap))
    state: list[int] = []
    lags: list[int] = []
    accepts: set[int] = set()

    def over_budget():
        message = (
            f"state budget exceeded: budget of {max_configs} configurations spent at"
            f" {sum(map(bool, node_id))} states, b={b}, |Q|={trimmed.num_states},"
            f" {time.perf_counter() - began:.2f} s elapsed"
        )
        if bracket is not None:
            message += f", deviation in [{bracket[0]}, {bracket[1]}]"
        return StateBudgetExceeded(message)

    starts = []
    for q in sorted(trimmed.initials):
        if len(state) >= max_configs:
            raise over_budget()
        starts.append(len(state))
        node_id[q][0] = len(state)
        if q in trimmed.finals:
            accepts.add(len(state))
        state.append(q)
        lags.append(0)

    def expand(u: int) -> list[tuple[int, int, int]]:
        lag = lags[u]
        row = []
        for ti, r, ids, final, shift, joined, cut, other, tail, rest in plans[state[u]]:
            stream = lag << shift | joined
            d = stream >> cut ^ other
            nlag = stream & tail | rest
            v = ids.get(nlag)
            if v is None:
                if len(state) >= max_configs:
                    raise over_budget()
                v = ids[nlag] = len(state)
                state.append(r)
                lags.append(nlag)
                if final:
                    accepts.add(v)
            if wide and d:
                f = d
                for j in folds:
                    f |= d >> j
                d = f & digits
            row.append((v, d.bit_count(), ti))
        return row

    return expand, state, lags, starts, accepts


def _unfold(trimmed: Nft, rows, fusable, steps: list[int]) -> list[int]:
    """The trimmed transitions of a walk's run of chains, each named by its
    first transition; steps itself when fusable is None."""
    if fusable is None:
        return steps
    run = []
    for ti in steps:
        run.append(ti)
        q = trimmed.transitions[ti].dst
        while fusable[q]:
            ((q, _, ti),) = rows[q]
            run.append(ti)
    return run


def _components(t: Nft, rows) -> list[int]:
    """A strongly connected component id per state of t (rows is
    _state_rows(t)): equal ids share a component."""
    return _walk(range(t.num_states), rows.__getitem__, t.finals).comp


def _nonconjugate_cycle(t: Nft, rows, shift, comp) -> tuple[int, Run, int, int] | None:
    """A cycle whose words are not conjugate by its anchor's shift, or None.

    t is trimmed, rows is _state_rows(t) with zero weights, shift its
    consistent potential and comp _components(t, rows).  Returns (p, run,
    i, j) where the run goes from p to itself over some (u, v), j - i
    equals s_p exactly, and (i, j) is the first such pair with u_i != v_j;
    1-based positions.
    None means no cycle of any length violates conjugacy, which for a
    length-preserving transducer is exactly boundedness.

    The search runs over (state, phase) pairs, the phase being what a
    mismatching pair needs next: nothing chosen yet (None), the mismatch
    confirmed (True), or (letter, side, d), one letter captured that waits
    d letters ahead on stream `side` (0 the output, 1 the input) for its
    partner.  A letter at offset o of a transition leaving q has its
    partner at offset o + s_q of the output, or o - s_q of the input,
    whatever the anchor, so one breadth-first search from every (q, None)
    covers all anchors.  It follows only transitions inside one strongly
    connected component of the state graph: a mismatch confirmed from
    (p, None) closes into a cycle at p by any path back inside that
    component, and every violating cycle, iterated enough times, contains
    a pair at exact offset s_p, so the search is complete.  Each state's
    transitions inside its component are listed once, with their words,
    in row order, and a popped pair whose state has none is skipped; the
    search order and the parent links are those of reading each popped
    state's whole row.  A pair is recorded by one setdefault, which keeps
    the first link of a pair met before.  Its links keep only transitions;
    _close_cycle finds the positions by a scan.
    """
    # per state, its transitions inside its component as (dst, transition,
    # (output, input)), in transition order, which is row order
    moves: list[list[tuple[int, int, tuple[str, str]]]] = [[] for _ in range(t.num_states)]
    for ti, (src, x, y, dst) in enumerate(t.transitions):
        if comp[src] == comp[dst]:
            moves[src].append((dst, ti, (y, x)))
    parent: dict[tuple, tuple | None] = {(q, None): None for q in range(t.num_states)}
    queue = deque(parent)
    while queue:
        key = queue.popleft()
        state, phase = key
        if not moves[state]:
            continue
        if phase is None:
            # staying idle is not a step: every (q, None) is a source
            sq = shift[state]
            for dst, ti, words in moves[state]:
                link = (key, ti)
                for side, off in ((0, sq), (1, -sq)):
                    theirs = words[side]
                    for o, a in enumerate(words[1 - side], 1):
                        d = o + off
                        if d > len(theirs):
                            nk = (dst, (a, side, d - len(theirs)))
                        elif d >= 1 and a != theirs[d - 1]:
                            nk = (dst, True)
                        else:
                            continue
                        if parent.setdefault(nk, link) is link:
                            if nk[1] is True:
                                return _close_cycle(t, rows, comp, parent, nk, shift)
                            queue.append(nk)
        else:
            # one letter waits: each move either carries it on or meets its partner
            a, side, d = phase
            for dst, ti, words in moves[state]:
                theirs = words[side]
                if d > len(theirs):
                    nk = (dst, (a, side, d - len(theirs)))
                elif a != theirs[d - 1]:
                    nk = (dst, True)
                else:
                    continue
                link = (key, ti)
                if parent.setdefault(nk, link) is link:
                    if nk[1] is True:
                        return _close_cycle(t, rows, comp, parent, nk, shift)
                    queue.append(nk)
    return None


def _close_cycle(t: Nft, rows, comp, parent, done, shift) -> tuple[int, Run, int, int]:
    """The (p, run, i, j) of _nonconjugate_cycle: the search's path to the
    confirmed mismatch `done`, closed by a shortest path back to p inside
    p's component, and the first mismatching pair at offset s_p of the
    cycle's words.  The pair the search confirmed lies inside that path."""
    steps = _parent_chain(parent, done)
    p = t.transitions[steps[0]].src
    steps += _bfs_path(rows, (done[0],), {p}, comp)
    u, v = run_words(t, Run(steps))
    s = shift[p]
    for i in range(max(1, 1 - s), min(len(u), len(v) - s) + 1):
        if u[i - 1] != v[i - 1 + s]:
            return p, Run(steps), i, i + s
    raise AssertionError("nonconjugate cycle lacks a witness position")


def _analyze(
    t: Nft,
    max_configs: ExtendedNat,
    question: tuple[int, ExtendedNat] | None = None,
    trimmed: bool = False,
) -> DeviationResult | bool:
    """analyze_deviation, or, asked the question (lo, hi), whether the
    deviation lies in [lo, hi], by the route the module docstring gives.
    max_configs = INF sets no budget.  trimmed says that t is trim already
    (the product of reductions.comparison_to_deviation), so it is not
    trimmed again; its ids are then those of the answer."""
    if max_configs < 1:
        raise ValueError("max_configs must be at least 1")
    lo, hi = question or (0, INF)
    limit = None if hi is INF else hi
    meets = None  # the weight of a heavier run when it is a witness

    def reply(**fields) -> DeviationResult | bool:
        res = DeviationResult(**fields)
        return res if question is None else res.bounded and lo <= res.value <= hi

    st = stats(t)
    # route on smax, never on b: a conflict met early can leave b = 0.  At
    # smax = 0 the walk does the trim, so its runs are in t's ids already
    state_map, trans_map = range(t.num_states), range(len(t.transitions))
    if st.smax > 0 and not trimmed:
        trim, state_map, trans_map = trim_with_maps(t)
        if trim.num_states == 0:
            return reply(verdict=Verdict.EMPTY, bounds=Bounds(0, 0), value=0)
        if trim is not t:
            t, st = trim, stats(trim)
    rows = _state_rows(t, st.smax == 0)
    bounds = None  # at smax = 0, known once the walk has found the live states

    def unbounded(p: int, cycle: tuple[int, ...]) -> DeviationResult | bool:
        """UNBOUNDED from a pumpable cycle at p, closed by a shortest path
        back to p where it ends elsewhere.  Every question answers False,
        so only analyze_deviation builds the witness."""
        if question is not None:
            return False
        cycle += _bfs_path(rows, (t.transitions[cycle[-1]].dst,), {p})
        return DeviationResult(
            verdict=Verdict.UNBOUNDED,
            bounds=bounds or _zero_shift_bounds(t, st.lmax, _live_states(t)),
            cycle_witness=_map_run(cycle, trans_map),
            anchor_state=state_map[p],
            cycle_prefix=_map_run(_bfs_path(rows, sorted(t.initials), {p}), trans_map),
            cycle_suffix=_map_run(_bfs_path(rows, (p,), t.finals), trans_map),
        )

    def bounded(steps: list[int], value: int) -> DeviationResult | bool:
        """BOUNDED with value `value` and the run `steps` as its witness."""
        if value > bounds.B:
            raise AssertionError("bounded deviation exceeds the quadratic bound")
        return reply(
            verdict=Verdict.BOUNDED,
            bounds=bounds,
            value=value,
            witness=_map_run(steps, trans_map),
        )

    if st.smax == 0:
        # every shift is 0, so the potential is consistent, every lag is
        # empty and the configuration graph is the state graph
        starts, expand, accepts = sorted(t.initials), rows.__getitem__, t.finals
        fusable = None
    else:
        shift, unbalanced = _shift_potential(t, rows)
        if unbalanced is None:
            b = max(map(abs, shift.values()))
        else:
            b = st.smax * (t.num_states - 1)
        bounds = Bounds(b, (b + st.lmax + 2) * t.num_states)
        if unbalanced is not None:
            return reply(
                verdict=Verdict.NOT_LENGTH_PRESERVING,
                bounds=bounds,
                witness=_map_run(unbalanced.transitions, trans_map),
            )
        comp = _components(t, rows)
        if question == (0, INF):
            # is_bounded needs no bound and no run
            return _nonconjugate_cycle(t, rows, shift, comp) is None
        upper, start, probe = _upper_bound(t, rows, comp, shift)
        if question is not None and lo > upper:
            # a finite deviation is at most U < lo (exact at k > U)
            return False
        # [0, U] lies inside [0, hi] (threshold at k >= U): the search alone
        # answers, and no probe weight can change that answer
        inside = question is not None and lo == 0 and upper <= hi
        if not inside:
            first, last = start, start
            if probe:
                first, last = t.transitions[probe[0]].src, t.transitions[probe[-1]].dst
            if first not in t.initials or last not in t.finals:
                raise AssertionError(
                    "probe run must start at an initial state and end at a final one"
                )
            lower = hamming_distance(*run_words(t, Run(tuple(probe))))
            if lower > hi:
                # a run heavier than hi refutes [lo, hi], bounded or not
                return False
        found = _nonconjugate_cycle(t, rows, shift, comp)
        if found is not None:
            return unbounded(found[0], found[1].transitions)
        if inside:
            return True
        if lower > upper:
            raise AssertionError("probe run outweighs the upper bound U")
        if lower == upper:
            # the deviation lies in [L, U] = {U}, and the probe weighs it
            return bounded(probe, upper)
        if hi >= upper:
            # analyze, and exact at k = U: no run outweighs U, so the first
            # run heavier than U - 1 weighs U and is the witness
            limit, meets = upper - 1, upper
        ends = t.initials | t.finals
        fusable = [len(row) == 1 and q not in ends for q, row in enumerate(rows)]
        expand, _, _, starts, accepts = _configurations(
            t, rows, fusable, shift, b, max_configs, (lower, upper)
        )
    walk = _walk(starts, expand, accepts, limit, live=st.smax > 0)
    if walk.pumped is not None:
        if st.smax > 0:
            # the search above has ruled out every pumpable cycle
            raise AssertionError("positive edge inside a component of a bounded transducer")
        # at smax = 0 the walk reports a positive edge only inside a
        # component that reaches a final state, so it pumps
        u, _, ti = walk.pumped
        return unbounded(u, (ti,))
    steps, v = walk.heavier or ([], max(starts, key=lambda s: (walk.value[s], -s), default=-1))
    if v < 0 or walk.value[v] < 0:
        # at smax = 0: no initial state reaches a final one
        return reply(verdict=Verdict.EMPTY, bounds=Bounds(0, 0), value=0)
    steps = _unfold(t, rows, fusable, steps + _chain(walk, v))
    value = hamming_distance(*run_words(t, Run(tuple(steps))))
    if walk.heavier is None:
        if value != walk.value[v]:
            raise AssertionError("witness must realize the computed deviation")
    elif meets is None:
        if value <= limit:
            raise AssertionError("run heavier than the limit does not exceed it")
        return False
    elif value != meets:
        raise AssertionError("run heavier than U - 1 does not weigh the upper bound U")
    if bounds is None:
        # the walk ran to the end, so the states it valued are trim(t)'s
        n = len(walk.value) - walk.value.count(-1)
        kept = range(n) if n == t.num_states else {q for q, x in enumerate(walk.value) if x >= 0}
        bounds = _zero_shift_bounds(t, st.lmax, kept)
    return bounded(steps, value)


def _zero_shift_bounds(t: Nft, lmax: int, kept) -> Bounds:
    """The Bounds of trim(t) for t with smax = 0 and longest transition
    lmax, kept holding the states trim(t) keeps.  trim(t) has smax = 0
    too, so b = 0 and B = (lmax' + 2) * |kept|, lmax' being read from the
    transitions between kept states when some state is dead."""
    if len(kept) < t.num_states:
        lmax = max(
            (len(x) + len(y) for p, x, y, q in t.transitions if p in kept and q in kept),
            default=0,
        )
    return Bounds(0, (lmax + 2) * len(kept))


def _chain(walk: _Walk, cur: int) -> list[int]:
    """Transitions of the heaviest path from cur to acceptance: through
    each component to the member its exit leaves by (ties go to the
    smallest node id), then along the exit edge."""
    steps: list[int] = []
    while cur is not None:
        u, v, ti = walk.exit(cur)
        steps += _bfs_path(walk.inner, (cur,), {u}, walk.comp)
        if v is not None:
            steps.append(ti)
        cur = v
    return steps


def analyze_deviation(t: Nft, max_configs: int = DEFAULT_MAX_CONFIGS) -> DeviationResult:
    """Full deviation analysis of an arbitrary Nft; its bounds are those
    of trim(t).  At smax > 0 it trims internally; at smax = 0 the walk of
    the untrimmed state graph does the trim.

    Raises StateBudgetExceeded when the configuration graph would exceed
    max_configs nodes, which can happen only when some transition shifts
    (at smax = 0 the walk is over the state graph and takes no budget),
    and ValueError when max_configs is below 1.
    """
    return _analyze(t, max_configs)


def _decide(
    t: Nft,
    mode: str,
    k: int | None = None,
    max_configs: ExtendedNat = DEFAULT_MAX_CONFIGS,
    trimmed: bool = False,
) -> bool:
    """is_bounded (mode "bounded", which takes no k and no budget),
    threshold or exact, each asked of _analyze as its question (lo, hi);
    trimmed as there."""
    if mode == "bounded":
        return _analyze(t, INF, (0, INF), trimmed)
    if k < 0:
        raise ValueError(f"{mode} expects a natural number")
    return _analyze(t, max_configs, (0, k) if mode == "threshold" else (k, k), trimmed)


def is_bounded(t: Nft) -> bool:
    """True iff the deviation lies in [0, INF], that is, is finite (the
    empty relation counts as 0).  Decided in polynomial time and with no
    budget: at smax = 0 by one walk of the state graph, otherwise before
    any configuration is walked."""
    return _decide(t, "bounded")


def threshold(t: Nft, k: int, max_configs: int = DEFAULT_MAX_CONFIGS) -> bool:
    """True iff the deviation lies in [0, k], that is, is at most k; k may
    be arbitrarily large (it arrives in binary from the CLI)."""
    return _decide(t, "threshold", k, max_configs)


def exact(t: Nft, k: int, max_configs: int = DEFAULT_MAX_CONFIGS) -> bool:
    """True iff the deviation lies in [k, k], that is, is finite and equal
    to k."""
    return _decide(t, "exact", k, max_configs)
