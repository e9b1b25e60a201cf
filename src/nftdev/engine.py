"""Deterministic deviation analysis.

The engine decides, for an NFT, whether the Hamming distance between
input and output is unbounded over the accepted pairs, and computes the
exact supremum when it is finite:

1. trim; an empty result means the relation is empty (deviation 0);
2. propagate state shifts from the initial states; an inconsistency is a
   witness that the transducer is not length-preserving (deviation INF);
3. otherwise explore the alignment-configuration graph.  A configuration
   is a state q with the buffer of unmatched letters (the lag); the lag
   holds |s_q| letters, of the input when s_q > 0 and of the output when
   s_q < 0, so (q, lag) determines it.  Edges carry the number of freshly
   compared mismatching positions.  Every reachable configuration is also
   co-reachable: each transition of the trimmed transducer applies to
   every configuration at its source state, every state reaches a final
   state, and s_f = 0 empties the lag there.  So a positive-weight edge
   on any cycle can be pumped, and the deviation is INF; otherwise every
   cycle weighs 0 and the deviation is the maximum edge-weight sum over
   paths from an initial to an accepting configuration.  The graph is
   stored flat (see _Graph): node states and edges live in parallel int
   lists, edges in compressed sparse rows, and lags only in per-state
   dicts while the graph is built, so a configuration costs a few list
   slots rather than containers of its own.  One Tarjan walk of the
   built graph decides and values it: components pop in reverse
   topological order, so as each pops it is checked for a positive inner
   edge and valued from the final values of the components it leads to.
   is_bounded alone skips the graph: the deviation of a length-preserving
   transducer is finite exactly when no cycle breaks conjugacy by its
   anchor's shift, and _nonconjugate_cycle decides that with one
   breadth-first search over (state, phase) pairs inside the strongly
   connected components of the state graph, polynomial in the size of
   the transducer.  analyze_deviation, threshold and exact keep deciding
   UNBOUNDED in their walk of the graph, which they need for the value
   anyway; running the search first would be pure overhead for them
   (measured at about 18% of each bounded analyze and threshold query
   of the reach benchmark workload, parsing included).

For a length-preserving trimmed transducer every lag stays within the
state-shift bound b = min(smax * |Q|, repr_size(t)), repr_size being the
byte length of the canonical serialization (textio.repr_size), so the
graph is finite; its size is still exponential in b in the worst case,
hence the max_configs budget (at least 1).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import ne
from typing import NamedTuple

from .core import INF, ExtendedNat, Nft, Run, hamming_distance, run_words, stats
from .textio import repr_size
from .transform import is_trim, trim, trim_with_maps

DEFAULT_MAX_CONFIGS = 2**20


class StateBudgetExceeded(RuntimeError):
    """Raised when the configuration graph outgrows max_configs."""


@dataclass(frozen=True)
class Bounds:
    """The four size bounds attached to an analysis.

    b bounds every state shift, B = (b + lmax + 2) * |Q| bounds the
    deviation of any bounded transducer, Lconj and Lwit are the witness
    length bounds of the nonconjugate-cycle and threshold searches.
    """

    b: int
    B: int
    Lconj: int
    Lwit: int

    @classmethod
    def from_nft(cls, t: Nft) -> "Bounds":
        st = stats(t)
        n = st.num_states
        b = min(st.smax * n, repr_size(t))
        return cls(
            b=b,
            B=(b + st.lmax + 2) * n,
            Lconj=2 * n + 2 * st.smax * n * n,
            Lwit=8 * st.smax * n * n * n,
        )


@dataclass(frozen=True)
class ShiftConflict:
    """Evidence that no consistent shift assignment exists.

    Either two initial runs reach `state` with different shifts
    (run_b is the second run), or run_a is an initial run reaching the
    final state `state` with nonzero shift (run_b is None).
    """

    state: int
    run_a: Run
    run_b: Run | None = None


@dataclass(frozen=True)
class ShiftAssignment:
    """The state-shift potential map s_p of a trimmed transducer.

    When consistent, every initial run to p has shift per_state[p], all
    initial and final states have shift 0, and s_q = s_p + shift(d) holds
    for every transition d from p to q; this is equivalent to the
    transducer being length-preserving.
    """

    per_state: dict[int, int]
    consistent: bool
    conflict_witness: ShiftConflict | None = None


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
    run with unequal word lengths (NOT_LENGTH_PRESERVING).  For UNBOUNDED,
    cycle_witness is a mismatching run from anchor_state to itself, and
    cycle_prefix/cycle_suffix complete it to a pumpable accepting run.
    All runs, states and the embedded shift assignment use the identifiers
    of the analyzed (original) Nft, even though the analysis trims first.
    """

    verdict: Verdict
    bounds: Bounds
    value: int | None = None
    witness: Run | None = None
    cycle_witness: Run | None = None
    anchor_state: int | None = None
    cycle_prefix: Run | None = None
    cycle_suffix: Run | None = None
    shift: ShiftAssignment | None = None

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


def _by_src(t: Nft) -> list[list[tuple[int, object]]]:
    adj: list[list[tuple[int, object]]] = [[] for _ in range(t.num_states)]
    for i, tr in enumerate(t.transitions):
        adj[tr.src].append((i, tr))
    return adj


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


def _bfs_path(src: int, targets, edges) -> tuple[int, ...]:
    """Labels of a shortest path from src to a node in `targets`.

    edges(u) yields the (label, v) pairs of the edges leaving u.
    """
    if src in targets:
        return ()
    parent: dict[int, tuple[int, int] | None] = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for label, v in edges(u):
            if v in parent:
                continue
            parent[v] = (u, label)
            if v in targets:
                return _parent_chain(parent, v)
            queue.append(v)
    raise AssertionError("no path from the source to a target")


def shift_assignment(t: Nft) -> ShiftAssignment:
    """Propagate the shift potential s_p from the initial states.

    Requires a trimmed transducer.  Returns an inconsistency witness when
    two initial runs disagree on some state's shift or a final state ends
    with nonzero shift; consistency is equivalent to length preservation.
    """
    if not is_trim(t):
        raise ValueError("engine requires trimmed Nft")
    return _shift_potential(t)


def _shift_potential(t: Nft) -> ShiftAssignment:
    """shift_assignment without its trimness check, for callers that have
    just trimmed."""
    adj = _by_src(t)
    s: dict[int, int] = {}
    parent: dict[int, tuple[int, int] | None] = {}
    queue: deque[int] = deque()
    for q in sorted(t.initials):
        s[q] = 0
        parent[q] = None
        queue.append(q)
    conflict = None
    while queue and conflict is None:
        p = queue.popleft()
        for idx, tr in adj[p]:
            val = s[p] + tr.shift
            q = tr.dst
            if q not in s:
                s[q] = val
                parent[q] = (p, idx)
                queue.append(q)
            elif s[q] != val:
                conflict = ShiftConflict(
                    state=q,
                    run_a=Run(_parent_chain(parent, p) + (idx,)),
                    run_b=Run(_parent_chain(parent, q)),
                )
                break
    if conflict is None:
        for f in sorted(t.finals):
            if s[f] != 0:
                conflict = ShiftConflict(state=f, run_a=Run(_parent_chain(parent, f)))
                break
    return ShiftAssignment(per_state=s, consistent=conflict is None, conflict_witness=conflict)


def _path_to_final(t: Nft, start: int) -> tuple[int, ...]:
    """Transitions of a shortest run from `start` to some final state."""
    adj = _by_src(t)
    return _bfs_path(start, t.finals, lambda p: ((idx, tr.dst) for idx, tr in adj[p]))


def _unbalanced_accepting_run(t: Nft, conflict: ShiftConflict) -> Run:
    """Turn a shift conflict into an accepting run with |u| != |v|."""
    if conflict.run_b is None:
        return conflict.run_a
    ext = _path_to_final(t, conflict.state)
    for base in (conflict.run_a, conflict.run_b):
        steps = base.transitions + ext
        if sum(t.transitions[i].shift for i in steps) != 0:
            return Run(steps)
    raise AssertionError("conflicting runs cannot both extend to balanced accepting runs")


def _map_run(steps, trans_map) -> Run:
    return Run(tuple(trans_map[i] for i in steps))


def _map_shift(sa: ShiftAssignment, state_map, trans_map) -> ShiftAssignment:
    """Re-express a trimmed-id shift assignment in original identifiers."""
    conflict = sa.conflict_witness
    if conflict is not None:
        conflict = ShiftConflict(
            state=state_map[conflict.state],
            run_a=_map_run(conflict.run_a.transitions, trans_map),
            run_b=None
            if conflict.run_b is None
            else _map_run(conflict.run_b.transitions, trans_map),
        )
    return ShiftAssignment(
        per_state={state_map[q]: v for q, v in sa.per_state.items()},
        consistent=sa.consistent,
        conflict_witness=conflict,
    )


class _Graph(NamedTuple):
    """Config graph of a trimmed, length-preserving transducer, with the
    component values of its one walk after the build.

    Node ids number the configurations (q, lag) in breadth-first discovery
    order; state[u] is u's state (the lags are only kept while building).
    The edges are stored flat, in compressed sparse rows: the edges
    leaving u are the indices first[u] to first[u + 1] - 1 of the parallel
    lists dst, wt (the weight) and lab (the transition), in the order the
    build found them.  pred[u] is the node whose expansion discovered u
    (-1 at the starts); the discovering edge is the first one from pred[u]
    to u.  comp, best and choice come from _value_components, which
    decides and values each strongly connected component as Tarjan pops
    it: comp[u] is the index of u's component in that reverse topological
    order, best[c] the heaviest path weight from component c to
    acceptance, and choice[c] the (u, v, transition) edge that path leaves
    c by, or (m, None, None) when it ends at the accepting member m.
    """

    trimmed: Nft
    state_map: list[int]
    trans_map: list[int]
    bounds: Bounds
    shift: ShiftAssignment
    state: list[int]
    first: list[int]
    dst: list[int]
    wt: list[int]
    lab: list[int]
    pred: list[int]
    starts: list[int]
    accepts: set[int]
    comp: list[int]
    best: list[int]
    choice: list[tuple]


def _build_graph(trimmed: Nft, sa: ShiftAssignment, bounds: Bounds, max_configs: int):
    """Explore the configurations breadth first; returns (state, first,
    dst, wt, lab, pred, starts, accepts) as described on _Graph.

    Each transition gets one plan (transition, dst, x, y, lag on input,
    lag on output): the lag of a configuration at its source is
    prepended to the stream it is unmatched on, the overlap of the two
    streams is compared letter by letter, and the rest of the longer one
    is the new lag.
    """
    began = time.perf_counter()
    b = bounds.b
    plans: list[list[tuple]] = [[] for _ in range(trimmed.num_states)]
    for ti, tr in enumerate(trimmed.transitions):
        s = sa.per_state[tr.src]
        plans[tr.src].append((ti, tr.dst, tr.input, tr.output, s > 0, s < 0))
    node_id: list[dict[str, int]] = [{} for _ in range(trimmed.num_states)]
    state: list[int] = []
    lags: list[str] = []
    pred: list[int] = []
    first = [0]
    dst: list[int] = []
    wt: list[int] = []
    lab: list[int] = []

    def over_budget():
        return StateBudgetExceeded(
            f"state budget exceeded: {len(state)} configurations reached,"
            f" b={b}, |Q|={trimmed.num_states},"
            f" {time.perf_counter() - began:.2f} s elapsed"
        )

    starts = []
    for q in sorted(trimmed.initials):
        if len(state) >= max_configs:
            raise over_budget()
        starts.append(len(state))
        node_id[q][""] = len(state)
        state.append(q)
        lags.append("")
        pred.append(-1)
    # state doubles as the BFS queue: each new node is appended once
    for u, q in enumerate(state):
        lag = lags[u]
        for ti, r, x, y, lag_in, lag_out in plans[q]:
            if lag_in:
                x = lag + x
            elif lag_out:
                y = lag + y
            nlag = x[len(y):] if len(x) > len(y) else y[len(x):]
            if len(nlag) > b:
                raise AssertionError(
                    "lag exceeded the state-shift bound on a length-preserving transducer"
                )
            ids = node_id[r]
            v = ids.get(nlag)
            if v is None:
                if len(state) >= max_configs:
                    raise over_budget()
                v = ids[nlag] = len(state)
                state.append(r)
                lags.append(nlag)
                pred.append(u)
            dst.append(v)
            wt.append(sum(map(ne, x, y)))
            lab.append(ti)
        first.append(len(dst))
    # s_f = 0, so the empty lag is the only configuration at a final state
    accepts = {node_id[f][""] for f in trimmed.finals if "" in node_id[f]}
    return state, first, dst, wt, lab, pred, starts, accepts


def _value_components(first, dst, wt, lab, accepts):
    """Decide and value every strongly connected component as Tarjan pops it.

    The graph is in the flat layout of _Graph.  Returns (comp, best,
    choice, pumped).  pumped is the first positive (u, v, transition)
    edge found inside a component, and then the walk stops there;
    otherwise it is None and best and choice are complete.  Components
    pop in reverse topological order, so every edge leaving a component
    reaches one whose best value is already final.  Members are scanned
    in node order, an accepting member first and then strictly heavier
    edges, so ties go to the smallest node id.
    """
    n = len(first) - 1
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # -1 on a visited node means it is still on the stack
    best: list[int] = []
    choice: list[tuple] = []
    stack: list[int] = []
    tick = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = tick
        tick += 1
        # the DFS path, each node with an iterator over its row of dst as
        # its next-edge cursor
        work = [root]
        cursor = [iter(dst[first[root] : first[root + 1]])]
        stack.append(root)
        while work:
            v = work[-1]
            for w in cursor[-1]:
                if index[w] == -1:
                    index[w] = low[w] = tick
                    tick += 1
                    work.append(w)
                    cursor.append(iter(dst[first[w] : first[w + 1]]))
                    stack.append(w)
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                cursor.pop()
                if work and low[v] < low[work[-1]]:
                    low[work[-1]] = low[v]
                if low[v] != index[v]:
                    continue
                ci = len(best)
                if stack[-1] == v:
                    members = [stack.pop()]
                else:
                    # the stack is in index order; v's component is the
                    # part from v up
                    height = bisect_left(stack, index[v], key=index.__getitem__)
                    members = sorted(stack[height:])
                    del stack[height:]
                for m in members:
                    comp[m] = ci
                b, ch = -1, None
                for m in members:
                    if m in accepts:
                        b, ch = 0, (m, None, None)
                        break
                for u in members:
                    for e in range(first[u], first[u + 1]):
                        w = dst[e]
                        cj = comp[w]
                        if cj == ci:
                            if wt[e] > 0:
                                return comp, best, choice, (u, w, lab[e])
                        elif wt[e] + best[cj] > b:
                            b, ch = wt[e] + best[cj], (u, w, lab[e])
                if b < 0:
                    raise AssertionError("configuration cannot reach acceptance")
                best.append(b)
                choice.append(ch)
    return comp, best, choice, None


_IDLE = ("idle",)
_DONE = ("done",)


def _nonconjugate_cycle(t: Nft, shift: dict[int, int]) -> tuple[int, Run, int, int] | None:
    """A cycle whose words are not conjugate by its anchor's shift, or None.

    t is trimmed and shift its consistent potential.  Returns (p, run, i,
    j) where the run goes from p to itself over some (u, v), j - i equals
    s_p exactly (hence modulo |u|), and u_i != v_j; 1-based positions.
    None means no cycle of any length violates conjugacy, which for a
    length-preserving transducer is exactly boundedness.

    The search runs over (state, phase) pairs, the phase being what the
    witness pair needs next: nothing chosen yet (IDLE), one letter
    captured with the distance until the other stream reaches its partner
    position, or the mismatch confirmed (DONE).  An input letter at
    offset o of a transition leaving q has its partner at offset
    s_q + o of that transition's output, whatever the anchor, so one
    breadth-first search from every (q, IDLE) covers all anchors.  It
    follows only transitions inside one strongly connected component of
    the state graph: a DONE reached from (p, IDLE) closes into a cycle at
    p by any path back inside that component, and every violating cycle,
    iterated enough times, contains a pair at exact offset s_p, so the
    search is complete.
    """
    adj = _by_src(t)
    first = list(accumulate(map(len, adj), initial=0))
    dst = [tr.dst for row in adj for _, tr in row]
    lab = [idx for row in adj for idx, _ in row]
    comp = _value_components(first, dst, [0] * len(dst), lab, t.finals)[0]
    parent: dict[tuple, tuple | None] = {(q, _IDLE): None for q in range(t.num_states)}
    queue = deque(parent)
    while queue:
        key = queue.popleft()
        state, phase = key
        sq = shift[state]
        for idx, tr in adj[state]:
            if comp[tr.dst] != comp[state]:
                continue
            x, y = tr.input, tr.output
            succs = []
            if phase is _IDLE:
                # staying IDLE is not a step: every (q, IDLE) is a source
                for o in range(1, len(x) + 1):
                    jo = sq + o
                    if jo > len(y):
                        succs.append((("wo", x[o - 1], jo - len(y)), ("seta", o)))
                    elif jo >= 1 and x[o - 1] != y[jo - 1]:
                        succs.append((_DONE, ("setab", o, jo)))
                for o2 in range(1, len(y) + 1):
                    io = o2 - sq
                    if io > len(x):
                        succs.append((("wi", y[o2 - 1], io - len(x)), ("setb", o2)))
            elif phase[0] == "wo":
                _, a, d = phase
                if d <= len(y):
                    if a != y[d - 1]:
                        succs.append((_DONE, ("resb", d)))
                else:
                    succs.append((("wo", a, d - len(y)), None))
            else:  # "wi"
                _, bl, d = phase
                if d <= len(x):
                    if bl != x[d - 1]:
                        succs.append((_DONE, ("resa", d)))
                else:
                    succs.append((("wi", bl, d - len(x)), None))
            for nphase, marker in succs:
                nk = (tr.dst, nphase)
                if nk in parent:
                    continue
                parent[nk] = (key, (idx, marker))
                if nphase is _DONE:
                    return _rebuild_cycle(t, adj, comp, parent, nk, shift)
                queue.append(nk)
    return None


def _rebuild_cycle(t: Nft, adj, comp, parent, done, shift) -> tuple[int, Run, int, int]:
    """The (p, run, i, j) of _nonconjugate_cycle from the search's parent
    links to the DONE node `done`, closed by a shortest path back to p
    inside p's component."""
    steps = _parent_chain(parent, done)
    p = t.transitions[steps[0][0]].src
    c = comp[p]
    closing = _bfs_path(
        done[0], {p}, lambda q: ((idx, tr.dst) for idx, tr in adj[q] if comp[tr.dst] == c)
    )
    n_r = n_w = 0
    i = j = None
    for idx, marker in steps:
        tr = t.transitions[idx]
        if marker is not None:
            kind = marker[0]
            if kind == "seta":
                i = n_r + marker[1]
            elif kind == "setb":
                j = n_w + marker[1]
            elif kind == "setab":
                i = n_r + marker[1]
                j = n_w + marker[2]
            elif kind == "resb":
                j = n_w + marker[1]
            elif kind == "resa":
                i = n_r + marker[1]
        n_r += len(tr.input)
        n_w += len(tr.output)
    if i is None or j is None:
        raise AssertionError("nonconjugate cycle lacks a witness position")
    if j - i != shift[p]:
        raise AssertionError("witness positions are not offset by the anchor shift")
    return p, Run(tuple(idx for idx, _ in steps) + closing), i, j


def _prepare(t: Nft, max_configs: int) -> DeviationResult | _Graph:
    """The finished result when the verdict is EMPTY, NOT_LENGTH_PRESERVING
    or UNBOUNDED, otherwise the valued configuration graph for
    _longest_path."""
    if max_configs < 1:
        raise ValueError("max_configs must be at least 1")
    trimmed, state_map, trans_map = trim_with_maps(t)
    bounds = Bounds.from_nft(trimmed)
    if trimmed.num_states == 0:
        return DeviationResult(verdict=Verdict.EMPTY, bounds=bounds, value=0)

    sa = _shift_potential(trimmed)
    shift = _map_shift(sa, state_map, trans_map)
    if not sa.consistent:
        witness = _unbalanced_accepting_run(trimmed, sa.conflict_witness)
        return DeviationResult(
            verdict=Verdict.NOT_LENGTH_PRESERVING,
            bounds=bounds,
            witness=_map_run(witness.transitions, trans_map),
            shift=shift,
        )

    state, first, dst, wt, lab, pred, starts, accepts = _build_graph(
        trimmed, sa, bounds, max_configs
    )
    # Every configuration reaches an accepting one (see the module
    # docstring), so a positive edge inside a component pumps.
    comp, best, choice, pumped = _value_components(first, dst, wt, lab, accepts)
    g = _Graph(
        trimmed=trimmed,
        state_map=state_map,
        trans_map=trans_map,
        bounds=bounds,
        shift=shift,
        state=state,
        first=first,
        dst=dst,
        wt=wt,
        lab=lab,
        pred=pred,
        starts=starts,
        accepts=accepts,
        comp=comp,
        best=best,
        choice=choice,
    )
    if pumped is not None:
        return _unbounded_result(g, *pumped)
    return g


def _within(g: _Graph, c: int):
    """The edges argument of _bfs_path for the edges inside component c."""
    first, dst, lab, comp = g.first, g.dst, g.lab, g.comp
    return lambda u: (
        (lab[e], dst[e]) for e in range(first[u], first[u + 1]) if comp[dst[e]] == c
    )


def _config_prefix(g: _Graph, u: int) -> tuple[int, ...]:
    """Transitions of the breadth-first path from a start to u."""
    steps: list[int] = []
    while g.pred[u] >= 0:
        p = g.pred[u]
        steps.append(g.lab[g.dst.index(u, g.first[p], g.first[p + 1])])
        u = p
    steps.reverse()
    return tuple(steps)


def _unbounded_result(g: _Graph, u: int, v: int, ti: int) -> DeviationResult:
    first, dst, lab = g.first, g.dst, g.lab
    cycle = (ti,) + _bfs_path(v, {u}, _within(g, g.comp[u]))
    prefix = _config_prefix(g, u)
    suffix = _bfs_path(
        u, g.accepts, lambda x: ((lab[e], dst[e]) for e in range(first[x], first[x + 1]))
    )
    return DeviationResult(
        verdict=Verdict.UNBOUNDED,
        bounds=g.bounds,
        cycle_witness=_map_run(cycle, g.trans_map),
        anchor_state=g.state_map[g.state[u]],
        cycle_prefix=_map_run(prefix, g.trans_map),
        cycle_suffix=_map_run(suffix, g.trans_map),
        shift=g.shift,
    )


def _longest_path(g: _Graph) -> DeviationResult:
    """The BOUNDED result: the best start, and a witness rebuilt by
    following each component's choice; ties go to the smallest node id."""
    start = max(g.starts, key=lambda s: (g.best[g.comp[s]], -s))
    value = g.best[g.comp[start]]

    steps: list[int] = []
    cur = start
    while cur is not None:
        c = g.comp[cur]
        u, v, ti = g.choice[c]
        steps.extend(_bfs_path(cur, {u}, _within(g, c)))
        if v is not None:
            steps.append(ti)
        cur = v

    u, vv = run_words(g.trimmed, Run(tuple(steps)))
    if hamming_distance(u, vv) != value:
        raise AssertionError("witness must realize the computed deviation")
    if value > g.bounds.B:
        raise AssertionError("bounded deviation exceeds the quadratic bound")
    return DeviationResult(
        verdict=Verdict.BOUNDED,
        bounds=g.bounds,
        value=value,
        witness=_map_run(steps, g.trans_map),
        shift=g.shift,
    )


def analyze_deviation(t: Nft, max_configs: int = DEFAULT_MAX_CONFIGS) -> DeviationResult:
    """Full deviation analysis of an arbitrary Nft (trims internally).

    Raises StateBudgetExceeded when the configuration graph would exceed
    max_configs nodes, and ValueError when max_configs is below 1.
    """
    prepared = _prepare(t, max_configs)
    if isinstance(prepared, DeviationResult):
        return prepared
    return _longest_path(prepared)


def is_bounded(t: Nft) -> bool:
    """True iff the deviation is finite (the empty relation counts as 0).

    Decided in polynomial time without the configuration graph: trim,
    propagate the shift potential (an inconsistency means not length
    preserving, hence unbounded), then search the (state, phase) product
    for a cycle that breaks conjugacy by its anchor's shift; the deviation
    is finite exactly when there is none.

    analyze_deviation, threshold and exact still decide UNBOUNDED in
    their walk of the configuration graph, which they need for the value
    anyway: running this search first measured as pure overhead on them
    (about 18% of each bounded threshold and analyze query of the reach
    benchmark workload, parsing included).
    """
    trimmed = trim(t)
    if trimmed.num_states == 0:
        return True
    sa = _shift_potential(trimmed)
    return sa.consistent and _nonconjugate_cycle(trimmed, sa.per_state) is None


def threshold(t: Nft, k: int, max_configs: int = DEFAULT_MAX_CONFIGS) -> bool:
    """True iff the deviation is at most k.

    k may be arbitrarily large (it arrives in binary from the CLI); when
    k is at least the quadratic bound B the answer for a bounded
    transducer is True without computing the exact value.
    """
    if k < 0:
        raise ValueError("threshold expects a natural number")
    prepared = _prepare(t, max_configs)
    if isinstance(prepared, DeviationResult):
        return prepared.verdict is Verdict.EMPTY
    if k >= prepared.bounds.B:
        return True
    return _longest_path(prepared).value <= k


def exact(t: Nft, k: int, max_configs: int = DEFAULT_MAX_CONFIGS) -> bool:
    """True iff the deviation is finite and equal to k."""
    if k < 0:
        raise ValueError("exact expects a natural number")
    res = analyze_deviation(t, max_configs)
    if res.verdict is Verdict.EMPTY:
        return k == 0
    if res.verdict is Verdict.BOUNDED:
        return res.value == k
    return False
