"""Deterministic deviation analysis.

The engine decides, for an NFT, whether the Hamming distance between
input and output is unbounded over the accepted pairs, and computes the
exact supremum when it is finite:

1. trim (at smax = 0 the longest paths do it; see below, and
   reductions.compare says its product is trim already); an empty result
   means the relation is empty (deviation 0);
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
taken untrimmed, from the initial states with the final ones as accepts,
each transition weighing its mismatches.  The upper bound U below counts
lag letters only where some state shifts, so here it is the longest path
over the condensation: the deviation itself.
_components finds the strongly connected components reached from the
initial states, and _longest_paths values them in pop order, which does
the trim.  A component that reaches no final state is dead and the edges
into it are skipped; a dead state reaches no live one, so the live
components, their values and tie-breaks, and the shortest paths of the
witnesses are those of trim(t), whose ids keep t's order, and every
answer is trim(t)'s in t's ids.  A positive transition inside a live
component closes into a pumpable cycle: the first in pop order gives
UNBOUNDED, and stands for the search below, so no probe is built for it
(no probe weight changes that answer).  Otherwise L = U, and every
question answers by the shared steps below with no search and no
configuration walked.  Trim is then needed only at smax > 0, where the
shift potential needs it (trim(t) has smax = 0 whenever t does).  This
route is linear in the transducer, so no budget applies to it.  The
state graph's rows (_state_rows, built in one pass over the transitions)
are the engine's one adjacency: the shift potential, the components and
the shortest paths read them too.  Their edges carry mismatch weights
only at smax = 0, where they are U's rows; at b > 0 _upper_bound builds
U's rows for the longest paths.

When b > 0 the INF verdict needs no configuration graph: a
length-preserving transducer has finite deviation exactly when no cycle
breaks conjugacy by its anchor's shift, which _nonconjugate_cycle decides
in polynomial time by one breadth-first search over (state, phase) pairs
inside the strongly connected components of the state graph, a phase
being idle, a confirmed mismatch, or one letter waiting on the other
stream for its partner; a scan of the closed cycle's words then finds
the positions.  A state whose one move inside its component is a
self-loop (x, y) is its own component, and its cycles x^j / y^j have
period |x| on both streams, so one period decides it in closed form: a
conjugate one stays out of the search.  Keys of different components
never meet and a left-out one confirms no mismatch, so every other key
is popped in the same order with the same parent link and each answer
is the full search's; on T_n, whose every cycle is such a loop, no pair
is queued.  A question that reaches the search (below) takes
UNBOUNDED from its cycle; analyze_deviation adds shortest state-graph
paths as prefix and suffix, and the other questions, which answer False,
build none.

A fusable state is neither initial nor final and has one outgoing
transition; the others are kept.  An edge of the graph is a chain, a
transition from a kept state followed through fusable states to the next
kept state, and the chains are exactly the runs between kept states
(_configurations).  Every run the walk finds is unfolded to the trimmed
transitions before it is checked and mapped back to the original ids.

_longest_paths is the engine's one longest-path pass over a
condensation, run once per question on both routes over the components
from the initial states: at smax = 0 on the weighted state rows with no
bonus, at b > 0 on the rows and entry bonus of U that _upper_bound
builds, whose inner edges weigh 0, so that the search decides UNBOUNDED
there.  It gives U and the best-first walk's h.

The four public questions take one route, _analyze.  analyze_deviation
asks for the whole result; is_bounded, threshold and exact ask whether
the deviation lies in [lo, hi], namely [0, INF], [0, k] and [k, k], and
get the answer as soon as it is known.  A verdict other than BOUNDED
answers from the value 0 (EMPTY) or False.  Every question first takes,
from the state graph's condensation, an upper bound U and, where needed,
a probe, an accepting run along the path U maximises, of weight L
(_upper_bound and _run_along; L = U = v on T_n and at smax = 0); at b > 0
the longest paths also check that every state reaches acceptance.  A
finite deviation lies in [L, U]:
  - lo > U (exact at k > U) answers False at once;
  - lo = 0 and U <= hi (is_bounded, and threshold at k >= U) answers
    from the search alone, True when it finds the deviation finite, so
    is_bounded walks at most the state graph and needs no budget;
  - otherwise L > hi answers False before the search, since that run
    refutes [lo, hi] whether or not the deviation is finite, and once
    the search finds it finite, L = U answers BOUNDED with value U and
    the probe as witness,
all with no configuration walked.  Otherwise, with L < U, the
configuration graph is walked best first (_best_first, an A* search):
each configuration has priority f = g + h(q), g its best known prefix
weight and h(q) U's argument applied from its state q, which bounds what
any run from q can still gain.  The walk looks only for runs heavier
than a floor, leaving out every configuration with f <= floor:
  - analyze_deviation takes floor L; each accepting configuration with g
    > L is a goal, and the first goal to pop, once no f left exceeds it,
    weighs the deviation and is the witness; with none, the deviation is
    L and the probe the witness;
  - threshold, and exact at k = L, take floor hi: the first accepting
    configuration with g > hi answers False, and none answers True;
  - exact at k > L takes floor k - 1: a g > k answers False, the goal
    weighing k True, and none False.
Each run is rebuilt along the walk's parent links and checked.  A budget
that stops the walk reports the bracket [max(L, heaviest accepting g
met), min(U, f of the configuration being expanded)].

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
from heapq import heapify, heappop, heappush
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import repeat
from operator import ne

from .core import INF, ExtendedNat, Nft, Run, hamming_distance, run_words, stats
from .transform import is_trim, trim_with_maps

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


def _components(rows, starts) -> tuple[list[int], list]:
    """Tarjan's strongly connected components of the graph whose node u
    has the (v, weight, transition) edges rows[u], from the nodes `starts`
    in order: (comp, order).  order lists the components as they pop,
    which is reverse topological (every edge leaving a component reaches
    one listed before it), each as its members in node order; comp[u] is
    the index of u's component there, or -1 when no start reaches u.

    The node being scanned lives in locals (node, row cursor, low link)
    and each tree edge of the DFS path is one saved frame.  A popped node's
    DFS number becomes len(rows), so it never undercuts a low link.
    """
    n = len(rows)
    index = [-1] * n
    comp = [-1] * n
    order: list = []
    stack: list[int] = []
    frames: list[tuple] = []  # the DFS path above the node being scanned
    tick = 0
    for v in starts:
        if index[v] >= 0:
            continue
        index[v] = low = tick
        tick += 1
        stack.append(v)
        cursor = iter(rows[v])
        while True:
            for w, _, _ in cursor:
                i = index[w]
                if i < 0:
                    frames.append((v, cursor, low))
                    index[w] = low = tick
                    tick += 1
                    stack.append(w)
                    v, cursor = w, iter(rows[w])
                    break
                if i < low:
                    low = i
            else:
                if low == index[v]:
                    if stack[-1] == v:
                        # one node, the common case (every component of an
                        # acyclic graph)
                        stack.pop()
                        index[v] = n
                        comp[v] = len(order)
                        order.append((v,))
                    else:
                        # the stack is in DFS order; v's component is the
                        # part from v up
                        height = bisect_left(stack, low, key=index.__getitem__)
                        members = sorted(stack[height:])
                        del stack[height:]
                        for m in members:
                            index[m] = n
                            comp[m] = len(order)
                        order.append(members)
                if not frames:
                    break
                x = low
                v, cursor, low = frames.pop()
                if x < low:
                    low = x
    return comp, order


def _longest_paths(rows, comp, order, finals, bonus):
    """The heaviest path to a final state from every node, over the
    condensation (_components' comp and order), the one longest-path pass
    of the engine: (enter, exits, pumped).  An edge weighs the weight of
    its (v, weight, transition) row entry, and a path entering a node v
    gains bonus[v] there.

    The components are valued in pop order, so every edge leaving one
    reaches a component whose value is final.  leave(C) is the max of 0,
    when C has a final state, and of weight(d) + enter(dst d) over the
    transitions d leaving C; enter(v) = bonus(v) + leave(v's component),
    and enter[v] = -1 when v reaches no final state (its component is
    dead; edges into it are skipped) or no start reaches it.  Members are
    scanned in node order and each row in order, the first final member
    first and then strictly heavier exits, so ties go to the first member
    and then the first transition; exits[C] = (m, d) keeps the member m
    and the transition d that gave leave(C), or (m, None) when the path
    ends at the final member m.  pumped is the first (u, transition) of
    positive weight inside a component that reaches a final state, over
    the components in pop order, or None.
    """
    enter = [-1] * len(rows)
    exits = []
    pumped = None
    for c, members in enumerate(order):
        best, top, via, inner = -1, None, None, None
        for m in members:
            if m in finals:
                best, top = 0, m
                break
        for u in members:
            for v, wt, ti in rows[u]:
                x = enter[v]
                if x >= 0:
                    x += wt
                    if x > best:
                        best, top, via = x, u, ti
                elif wt and inner is None and comp[v] == c:
                    # v is a member: this edge closes a cycle
                    inner = (u, ti)
        exits.append((top, via))
        if best >= 0:
            pumped = pumped or inner
            for m in members:
                enter[m] = best + bonus[m]
    return enter, exits, pumped


def _upper_bound(t: Nft, comp, shift: dict[int, int]):
    """(rows, bonus) of U for a trimmed length-preserving t, comp being
    its components (_components): the state graph with U's weights, and
    the entry bonus.  _longest_paths over them gives enter(q), which
    bounds, from any configuration at q, the weight still to come once
    the search has found the deviation finite: the best-first walk's h;
    U = max enter(q) over the initial states.

    The entry bonus is |s_q| when q's component is cyclic and 0
    otherwise.  A transition inside a component weighs 0, and a
    transition d between components, from p, weighs min(|s_p|, |fixed|) +
    sure(d): of the positions it compares (the words of _configurations),
    the first min(|s_p|, |fixed|) hold lag letters, and the rest compare
    its joined word against its fixed word past those, sure(d) being
    their mismatches, which every run through d makes whatever its lag.
    A run enters each component once and leaves it for good.  Two letters
    written within one visit never mismatch, or the search would have
    found the pair as a (state, phase) path inside the component.  So a
    mismatch is compared either on a transition d between components,
    where it meets a lag letter or is one of sure(d), or inside a cyclic
    component against the |s_q| letters of lag the run entered it with at
    q.  d weighs at most |fixed| <= lmax, the positions it compares, and a
    run crosses at most |Q| components, so v <= U <= (b + lmax) * |Q| < B.
    At smax = 0 every s_p is 0 and no bonus applies, so U is the longest
    mismatch path, the deviation itself; _analyze takes it there from the
    weighted state rows it has built already.

    The probe (_run_along with these exits and bonus, from the argmax
    initial state, ties going to the smallest id) walks the path U
    maximises.  On T_n it is the run the paper's k_i = i - 1 gives.  It is
    a run of t, so its weight L is at most the deviation v; L = U proves
    v = U.
    """
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(t.num_states)]
    cyclic = set()
    for ti, (src, x, y, dst) in enumerate(t.transitions):
        c = comp[src]
        weight = 0
        if c == comp[dst]:
            cyclic.add(c)
        else:
            s = abs(shift[src])
            joined, fixed = (x, y) if shift[src] >= 0 else (y, x)
            weight = min(s, len(fixed)) + sum(map(ne, joined, fixed[s:]))
        rows[src].append((dst, weight, ti))
    return rows, [abs(shift[q]) if comp[q] in cyclic else 0 for q in range(t.num_states)]


def _run_along(t: Nft, rows, comp, exits, bonus, q: int) -> list[int]:
    """Transitions of the run from q along the exits of _longest_paths: at
    each entry q of a component with bonus[q] > 0 it loops a shortest
    cycle through q, of input length l, ceil(bonus[q] / l) times (none
    when l = 0), so that the |s_q| letters of lag it entered with are
    compared in full; then it takes a shortest path inside the component
    to the member the component's exit leaves by, and that exit.  Each
    component adds at most b cycles and one path, of at most |Q|
    transitions each, so the run has O(b * |Q|^2) transitions."""
    steps: list[int] = []
    while True:
        if bonus[q]:
            cycle = _shortest_cycle(rows, q, comp)
            ell = sum(len(t.transitions[ti].input) for ti in cycle)
            if ell:
                steps += cycle * -(-bonus[q] // ell)
        m, d = exits[comp[q]]
        steps += _bfs_path(rows, (q,), {m}, comp)
        if d is None:
            return steps
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

    parent[x] is (predecessor, label), or None at a root.  Links that
    close a cycle raise: a path over distinct nodes has fewer links than
    parent has entries.
    """
    steps: list[int] = []
    while parent[q] is not None:
        if len(steps) == len(parent):
            raise AssertionError("parent links close a cycle")
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


def _state_rows(t: Nft, weighted: bool = False) -> list[list[tuple[int, int, int]]]:
    """The state graph of t: per state its (dst, weight, transition) edges
    in transition order, the shape of the configuration graph's rows.  The
    weight is the mismatch count when `weighted` and 0 otherwise.  When
    smax = 0 every lag is empty, and the weighted rows are those of the
    configuration graph and U's, whose longest paths give the deviation;
    at smax > 0 no reader uses the weights (_upper_bound weighs its own
    rows)."""
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(t.num_states)]
    for ti, (src, x, y, dst) in enumerate(t.transitions):
        rows[src].append((dst, sum(map(ne, x, y)) if weighted and x != y else 0, ti))
    return rows


def _configurations(
    trimmed: Nft, rows, fusable, shift: dict[int, int], b: int, max_configs: int, h=None,
    bracket=None,
):
    """The configuration graph as a walk unfolds it: (expand, state, lags,
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

    Node ids number the configurations (q, lag) in creation order, the
    starts first; state[u] and lags[u] are u's state and lag, and each
    state keeps a dict from lag to node id.  expand(u) returns u's row of
    (v, weight, transition) edges, creating the targets it meets first.
    With h, a bound per state, expand(u, room) leaves out every edge whose
    weight plus h at its target is at most room, before it creates the
    target.  A lag is a packed int: each
    letter is its index in the sorted alphabet, in w = max(1,
    ceil(log2 |alphabet|)) bits, the first letter most significant.  The
    lag at q holds exactly |s_q| letters, so the int alone identifies it
    among q's configurations, and every stream length along a transition
    is fixed.  The lag joins the input when s_src >= 0 and the output when
    s_src < 0 (the joined stream; the other word is the fixed one); the
    overlap of the two streams is compared and the rest of the longer one
    is the new lag.  A transition's plan is (transition, dst, dst's dict,
    dst is final, shift, joined, cut, other, tail, rest, h at dst): the
    joined stream is (lag << shift) | joined, its top letters (>> cut) are
    compared with `other`, the overlap of the fixed word, and the new lag
    is (joined stream & tail) | rest, rest being the tail of the fixed
    word when that one is longer; building the plan checks once that the
    new lag holds |s_dst| letters.  The mismatches are the nonzero w-bit
    digits of the xor: with w > 1 each digit's bits are or-folded into its
    lowest bit, kept by a digit mask as wide as the longest overlap.
    s_f = 0, so a configuration at a final state has the empty lag and
    accepts.  Creating one configuration more than max_configs raises
    StateBudgetExceeded; with bracket, a callable giving (lo, hi) at that
    moment, its message ends with the interval the deviation lies in.
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
        while fusable[dst]:
            # follow the chain, as _unfold does
            ((_, _, ni),) = rows[dst]
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
             cut, word >> spare, (1 << cut) - 1, word & (1 << spare) - 1, 0 if h is None else h[dst])
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
            message += ", deviation in [{}, {}]".format(*bracket())
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

    def expand(u: int, room: int = -1) -> list[tuple[int, int, int]]:
        lag = lags[u]
        row = []
        for ti, r, ids, final, shift, joined, cut, other, tail, rest, hr in plans[state[u]]:
            stream = lag << shift | joined
            d = stream >> cut ^ other
            if wide and d:
                f = d
                for j in folds:
                    f |= d >> j
                d = f & digits
            d = d.bit_count()
            if d + hr <= room:
                continue
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
            row.append((v, d, ti))
        return row

    return expand, state, lags, starts, accepts


def _unfold(trimmed: Nft, rows, fusable, steps: list[int]) -> list[int]:
    """The trimmed transitions of a walk's run of chains, each named by its
    first transition."""
    run = []
    for ti in steps:
        run.append(ti)
        q = trimmed.transitions[ti].dst
        while fusable[q]:
            ((q, _, ti),) = rows[q]
            run.append(ti)
    return run


def _best_first(configurations, h, upper: int, lower: int, floor: int, hi: ExtendedNat):
    """Best-first walk (A*) of the configuration graph of a length-
    preserving transducer whose deviation the search has found finite, for
    an accepting run heavier than floor.  configurations(bracket) builds
    the graph (_configurations with h as the bound per state); h[q] =
    enter(q) over U's rows (_upper_bound) bounds the weight any
    configuration at q can still gain, U's argument applied from q.  upper is U and lower L,
    the probe's weight, and floor >= L.

    A configuration u with best known prefix weight g has priority f = g +
    h[state u], which bounds every accepting run through u; the heap pops
    the largest f, ties going to the larger g and then to the smaller node
    id.  An edge to v whose f is at most floor is left out, before v is
    created; v is pushed (again) only when the edge strictly improves its
    best g, and its one parent link is then that edge.  h is consistent on
    edges between components but may not be inside a cyclic one, where a
    lag grows while letters are compared: the second push keeps the walk
    exact.  Every cycle weighs 0, so the parent links form a tree and an
    improved g reaches every configuration below it before the walk can
    end.  The heaviest accepting g in (floor, hi] seen so far is the goal;
    it pops, and the walk ends, once no f left exceeds it.

    Returns (steps, g): the chains of the run along the parent links to
    the first accepting configuration with g > hi, or to the goal that
    popped, whose g is at most hi; None when no accepting run weighs more
    than floor.  A budget stop reports [max(L, heaviest accepting g met),
    min(U, f of the configuration being expanded)]: the popped f is the
    largest left, so no run left outweighs it.  A popped g above U, or
    parent links that close a cycle, can only come of a positive cycle the
    search missed, and raise.
    """
    reached, top = lower, upper
    expand, state, _, starts, accepts = configurations(lambda: (reached, min(top, upper)))
    best = [-1] * len(state)
    parent: list[tuple[int, int] | None] = [None] * len(state)
    heap = []
    for u in starts:
        best[u] = 0
        if h[state[u]] > floor:
            heap.append((-h[state[u]], 0, u))
    heapify(heap)
    goal, goal_g = None, floor
    while heap:
        nf, ng, u = heappop(heap)
        g = -ng
        if g != best[u]:
            continue  # a stale entry: u was pushed again with a better g
        top = -nf
        if top <= goal_g:
            break
        if g > upper:
            raise AssertionError("configuration outweighs the upper bound U")
        row = expand(u, floor - g)
        grown = len(state) - len(best)
        if grown:
            best += repeat(-1, grown)
            parent += repeat(None, grown)
        for v, wt, ti in row:
            x = g + wt
            if x <= best[v]:
                continue
            best[v] = x
            parent[v] = (u, ti)
            if v in accepts:
                if x > hi:
                    return _parent_chain(parent, v), x
                if x > reached:
                    reached = x
                if x > goal_g:
                    goal, goal_g = v, x
            heappush(heap, (-x - h[state[v]], -x, v))
    return None if goal is None else (_parent_chain(parent, goal), goal_g)


def _nonconjugate_cycle(t: Nft, rows, shift, comp) -> tuple[int, Run, int, int] | None:
    """A cycle whose words are not conjugate by its anchor's shift, or None.

    t is trimmed, rows is _state_rows(t), shift its consistent potential
    and comp the component ids _components gives from every state.
    Returns (p, run, i, j) where the run goes from p to itself over some
    (u, v), j - i equals s_p exactly, and (i, j) is the first such pair
    with u_i != v_j; 1-based positions.
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
    in row order; the search order and the parent links are those of
    reading each popped state's whole row.  A pair is recorded by one
    setdefault, which keeps the first link of a pair met before.  Its
    links keep only transitions; _close_cycle finds the positions by a
    scan.

    A state q whose one move inside its component is a self-loop (x, y)
    is decided in closed form: q is then its own component, |x| = |y|
    since the potential is consistent, and its only cycles read x^j /
    y^j, whose streams both have period |x|, so they are all conjugate
    by s_q exactly when x[i] = y[(i + s_q) mod |x|] for every i < |x| (an
    empty loop is).  Such a q is left out of the search, which is seeded
    only with the states that keep a move, and returns None at once when
    none does.  This keeps every answer: the keys of different components
    never meet, and a left-out component never confirms a mismatch, so
    every other key is popped in the same order with the same parent
    link, and the (p, run, i, j) found is the same.  Where every cycle is
    such a loop, as on T_n, no (state, phase) pair is queued at all.
    """
    # per state, its transitions inside its component as (dst, transition,
    # (output, input)), in transition order, which is row order
    moves: list[list[tuple[int, int, tuple[str, str]]]] = [[] for _ in range(t.num_states)]
    for ti, (src, x, y, dst) in enumerate(t.transitions):
        if comp[src] == comp[dst]:
            moves[src].append((dst, ti, (y, x)))
    for q, row in enumerate(moves):
        if len(row) == 1 and row[0][0] == q:
            # a lone self-loop (x, y), |x| = |y| by the consistent potential
            y, x = row[0][2]
            s = shift[q]
            if all(a == y[(i + s) % len(y)] for i, a in enumerate(x)):
                row.clear()
    parent: dict[tuple, tuple | None] = {(q, None): None for q, row in enumerate(moves) if row}
    if not parent:
        return None
    queue = deque(parent)
    while queue:
        key = queue.popleft()
        state, phase = key
        if phase is None:
            # staying idle is not a step: every seeded (q, None) is a source
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

    def reply(**fields) -> DeviationResult | bool:
        res = DeviationResult(**fields)
        return res if question is None else res.bounded and lo <= res.value <= hi

    st = stats(t)
    # route on smax, never on b: a conflict met early can leave b = 0.  At
    # smax = 0 the longest paths do the trim, so the runs are in t's ids
    state_map, trans_map = range(t.num_states), range(len(t.transitions))
    if st.smax > 0 and not trimmed:
        trim, state_map, trans_map = trim_with_maps(t)
        if trim.num_states == 0:
            return reply(verdict=Verdict.EMPTY, bounds=Bounds(0, 0), value=0)
        if trim is not t:
            t, st = trim, stats(trim)
    rows = _state_rows(t, st.smax == 0)

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

    starts = sorted(t.initials)
    if st.smax > 0:
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
    comp, order = _components(rows, starts)
    # at smax = 0 every shift is 0, every lag is empty and the
    # configuration graph is the state graph: U's rows are its weighted
    # rows, with no bonus, and U is the deviation
    weights, bonus = (rows, [0] * t.num_states) if st.smax == 0 else _upper_bound(t, comp, shift)
    h, exits, pumped = _longest_paths(weights, comp, order, t.finals, bonus)
    start = max(starts, key=h.__getitem__, default=-1)
    if st.smax == 0:
        if start < 0 or h[start] < 0:
            # no initial state reaches a final one
            return reply(verdict=Verdict.EMPTY, bounds=Bounds(0, 0), value=0)
        # the states reached that reach a final state are trim(t)'s
        n = t.num_states - h.count(-1)
        kept = range(n) if n == t.num_states else {q for q, x in enumerate(h) if x >= 0}
        bounds = _zero_shift_bounds(t, st.lmax, kept)
    elif -1 in h:
        raise AssertionError("state cannot reach acceptance")
    upper = h[start]
    if question is not None and lo > upper:
        # a finite deviation is at most U < lo (exact at k > U)
        return False
    # [0, U] lies inside [0, hi] (is_bounded, threshold at k >= U): the
    # search alone answers, and no probe weight can change that answer;
    # nor can it at smax = 0 once an edge pumps
    inside = question is not None and lo == 0 and upper <= hi
    if not inside and (st.smax > 0 or pumped is None):
        probe = _run_along(t, rows, comp, exits, bonus, start)
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
    # at smax = 0 a positive edge inside a live component pumps
    found = pumped if st.smax == 0 else _nonconjugate_cycle(t, rows, shift, comp)
    if found is not None:
        if question is not None:
            return False
        # UNBOUNDED from a pumpable cycle at p, closed by a shortest path
        # back to p where it ends elsewhere; only analyze builds it
        p, cycle = found[:2]
        cycle = (cycle,) if st.smax == 0 else cycle.transitions
        cycle += _bfs_path(rows, (t.transitions[cycle[-1]].dst,), {p})
        return DeviationResult(
            verdict=Verdict.UNBOUNDED,
            bounds=bounds,
            cycle_witness=_map_run(cycle, trans_map),
            anchor_state=state_map[p],
            cycle_prefix=_map_run(_bfs_path(rows, starts, {p}), trans_map),
            cycle_suffix=_map_run(_bfs_path(rows, (p,), t.finals), trans_map),
        )
    if inside:
        return True
    if lower != upper and st.smax == 0:
        # U is the deviation there, and the probe walks its path
        raise AssertionError("witness must realize the computed deviation")
    if lower > upper:
        raise AssertionError("probe run outweighs the upper bound U")
    if lower == upper:
        # the deviation lies in [L, U] = {U}, and the probe weighs it
        return bounded(probe, upper)
    # walk for a run heavier than the floor: L for analyze, whose goals
    # give the value; hi where L already meets lo (threshold, exact at k =
    # L), so only a run past hi matters; lo - 1 otherwise (exact at k > L),
    # whose goal must weigh k
    floor = lower if question is None else hi if lo <= lower else lo - 1
    ends = t.initials | t.finals
    fusable = [len(row) == 1 and q not in ends for q, row in enumerate(rows)]
    graph = partial(_configurations, t, rows, fusable, shift, b, max_configs, h)
    found = _best_first(graph, h, upper, lower, floor, hi)
    if found is None:
        # no accepting run outweighs the floor, so the deviation lies in
        # [L, floor]: it is L for analyze, whose witness is the probe, and
        # the interval lies inside [lo, hi] or misses it
        return bounded(probe, lower)
    chains, g = found
    steps = _unfold(t, rows, fusable, chains)
    value = hamming_distance(*run_words(t, Run(tuple(steps))))
    if g > hi:
        if value <= hi:
            raise AssertionError("run heavier than the limit does not exceed it")
        return False
    if value != g:
        raise AssertionError("witness must realize the computed deviation")
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


def analyze_deviation(t: Nft, max_configs: int = DEFAULT_MAX_CONFIGS) -> DeviationResult:
    """Full deviation analysis of an arbitrary Nft; its bounds are those
    of trim(t).  At smax > 0 it trims internally; at smax = 0 the longest
    paths over the untrimmed state graph do the trim.

    Raises StateBudgetExceeded when the walk would create more than
    max_configs configurations, which can happen only when some
    transition shifts (at smax = 0 the longest paths over the state graph
    take no budget), and ValueError when max_configs is below 1.
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
    budget: at smax = 0 by the longest paths over the state graph,
    otherwise before any configuration is walked."""
    return _decide(t, "bounded")


def threshold(t: Nft, k: int, max_configs: int = DEFAULT_MAX_CONFIGS) -> bool:
    """True iff the deviation lies in [0, k], that is, is at most k; k may
    be arbitrarily large (it arrives in binary from the CLI)."""
    return _decide(t, "threshold", k, max_configs)


def exact(t: Nft, k: int, max_configs: int = DEFAULT_MAX_CONFIGS) -> bool:
    """True iff the deviation lies in [k, k], that is, is finite and equal
    to k."""
    return _decide(t, "exact", k, max_configs)
