"""Bounded-witness searches for the deviation properties.

These procedures mirror the nondeterministic small-witness algorithms of
the analysis: instead of guessing a run, they do breadth-first search
over a finite product of the state with the few counters the guess would
carry (length-class shift, one or two tracked letters, pending mark
distances).  They are independent of the configuration-graph walk and
are used to cross-validate it; every returned witness re-verifies by
recomputing words and distances.  find_nonconjugate_cycle is the
engine's own boundedness search (the one is_bounded answers from) behind
this module's argument checks.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .core import Nft, Run
from .engine import ShiftAssignment, _by_src, _nonconjugate_cycle, shift_assignment
from .transform import is_trim


def _walk_back(parent, key):
    steps = []
    while parent[key] is not None:
        key, payload = parent[key][0], parent[key][1:]
        steps.append(payload)
    steps.reverse()
    return steps


def find_short_unbalanced_accepting_run(t: Nft) -> Run | None:
    """An accepting run of length at most |Q| with |u| != |v|, or None.

    Together with find_short_unbalanced_cycle returning None this
    certifies that a trimmed transducer is length-preserving.
    """
    n = t.num_states
    adj = _by_src(t)
    parent = {}
    level = []
    for q in sorted(t.initials):
        key = (q, 0)
        if key not in parent:
            parent[key] = None
            level.append(key)
    for _ in range(n):
        nxt = []
        for key in level:
            state, s = key
            for idx, tr in adj[state]:
                nk = (tr.dst, s + tr.shift)
                if nk in parent:
                    continue
                parent[nk] = (key, idx)
                if tr.dst in t.finals and nk[1] != 0:
                    return Run(tuple(step[0] for step in _walk_back(parent, nk)))
                nxt.append(nk)
        level = nxt
    return None


def find_short_unbalanced_cycle(t: Nft) -> tuple[int, Run] | None:
    """A cycle of length at most |Q| with nonzero shift, or None."""
    n = t.num_states
    adj = _by_src(t)
    for p in range(n):
        parent = {(p, 0): None}
        level = [(p, 0)]
        for _ in range(n):
            nxt = []
            for key in level:
                state, s = key
                for idx, tr in adj[state]:
                    nk = (tr.dst, s + tr.shift)
                    if nk in parent:
                        continue
                    parent[nk] = (key, idx)
                    if tr.dst == p and nk[1] != 0:
                        run = Run(tuple(step[0] for step in _walk_back(parent, nk)))
                        return p, run
                    nxt.append(nk)
            level = nxt
    return None


def find_nonconjugate_cycle(
    t: Nft, s: ShiftAssignment
) -> tuple[int, Run, int, int] | None:
    """A cycle whose words are not conjugate by the anchor state's shift.

    Returns (p, run, i, j) where the run goes from p to itself over some
    (u, v), j - i equals s_p exactly (hence modulo |u|), and u_i != v_j;
    1-based positions.  Returns None iff no cycle of any length violates
    conjugacy, which for a length-preserving transducer is exactly
    boundedness.  This is the engine's polynomial (state, phase) search,
    the one is_bounded decides with.
    """
    if not is_trim(t):
        raise ValueError("find_nonconjugate_cycle requires a trimmed Nft")
    if not s.consistent:
        raise ValueError("find_nonconjugate_cycle requires a length-preserving Nft")
    return _nonconjugate_cycle(t, s.per_state)


def _mark_subsets(marks):
    out = [()]
    for size in range(1, len(marks) + 1):
        out.extend(combinations(marks, size))
    return tuple(out)


def find_threshold_witness(t: Nft, k: int) -> Run | None:
    """An accepting run whose words mismatch in more than k positions.

    Requires a trimmed, length-preserving transducer.  Returns None iff
    no accepting run of any length has more than k mismatches, i.e. the
    deviation is at most k.

    Search over (state, pending marks, confirmed count): a mark commits a
    chosen position to be a mismatch, remembering its letter and the
    distance until the opposite stream reaches it; positions compared
    within a single transition are counted directly.  Pending distances
    never exceed the largest state shift plus a transition length, so the
    product is finite.
    """
    if k < 0:
        raise ValueError("threshold witness expects a natural number")
    sa = shift_assignment(t)  # also enforces trimming
    if not sa.consistent:
        raise ValueError("find_threshold_witness requires a length-preserving Nft")
    if t.num_states == 0:
        return None
    cap = k + 1

    # Static per-transition data: the joint mismatch gain and the markable
    # positions only depend on the source state's shift.
    table: list[list[tuple]] = [[] for _ in range(t.num_states)]
    for idx, tr in enumerate(t.transitions):
        d0 = sa.per_state[tr.src]
        x, y = tr.input, tr.output
        gain = 0
        in_marks = []
        out_marks = []
        for o in range(1, len(x) + 1):
            jo = d0 + o
            if jo > len(y):
                in_marks.append((jo - len(y), x[o - 1]))
            elif jo >= 1 and x[o - 1] != y[jo - 1]:
                gain += 1
        for o2 in range(1, len(y) + 1):
            io = o2 - d0
            if io > len(x):
                out_marks.append((io - len(x), y[o2 - 1]))
        if in_marks and out_marks:
            raise AssertionError("marks cannot straddle both streams")
        options = [((), 0)]
        options.extend((chosen, 1) for chosen in _mark_subsets(tuple(in_marks))[1:])
        options.extend((chosen, -1) for chosen in _mark_subsets(tuple(out_marks))[1:])
        table[tr.src].append((idx, tr.dst, gain, x, y, tuple(options)))

    def accepting(key):
        state, _, pend, c = key
        return state in t.finals and not pend and c >= cap

    parent = {}
    queue = deque()
    for q in sorted(t.initials):
        key = (q, 0, (), 0)
        if key not in parent:
            parent[key] = None
            queue.append(key)  # cap >= 1, so start nodes never accept

    while queue:
        key = queue.popleft()
        state, side, pend, c = key
        for idx, dst, gain, x, y, options in table[state]:
            # Resolve the pending marks the opposite stream now reaches; a
            # mark whose letters turn out equal kills this continuation.
            total = c + gain
            carried = ()
            dead = False
            if pend:
                opposite = y if side > 0 else x
                keep = []
                for d, letter in pend:
                    if d <= len(opposite):
                        if letter == opposite[d - 1]:
                            dead = True
                            break
                        total += 1
                    else:
                        keep.append((d - len(opposite), letter))
                carried = tuple(keep)
            if dead:
                continue
            total = min(total, cap)
            for chosen, mark_side in options:
                if chosen and carried and side != mark_side:
                    raise AssertionError("pending marks on both sides")
                npend = tuple(sorted(carried + chosen))
                nside = (side if carried else mark_side) if npend else 0
                nk = (dst, nside, npend, total)
                if nk in parent:
                    continue
                parent[nk] = (key, idx)
                if accepting(nk):
                    return Run(tuple(step[0] for step in _walk_back(parent, nk)))
                queue.append(nk)
    return None
