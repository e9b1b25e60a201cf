"""Relation-preserving transducer transformations.

trim, atomize and add_eps_self_loops keep the recognized relation
unchanged; concat and union realize concatenation and union of the
relations.  All functions return new Nft values and never mutate their
inputs; the outputs are valid by construction and built unchecked.
Fresh states get deterministic names so that serialization is
reproducible.
"""

from __future__ import annotations

from collections import deque

from .core import Nft, Transition


def _unique_name(candidate: str, used: set[str]) -> str:
    name = candidate
    k = 1
    while name in used:
        k += 1
        name = f"{candidate}~{k}"
    used.add(name)
    return name


def _closure(seeds, adj) -> set[int]:
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for r in adj[q]:
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return seen


def _live_states(t: Nft) -> set[int]:
    """The states reachable from an initial state and co-reachable to a
    final one; both adjacency directions are built in one pass."""
    succ: list[list[int]] = [[] for _ in range(t.num_states)]
    pred: list[list[int]] = [[] for _ in range(t.num_states)]
    for src, _, _, dst in t.transitions:
        succ[src].append(dst)
        pred[dst].append(src)
    return _closure(t.initials, succ) & _closure(t.finals, pred)


def trim_with_maps(t: Nft) -> tuple[Nft, list[int], list[int]]:
    """Trim t and report which original states/transitions survive.

    Returns (trimmed, state_map, transition_map) where state_map[new_id]
    and transition_map[new_index] give the original identifiers.  When
    every state survives, trimmed is t itself and both maps are the
    identity.
    """
    kept = sorted(_live_states(t))
    if len(kept) == t.num_states:
        return t, kept, list(range(len(t.transitions)))
    new_id = {old: new for new, old in enumerate(kept)}
    transitions = []
    trans_map = []
    for i, tr in enumerate(t.transitions):
        if tr.src in new_id and tr.dst in new_id:
            transitions.append(Transition(new_id[tr.src], tr.input, tr.output, new_id[tr.dst]))
            trans_map.append(i)
    trimmed = Nft._trusted(
        tuple(t.states[q] for q in kept),
        t.alphabet,
        frozenset(new_id[q] for q in t.initials if q in new_id),
        frozenset(new_id[q] for q in t.finals if q in new_id),
        tuple(transitions),
        t.name,
    )
    return trimmed, kept, trans_map


def trim(t: Nft) -> Nft:
    """Keep exactly the states reachable from an initial state and
    co-reachable to a final one.  May return a 0-state Nft."""
    return trim_with_maps(t)[0]


def is_trim(t: Nft) -> bool:
    return len(_live_states(t)) == t.num_states


def atomize(t: Nft) -> Nft:
    """Equivalent input-atomic transducer: every transition reads at most
    one letter.

    A transition (p, u, v, q) with |u| > 1 becomes the chain
    (p, u1, v, m1)(m1, u2, eps, m2)...(m_{|u|-1}, u_last, eps, q) through
    fresh states named after the transition index and the letter offset.
    """
    states = list(t.states)
    used = set(states)
    transitions: list[Transition] = []
    for ti, tr in enumerate(t.transitions):
        if len(tr.input) <= 1:
            transitions.append(tr)
            continue
        prev = tr.src
        for k, letter in enumerate(tr.input):
            last = k == len(tr.input) - 1
            if last:
                nxt = tr.dst
            else:
                states.append(_unique_name(f"@{ti}.{k + 1}", used))
                nxt = len(states) - 1
            transitions.append(Transition(prev, letter, tr.output if k == 0 else "", nxt))
            prev = nxt
    return t._with(states=tuple(states), transitions=tuple(transitions))


def add_eps_self_loops(t: Nft) -> Nft:
    """Add an (eps, eps) self-loop on every state, skipping duplicates."""
    present = {(tr.src, tr.dst) for tr in t.transitions if tr.input == "" and tr.output == ""}
    extra = [Transition(q, "", "", q) for q in range(t.num_states) if (q, q) not in present]
    return t._with(transitions=t.transitions + tuple(extra))


def _merge_name(a: Nft, b: Nft) -> str:
    return a.name if a.name == b.name else f"{a.name}+{b.name}"


def _append(a: Nft, b: Nft, merge: tuple[int, int] | None = None):
    """(states, b_map, transitions): a's states and then b's, renamed apart,
    and a's transitions and then b's, remapped; b_map[q] is the new id of
    b's state q.  merge = (q, p) maps b's state q onto a's state p instead
    of a new state."""
    states = list(a.states)
    used = set(states)
    b_map = []
    for q, name in enumerate(b.states):
        if merge is not None and q == merge[0]:
            b_map.append(merge[1])
        else:
            states.append(_unique_name(name, used))
            b_map.append(len(states) - 1)
    transitions = list(a.transitions)
    transitions.extend(
        Transition(b_map[tr.src], tr.input, tr.output, b_map[tr.dst]) for tr in b.transitions
    )
    return states, b_map, transitions


def concat(a: Nft, b: Nft) -> Nft:
    """Concatenation of the relations: R = R_a . R_b.

    Preferred mode, when a has a unique final state without outgoing
    transitions and b a unique initial state without incoming ones, merges
    those two states.  Otherwise a fallback adds (eps, eps) bridges from
    every final of a to every initial of b.
    """
    merge = None
    if len(a.finals) == 1 and len(b.initials) == 1:
        (f,), (i,) = a.finals, b.initials
        if all(tr.src != f for tr in a.transitions) and all(tr.dst != i for tr in b.transitions):
            merge = (i, f)
    states, b_map, transitions = _append(a, b, merge)
    if merge is None:
        transitions.extend(
            Transition(f, "", "", b_map[i]) for f in sorted(a.finals) for i in sorted(b.initials)
        )
    return Nft._trusted(
        tuple(states),
        a.alphabet | b.alphabet,
        a.initials,
        frozenset(b_map[q] for q in b.finals),
        tuple(transitions),
        _merge_name(a, b),
    )


def union(a: Nft, b: Nft) -> Nft:
    """Disjoint union of the transducers: R = R_a | R_b."""
    states, b_map, transitions = _append(a, b)
    return Nft._trusted(
        tuple(states),
        a.alphabet | b.alphabet,
        a.initials | frozenset(b_map[q] for q in b.initials),
        a.finals | frozenset(b_map[q] for q in b.finals),
        tuple(transitions),
        _merge_name(a, b),
    )
