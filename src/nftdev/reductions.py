"""Distance-preserving reductions between the comparison problems (two
transducers over a shared domain) and the deviation problems (one
transducer).

comparison_to_deviation builds the synchronized product whose accepted
pairs are exactly the output pairs of the two transducers on a common
input, so its deviation equals the comparison distance whenever the
domains coincide (domain equality is the caller's responsibility: the
bounded surrogate check lives in the oracle module).  The product comes
out trimmed from one pass over its reachable pairs, without a separate
trim.
deviation_to_comparison goes the other way by pairing a transducer with
the identity on its own domain.
"""

from __future__ import annotations

from collections import deque

from .core import Nft, Transition
from .engine import DEFAULT_MAX_CONFIGS, _decide
from .transform import _closure, _unique_name, add_eps_self_loops, atomize


def comparison_to_deviation(t1: Nft, t2: Nft) -> Nft:
    """The product Z with R_Z = {(u, v) | exists x: (x,u) in R_t1 and
    (x,v) in R_t2}; dev(R_Z) = d(R_t1, R_t2) when the domains coincide.

    Both operands are made input-atomic and given (eps, eps) self-loops,
    then transitions are paired on equal input x in the alphabet or eps,
    skipping the idle pairs, the (eps, eps) self-loops of Z.
    One breadth-first pass builds the pairs reachable from the initial
    pairs and records each one's predecessors; the pairs among them that
    reach a final pair are kept.  Z is the trim of the full pair product:
    pair (qa, qb) has index qa * |Q_b| + qb, kept pairs are numbered in
    index order and transitions come in the order of the operands'
    transition pairs.
    """
    a = add_eps_self_loops(atomize(t1))
    b = add_eps_self_loops(atomize(t2))
    nb = b.num_states

    a_out: list[list[tuple[int, Transition]]] = [[] for _ in range(a.num_states)]
    for ia, ta in enumerate(a.transitions):
        a_out[ta.src].append((ia, ta))
    b_out: dict[tuple[int, str], list[tuple[int, Transition]]] = {}
    for ib, tb in enumerate(b.transitions):
        b_out.setdefault((tb.src, tb.input), []).append((ib, tb))

    initials = {qa * nb + qb for qa in a.initials for qb in b.initials}
    # the reached pairs, each with the source pair of every transition into it
    pred: dict[int, list[int]] = {pair: [] for pair in initials}
    queue = deque(pred)
    paired = []
    while queue:
        pair = queue.popleft()
        qa, qb = divmod(pair, nb)
        for ia, ta in a_out[qa]:
            for ib, tb in b_out.get((qb, ta.input), ()):
                dst = ta.dst * nb + tb.dst
                if dst == pair and not ta.output and not tb.output:
                    continue  # idle: reads nothing, writes nothing, goes nowhere
                paired.append((ia, ib, ta.output, tb.output, dst, pair))
                if dst in pred:
                    pred[dst].append(pair)
                else:
                    pred[dst] = [pair]
                    queue.append(dst)
    reached = sorted(pred)
    finals = [pair for pair in reached if pair // nb in a.finals and pair % nb in b.finals]
    live = _closure(finals, pred)
    # names holding '|' can collide: a name already taken gets a ~k suffix.
    # Every reached pair is named, dead ones too, so the suffixes are those
    # of the trim of the whole reached product.
    used: set[str] = set()
    new_id = {}
    states = []
    for pair in reached:
        name = _unique_name(f"{a.states[pair // nb]}|{b.states[pair % nb]}", used)
        if pair in live:
            new_id[pair] = len(states)
            states.append(name)
    # a transition is kept iff its target is: a live target makes the source live
    kept = sorted(entry for entry in paired if entry[4] in new_id)
    new = tuple.__new__  # skips the NamedTuple's Python-level __new__
    return Nft._trusted(
        tuple(states),
        a.alphabet | b.alphabet,
        frozenset(new_id[pair] for pair in initials if pair in new_id),
        frozenset(new_id[pair] for pair in finals),
        tuple(
            new(Transition, (new_id[src], x, y, new_id[dst])) for _, _, x, y, dst, src in kept
        ),
        f"{t1.name}x{t2.name}",
    )


def deviation_to_comparison(t: Nft) -> tuple[Nft, Nft]:
    """A pair (t1, t2) with equal domains whose comparison distance is
    dev(R_t): t2 is t itself and t1 copies every input to the output."""
    t1 = t._with(
        transitions=tuple(Transition(src, x, x, dst) for src, x, _, dst in t.transitions),
        name=f"{t.name}_id",
    )
    return t1, t


def compare(
    t1: Nft,
    t2: Nft,
    mode: str,
    k: int | None = None,
    max_configs: int = DEFAULT_MAX_CONFIGS,
) -> bool:
    """Decide a comparison problem through the deviation of the product.

    mode is one of "bounded", "threshold", "exact"; the latter two take
    the threshold k and the budget max_configs, and bounded takes no k
    and needs no budget.  max_configs must be at least 1 in every mode.
    The caller asserts dom(R_t1) = dom(R_t2).
    """
    # the arguments are checked before the product is built
    if max_configs < 1:
        raise ValueError("max_configs must be at least 1")
    if mode == "bounded":
        if k is not None:
            raise ValueError("bounded mode takes no k")
    elif mode not in ("threshold", "exact"):
        raise ValueError(f"unknown comparison mode {mode!r}")
    elif k is None:
        raise ValueError(f"{mode} mode needs k")
    elif k < 0:
        raise ValueError(f"{mode} expects a natural number")
    # the product comes out trimmed, so the engine does not trim it again
    return _decide(comparison_to_deviation(t1, t2), mode, k, max_configs, trimmed=True)
