"""Shared test utilities: random instance generators and independent
reference implementations used to cross-check the library."""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from collections import deque
from functools import cache
from itertools import combinations, repeat
from typing import NamedTuple

from nftdev import (
    INF,
    CnfFormula,
    Digraph,
    ExtendedNat,
    Nft,
    ParseError,
    Run,
    Transition,
    add_eps_self_loops,
    atomize,
    gen_family,
    gen_reach_bounded,
    gen_reach_threshold,
    hamming_distance,
    run_words,
    shift_assignment,
    trim,
)
from nftdev.engine import (
    _bfs_path,
    _close_cycle,
    _components,
    _configurations,
    _longest_paths,
    _parent_chain,
    _run_along,
    _state_rows,
    _upper_bound,
)
from nftdev.transform import _live_states

ALPHABET = ("a", "b")

# word pairs with |u| + |v| <= 2, weighted toward the length-preserving
# shapes so that bounded and unbounded instances stay well represented
_WORD_PAIRS = (
    [("a", "a")] * 10
    + [("b", "b")] * 10
    + [("a", "b")] * 3
    + [("b", "a")] * 3
    + [("a", ""), ("b", ""), ("", "a"), ("", "b")]
    + [("aa", ""), ("", "bb"), ("ab", ""), ("", "ba")]
    + [("", "")]
)


def random_trimmed_nft(rng: random.Random, max_states: int = 5, max_transitions: int = 8):
    """One random trimmed NFT with |Q| <= 5, |Sigma| = 2, lmax <= 2 and at
    most 8 transitions, or None when trimming empties the draw."""
    trimmed = trim(random_untrimmed_nft(rng, max_states, max_transitions))
    return trimmed if trimmed.num_states > 0 else None


def random_untrimmed_nft(rng: random.Random, max_states: int = 5, max_transitions: int = 8):
    """The draw of random_trimmed_nft before trimming."""
    nq = rng.randint(1, max_states)
    ntr = rng.randint(1, max_transitions)
    transitions = []
    for _ in range(ntr):
        u, v = rng.choice(_WORD_PAIRS)
        transitions.append(Transition(rng.randrange(nq), u, v, rng.randrange(nq)))
    initials = {rng.randrange(nq)}
    finals = {rng.randrange(nq)}
    if rng.random() < 0.3:
        finals.add(rng.randrange(nq))
    return Nft(
        states=tuple(f"s{i}" for i in range(nq)),
        alphabet=frozenset(ALPHABET),
        initials=frozenset(initials),
        finals=frozenset(finals),
        transitions=tuple(transitions),
        name="rand",
    )


def random_length_preserving_nft(rng: random.Random, alphabet: str = "abc"):
    """One random trimmed length-preserving NFT with 2 to 6 states, or None
    when trimming empties the draw.

    The letters are those of `alphabet`.  Each state q gets a potential s_q in
    [-3, 3], 0 exactly at the initial and final states, and every
    transition p -> q has |x| - |y| = s_q - s_p, so the lags reach 3
    letters.
    """
    nq = rng.randint(2, 6)
    initials = {0}
    finals = {nq - 1, rng.randrange(nq)}
    shifts = (-3, -2, -1, 1, 2, 3)
    potential = [0 if q in initials | finals else rng.choice(shifts) for q in range(nq)]
    # half the draws only go up in state number: acyclic, hence bounded
    acyclic = rng.random() < 0.5
    transitions = []
    for _ in range(rng.randint(nq, 2 * nq)):
        p, q = rng.randrange(nq), rng.randrange(nq)
        if acyclic:
            if p == q:
                continue
            p, q = min(p, q), max(p, q)
        d = potential[q] - potential[p]
        base = rng.randint(0, 1)
        nx, ny = (base + d, base) if d >= 0 else (base, base - d)
        x = "".join(rng.choice(alphabet) for _ in range(nx))
        y = "".join(rng.choice(alphabet) for _ in range(ny))
        transitions.append(Transition(p, x, y, q))
    t = Nft(
        states=tuple(f"s{i}" for i in range(nq)),
        alphabet=frozenset(alphabet),
        initials=frozenset(initials),
        finals=frozenset(finals),
        transitions=tuple(transitions),
        name="rand-lp",
    )
    trimmed = trim(t)
    return trimmed if trimmed.num_states > 0 else None


def random_equal_length_nft(rng: random.Random, max_states: int = 7):
    """One random untrimmed NFT whose every transition reads and writes
    words of one length (0 to 3 letters over {a, b, c}), so smax = 0 and
    b = 0; up to max_states states, 1 to 3 initial and final states."""
    nq = rng.randint(1, max_states)
    transitions = []
    for _ in range(rng.randint(1, 3 * nq)):
        n = rng.randint(0, 3)
        x = "".join(rng.choice("abc") for _ in range(n))
        y = "".join(rng.choice("abc") for _ in range(n))
        transitions.append(Transition(rng.randrange(nq), x, y, rng.randrange(nq)))
    return Nft(
        states=tuple(f"s{i}" for i in range(nq)),
        alphabet=frozenset("abc"),
        initials=frozenset(rng.sample(range(nq), rng.randint(1, min(3, nq)))),
        finals=frozenset(rng.sample(range(nq), rng.randint(1, min(3, nq)))),
        transitions=tuple(transitions),
        name="rand-eq",
    )


def random_lone_loop_nft(rng: random.Random) -> tuple[Nft, bool]:
    """i -> q -> f around a self-loop (x, y) at q, |x| = |y| <= 4 over "ab"
    or "abc", with s_q in -4..4: i -> q reads a^s_q (or writes a^-s_q) and
    q -> f gives it back.  Half the loops take y as x rotated by s_q, so
    that the loop is conjugate by s_q, and half of those redraw one letter
    of y.  A third of the draws give q a further inner move after the
    loop: a second self-loop, or a ring q -> r -> q.  Also returns whether
    the draw is small, every word of at most 2 letters and |s_q| <= 2."""
    alphabet = rng.choice(("ab", "abc"))

    def word(n: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(n))

    s, n = rng.randint(-4, 4), rng.randint(0, 4)
    x = word(n)
    if n and rng.random() < 0.5:
        y = "".join(x[(j - s) % n] for j in range(n))
        if rng.random() < 0.5:
            j = rng.randrange(n)
            y = y[:j] + word(1) + y[j + 1 :]
    else:
        y = word(n)
    lag = ("a" * s, "") if s >= 0 else ("", "a" * -s)
    transitions = [Transition(0, *lag, 1), Transition(1, x, y, 1)]
    m, extra = rng.randint(1, 4), rng.random()
    if extra < 1 / 6:
        transitions.append(Transition(1, word(m), word(m), 1))
    elif extra < 1 / 3:
        transitions += [Transition(1, word(m), word(m), 3), Transition(3, "", "", 1)]
    else:
        m = 0
    transitions.append(Transition(1, *lag[::-1], 2))
    t = Nft(
        states=("i", "q", "f", "r")[: 4 if len(transitions) == 5 else 3],
        alphabet=frozenset(alphabet),
        initials=frozenset({0}),
        finals=frozenset({2}),
        transitions=tuple(transitions),
    )
    return t, max(n, m) <= 2 and abs(s) <= 2


def zero_shift_instances() -> list[Nft]:
    """3,000 seeded equal-length NFTs and reach and reach-k gadgets on 40
    seeded digraphs, untrimmed: every one has smax = 0."""
    rng = random.Random(2026)
    instances = [random_equal_length_nft(rng) for _ in range(3000)]
    for i in range(40):
        g = random_digraph(rng) if i < 30 else random_digraph(rng, 300, (0.003, 0.01))
        instances += [gen_reach_bounded(g).nft, gen_reach_threshold(g, 1 + i % 3).nft]
    return instances


def make_corpus(count: int, seed: int) -> list[Nft]:
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        t = random_trimmed_nft(rng)
        if t is not None:
            corpus.append(t)
    return corpus


def random_digraph(rng: random.Random, max_vertices: int = 12, density=(0.05, 0.4)):
    n = rng.randint(2, max_vertices)
    p = rng.uniform(*density)
    edges = tuple(
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
    )
    return Digraph(vertex_count=n, edges=edges, s=rng.randrange(n), t=rng.randrange(n))


def random_cnf(rng: random.Random, max_vars: int = 5, max_clauses: int = 6):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        clause = tuple(rng.randrange(1, n + 1) * rng.choice((1, -1)) for _ in range(3))
        clauses.append(clause)
    return CnfFormula(num_vars=n, clauses=tuple(clauses))


def random_unsat_cnf(rng: random.Random, max_vars: int = 5, max_clauses: int = 6):
    """Random formula with an embedded contradiction (so unsatisfiable);
    small random 3-CNFs are almost always satisfiable otherwise."""
    n = rng.randint(1, max_vars)
    m = rng.randint(2, max_clauses)
    v = rng.randint(1, n)
    clauses = [(v, v, v), (-v, -v, -v)]
    while len(clauses) < m:
        clauses.append(tuple(rng.randrange(1, n + 1) * rng.choice((1, -1)) for _ in range(3)))
    rng.shuffle(clauses)
    return CnfFormula(num_vars=n, clauses=tuple(clauses))


def random_cnf_mixed(rng: random.Random, max_vars: int, max_clauses: int, unsat_bias: float):
    if rng.random() < unsat_bias:
        return random_unsat_cnf(rng, max_vars, max_clauses)
    return random_cnf(rng, max_vars, max_clauses)


def literal_max_distance(t: Nft, max_run_len: int):
    """Reference semantics for the oracle: literal DFS over every accepting
    run of at most max_run_len transitions, no memoization.  Returns the
    maximum distance seen (INF included), -1 when no accepting run exists.
    Only usable on small instances."""
    adj = [[] for _ in range(t.num_states)]
    for tr in t.transitions:
        adj[tr.src].append(tr)
    best = -1

    def visit(state, u, v, depth):
        nonlocal best
        if state in t.finals:
            d = hamming_distance(u, v)
            if d == INF:
                best = INF
            elif best != INF and d > best:
                best = d
        if depth == max_run_len or best == INF:
            return
        for tr in adj[state]:
            visit(tr.dst, u + tr.input, v + tr.output, depth + 1)

    for q in sorted(t.initials):
        visit(q, "", "", 0)
        if best == INF:
            break
    return best


def enumerate_pairs_total(t: Nft, max_total: int) -> set[tuple[str, str]]:
    """All accepted pairs with |u| + |v| <= max_total (exact)."""
    adj = [[] for _ in range(t.num_states)]
    for tr in t.transitions:
        adj[tr.src].append(tr)
    seen = {(q, "", "") for q in t.initials}
    queue = deque(seen)
    pairs = set()
    while queue:
        state, u, v = queue.popleft()
        if state in t.finals:
            pairs.add((u, v))
        for tr in adj[state]:
            nu, nv = u + tr.input, v + tr.output
            if len(nu) + len(nv) > max_total:
                continue
            key = (tr.dst, nu, nv)
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return pairs


def io_map(t: Nft, max_in: int, max_out: int):
    """Map input word -> set of output words, over |x| <= max_in and
    |v| <= max_out.  Exact for acyclic instances sized within the caps."""
    adj = [[] for _ in range(t.num_states)]
    for tr in t.transitions:
        adj[tr.src].append(tr)
    seen = {(q, "", "") for q in t.initials}
    queue = deque(seen)
    out: dict[str, set[str]] = {}
    while queue:
        state, u, v = queue.popleft()
        if state in t.finals:
            out.setdefault(u, set()).add(v)
        for tr in adj[state]:
            nu, nv = u + tr.input, v + tr.output
            if len(nu) > max_in or len(nv) > max_out:
                continue
            key = (tr.dst, nu, nv)
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return out


def enumerate_relation(t: Nft, max_word_len: int) -> set[tuple[str, str]]:
    """All pairs (u, v) accepted by t with |u| <= max_word_len and
    |v| <= max_word_len."""
    return {(u, v) for u, vs in io_map(t, max_word_len, max_word_len).items() for v in vs}


def conjugate_by(u: str, v: str, n: int) -> bool:
    """True when u and v are conjugate by the offset n.

    That is, |u| = |v| and every pair of positions i in u and j in v with
    j - i congruent to n modulo |u| carries the same letter.  The letterwise
    condition forces v to be the cyclic rotation of u by n, so the words are
    in particular conjugate (u = wz and v = zw for some split).  Empty words
    are conjugate by every offset.
    """
    if len(u) != len(v):
        return False
    size = len(u)
    if size == 0:
        return True
    return all(u[i] == v[(i + n) % size] for i in range(size))


def simple_cycles_shifts(t: Nft) -> list[int]:
    """Shifts of every simple cycle (no repeated intermediate state)."""
    adj = [[] for _ in range(t.num_states)]
    for tr in t.transitions:
        adj[tr.src].append(tr)
    shifts = []

    def visit(anchor, state, shift, visited):
        # each simple cycle is rooted at its smallest state, so it is
        # enumerated exactly once
        for tr in adj[state]:
            if tr.dst == anchor:
                shifts.append(shift + tr.shift)
            elif tr.dst > anchor and tr.dst not in visited:
                visited.add(tr.dst)
                visit(anchor, tr.dst, shift + tr.shift, visited)
                visited.remove(tr.dst)

    for anchor in range(t.num_states):
        visit(anchor, anchor, 0, set())
    return shifts


def random_acyclic_nft(rng: random.Random, max_states: int = 4):
    """A random acyclic trimmed NFT (finite relation), for tests that need
    fully enumerable domains."""
    nq = rng.randint(2, max_states)
    pairs = [p for p in _WORD_PAIRS if p != ("", "")]
    transitions = []
    for _ in range(rng.randint(1, 6)):
        src = rng.randrange(nq - 1)
        dst = rng.randrange(src + 1, nq)
        u, v = rng.choice(pairs)
        transitions.append(Transition(src, u, v, dst))
    t = Nft(
        states=tuple(f"s{i}" for i in range(nq)),
        alphabet=frozenset(ALPHABET),
        initials=frozenset({0}),
        finals=frozenset({nq - 1}),
        transitions=tuple(transitions),
        name="dag",
    )
    trimmed = trim(t)
    return trimmed if trimmed.num_states > 0 else None


def all_pairs_product(t1: Nft, t2: Nft) -> Nft:
    """Reference for comparison_to_deviation: every state pair of the two
    atomized, eps-looped operands is built, pair (qa, qb) as state
    qa * |Q_b| + qb, every transition pair on equal input in operand
    order except those that make an (eps, eps) self-loop, and only then
    trimmed."""
    a = add_eps_self_loops(atomize(t1))
    b = add_eps_self_loops(atomize(t2))
    nb = b.num_states

    def pid(qa: int, qb: int) -> int:
        return qa * nb + qb

    by_input: dict[str, list[Transition]] = {}
    for tb in b.transitions:
        by_input.setdefault(tb.input, []).append(tb)
    paired = (
        Transition(pid(ta.src, tb.src), ta.output, tb.output, pid(ta.dst, tb.dst))
        for ta in a.transitions
        for tb in by_input.get(ta.input, ())
    )
    transitions = [tr for tr in paired if tr != (tr.src, "", "", tr.src)]
    z = Nft(
        states=tuple(f"{sa}|{sb}" for sa in a.states for sb in b.states),
        alphabet=a.alphabet | b.alphabet,
        initials=frozenset(pid(i, j) for i in a.initials for j in b.initials),
        finals=frozenset(pid(i, j) for i in a.finals for j in b.finals),
        transitions=tuple(transitions),
        name=f"{t1.name}x{t2.name}",
    )
    return trim(z)


def copying_trim_with_maps(t: Nft) -> tuple[Nft, list[int], list[int]]:
    """Reference for trim_with_maps: always builds (and so re-validates) a
    new Nft of the kept states and transitions, even when nothing is
    removed."""
    kept = sorted(_live_states(t))
    new_id = {old: new for new, old in enumerate(kept)}
    transitions = []
    trans_map = []
    for i, tr in enumerate(t.transitions):
        if tr.src in new_id and tr.dst in new_id:
            transitions.append(Transition(new_id[tr.src], tr.input, tr.output, new_id[tr.dst]))
            trans_map.append(i)
    trimmed = Nft(
        states=tuple(t.states[q] for q in kept),
        alphabet=t.alphabet,
        initials=frozenset(new_id[q] for q in t.initials if q in new_id),
        finals=frozenset(new_id[q] for q in t.finals if q in new_id),
        transitions=tuple(transitions),
        name=t.name,
    )
    return trimmed, kept, trans_map


def line_by_line_parse_nft(text: str) -> Nft:
    """Reference for parse_nft: every line goes through one directive chain
    in file order, and every letter of a word is looked up on its own."""
    name = None
    alphabet: set[str] | None = None
    state_ids: dict[str, int] = {}
    initials: set[int] = set()
    finals: set[int] = set()
    transitions: list[Transition] = []
    ended = False

    def parse_word(token: str, no: int) -> str:
        if token == "-":
            return ""
        for ch in token:
            if ch not in alphabet:
                raise ParseError(f"letter {ch!r} outside the alphabet", no)
        return token

    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        head = tokens[0]
        if ended:
            raise ParseError("content after 'end'", no)
        if name is None:
            if head != "nft" or len(tokens) != 2:
                raise ParseError("expected 'nft NAME'", no)
            name = tokens[1]
            continue
        if alphabet is None:
            if head != "alphabet":
                raise ParseError("expected 'alphabet ...'", no)
            alphabet = set()
            for letter in tokens[1:]:
                if len(letter) != 1:
                    raise ParseError(f"multi-character letter token {letter!r}", no)
                if letter == "-":
                    raise ParseError("'-' is reserved for the empty word", no)
                if letter in alphabet:
                    raise ParseError(f"duplicate letter {letter!r}", no)
                alphabet.add(letter)
            continue
        if head == "state":
            if len(tokens) < 2 or len(tokens) > 4:
                raise ParseError("expected 'state NAME [initial] [final]'", no)
            sname = tokens[1]
            if sname in state_ids:
                raise ParseError(f"duplicate state name {sname!r}", no)
            q = len(state_ids)
            state_ids[sname] = q
            for flag in tokens[2:]:
                if flag == "initial":
                    initials.add(q)
                elif flag == "final":
                    finals.add(q)
                else:
                    raise ParseError(f"unknown state flag {flag!r}", no)
        elif head == "trans":
            if len(tokens) != 5:
                raise ParseError("expected 'trans SRC DST IN OUT'", no)
            _, src, dst, inp, out = tokens
            if src not in state_ids:
                raise ParseError(f"undeclared state {src!r}", no)
            if dst not in state_ids:
                raise ParseError(f"undeclared state {dst!r}", no)
            transitions.append(
                Transition(state_ids[src], parse_word(inp, no), parse_word(out, no), state_ids[dst])
            )
        elif head == "end":
            if len(tokens) != 1:
                raise ParseError("unexpected tokens after 'end'", no)
            ended = True
        else:
            raise ParseError(f"unknown directive {head!r}", no)

    if name is None:
        raise ParseError("empty input, expected 'nft NAME'")
    if not ended:
        raise ParseError("missing 'end'")
    try:
        return Nft(
            states=tuple(state_ids),
            alphabet=frozenset(alphabet or ()),
            initials=frozenset(initials),
            finals=frozenset(finals),
            transitions=tuple(transitions),
            name=name,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _advance(side: int, lag: str, x: str, y: str) -> tuple[str, int]:
    pin = lag + x if side > 0 else x
    pout = lag + y if side < 0 else y
    k = min(len(pin), len(pout))
    w = 0
    for i in range(k):
        if pin[i] != pout[i]:
            w += 1
    return pin[k:] + pout[k:], w


def tuple_keyed_graph(trimmed: Nft, shift: dict[int, int], b: int):
    """Reference for the engine's configuration-graph build, without its
    budget: nodes keyed by (state, lag) tuples, one list of (v, weight,
    transition) edges per node, and parent[v] = (u, transition) for the
    edge that discovered v (None at the starts).  Returns (nodes, succ,
    parent, starts, accepts)."""
    adj = [[] for _ in range(trimmed.num_states)]
    for i, tr in enumerate(trimmed.transitions):
        adj[tr.src].append((i, tr))
    side = [(shift[q] > 0) - (shift[q] < 0) for q in range(trimmed.num_states)]
    nodes, succ, parent = [], [], []
    node_id = {}

    def intern(key, origin):
        nid = node_id.get(key)
        if nid is None:
            nid = len(nodes)
            node_id[key] = nid
            nodes.append(key)
            succ.append([])
            parent.append(origin)
        return nid

    starts = [intern((q, ""), None) for q in sorted(trimmed.initials)]
    for nid, (q, lag) in enumerate(nodes):
        for ti, tr in adj[q]:
            nlag, w = _advance(side[q], lag, tr.input, tr.output)
            if len(nlag) > b:
                raise AssertionError("lag exceeded the state-shift bound")
            succ[nid].append((intern((tr.dst, nlag), (nid, ti)), w, ti))
    accepts = {nid for nid, (q, _) in enumerate(nodes) if q in trimmed.finals}
    return nodes, succ, parent, starts, accepts


def reference_walk(succ, starts, accepts, live=True):
    """Reference for engine._longest_paths over engine._components, and for
    depth_first_walk, on a small graph given as per-node rows of (v,
    weight, transition) edges, from reachability closures instead of a
    depth-first walk.  Returns (reached, comp, value, exit): the set
    of nodes reachable from starts; comp[u], the frozenset of reached
    nodes that u reaches and that reach u; value[u], the heaviest path
    weight from u to an accepting node, INF when a path from u to one
    meets a positive edge inside a component, and -1 when u reaches no
    accepting node (with live, such a node raises); and, where the value
    is finite, exit[u], the (member, next, transition) edge of the
    documented tie-breaks: the smallest accepting member, then strictly
    heavier edges over the members in node order and each row in order,
    or (member, None, None)."""
    closure = {}
    for u in range(len(succ)):
        seen, todo = {u}, [u]
        while todo:
            for v, _, _ in succ[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        closure[u] = seen
    reached = set().union(*(closure[s] for s in starts))
    comp = {u: frozenset(v for v in closure[u] if u in closure[v]) for u in reached}
    value, exit = {}, {}

    def valued(c):
        members = sorted(c)
        if members[0] in value:
            return value[members[0]]
        b, out, pumps = -1, None, False
        for m in members:
            if m in accepts:
                b, out = 0, (m, None, None)
                break
        for u in members:
            for v, wt, ti in succ[u]:
                if v in c:
                    pumps = pumps or wt > 0
                elif b != INF:
                    x = valued(comp[v])
                    if x == INF:
                        b = INF
                    elif x >= 0 and wt + x > b:
                        b, out = wt + x, (u, v, ti)
        if b == -1:
            if live:
                raise AssertionError("node cannot reach acceptance")
        elif pumps:
            b = INF
        for m in members:
            value[m] = b
            if b != INF:
                exit[m] = out
        return b

    for u in sorted(reached):
        valued(comp[u])
    return reached, comp, value, exit


def missed_family(n: int) -> Nft:
    """T_n with a second bridge from p_n to q_1, listed first, that copies
    c_n.  The deviation and U stay n(n+1)/2, but the probe, whose ties go
    to the first transition, crosses the new bridge and weighs one less,
    so the questions that L = U would answer still walk."""
    t = gen_family(n).nft
    bridge = Transition(n - 1, str(n % 2), str(n % 2), n)
    return t._with(transitions=(bridge,) + t.transitions)


class DepthFirstWalk(NamedTuple):
    """What depth_first_walk found, per node id.

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


def depth_first_walk(starts, expand, accepts, limit=None, live=True) -> DepthFirstWalk:
    """Tarjan's strongly connected components, run on the fly, deciding
    and valuing each component as it pops: the engine's walk before it
    became engine._components plus engine._longest_paths, kept as the
    depth-first reference with an early stop at a limit.

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
    # comp[u] (see DepthFirstWalk) doubles as Tarjan's index: a popped id is
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
                        return DepthFirstWalk(comp, value, nxt, via, held, pumped, None)
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
                        return DepthFirstWalk(comp, value, nxt, via, held, None, (steps, v))
                if not frames:
                    break
                x = low
                v, cursor, row, low, g, tl = frames.pop()
                if x < low:
                    low = x
    return DepthFirstWalk(comp, value, nxt, via, held, None, None)



def engine_probe(t: Nft, rows, shift: dict[int, int]):
    """The engine's (U, start, steps) for t trimmed and length-preserving,
    rows being _state_rows(t) and shift its potential: the upper bound U,
    the initial state the probe starts at and the probe's transitions, as
    engine._analyze takes them from _upper_bound's rows and bonus,
    _longest_paths and _run_along."""
    starts = sorted(t.initials)
    comp, order = _components(rows, starts)
    weights, bonus = _upper_bound(t, comp, shift)
    h, exits, _ = _longest_paths(weights, comp, order, t.finals, bonus)
    start = max(starts, key=h.__getitem__)
    return h[start], start, _run_along(t, rows, comp, exits, bonus, start)


def reference_route(t: Nft, question: tuple[int, ExtendedNat] | None = None):
    """Reference for the engine's configuration walk: the depth-first route
    it took before its best-first walk, for t length-preserving with b > 0
    and finite deviation.  Returns (answer, created): the deviation, or,
    asked (lo, hi), whether it lies in [lo, hi]; and the number of
    configurations created, 0 where [L, U] answers with no walk.

    depth_first_walk runs over engine._configurations (fused, no pruning)
    with a limit: analyze, and exact at k = U, stop at the first run
    heavier than U - 1, which weighs U; threshold and exact at k < U stop
    at the first run heavier than k; a walk that runs to the end values
    every start."""
    t = trim(t)
    rows = _state_rows(t)
    shift, _ = shift_assignment(t)
    upper, _, probe = engine_probe(t, rows, shift)
    lower = hamming_distance(*run_words(t, Run(tuple(probe))))
    lo, hi = question or (0, INF)
    if lo > upper or lower > hi:
        return False, 0
    if question is not None and lo == 0 and hi >= upper:
        return True, 0
    if lower == upper:
        return (upper if question is None else lo <= upper <= hi), 0
    limit = upper - 1 if hi >= upper else hi
    ends = t.initials | t.finals
    fusable = [len(row) == 1 and q not in ends for q, row in enumerate(rows)]
    b = max(map(abs, shift.values()))
    expand, state, _, starts, accepts = _configurations(t, rows, fusable, shift, b, 2**40)
    walk = depth_first_walk(starts, expand, accepts, limit)
    value = limit + 1 if walk.heavier else max(walk.value[s] for s in starts)
    return (value if question is None else lo <= value <= hi), len(state)


# Breadth-first small-witness searches: the nondeterministic procedures of
# the analysis made deterministic over a finite product of the state with
# the few counters a guess would carry (length-class shift, pending mark
# distances).  They share no decision logic with the configuration-graph
# walk and serve as references for it; every run they return re-verifies
# by recomputing words and distances.


def _by_src(t: Nft) -> list[list[tuple[int, Transition]]]:
    adj: list[list[tuple[int, Transition]]] = [[] for _ in range(t.num_states)]
    for i, tr in enumerate(t.transitions):
        adj[tr.src].append((i, tr))
    return adj


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
                    return Run(_parent_chain(parent, nk))
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
                        return p, Run(_parent_chain(parent, nk))
                    nxt.append(nk)
            level = nxt
    return None


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
    product is finite.  Nothing caps the number of pending marks, so the
    search is exponential even at k = 0: a reference for small instances.
    """
    if k < 0:
        raise ValueError("threshold witness expects a natural number")
    shift, unbalanced = shift_assignment(t)  # also enforces trimming
    if unbalanced is not None:
        raise ValueError("find_threshold_witness requires a length-preserving Nft")
    if t.num_states == 0:
        return None
    cap = k + 1

    # Static per-transition data: the joint mismatch gain and the markable
    # positions only depend on the source state's shift.
    table: list[list[tuple]] = [[] for _ in range(t.num_states)]
    for idx, tr in enumerate(t.transitions):
        d0 = shift[tr.src]
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
                    return Run(_parent_chain(parent, nk))
                queue.append(nk)
    return None


def reference_shortest_cycle(rows, q: int, comp) -> tuple[int, ...]:
    """Reference for engine._shortest_cycle without its self-loop
    shortcut: a breadth-first search from q that stops at the first edge
    back to q."""
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


def reference_upper_bound(t: Nft, rows, comp, shift: dict[int, int]):
    """Reference for engine_probe, as a memoized recursion over the
    condensation instead of one pass in pop order: leave(C) starts from 0
    at C's first final member in node order, and takes strictly heavier
    exits over the transitions leaving C, its members in node order and
    each row in order, a transition d from p weighing the lag letters it
    compares, min(|s_p|, |fixed|), plus the mismatches it compares between
    its own two words; enter(q) tests q's component for a cycle, and every
    component's cycle comes from a breadth-first search, a single state's
    too.  Returns the same (U, start, steps)."""
    members: dict[int, list[int]] = {}
    for q in range(t.num_states):
        members.setdefault(comp[q], []).append(q)
    cyclic = {comp[p] for p, _, _, q in t.transitions if comp[p] == comp[q]}

    def enter(q: int) -> int:
        return leave(comp[q])[0] + abs(shift[q]) * (comp[q] in cyclic)

    @cache
    def leave(c: int) -> tuple[int, int | None, int | None]:
        """(weight, member, transition) of C's heaviest way to acceptance."""
        best: tuple[int, int | None, int | None] = (-1, None, None)
        for m in members[c]:
            if m in t.finals:
                best = (0, m, None)
                break
        for u in members[c]:
            for v, _, ti in rows[u]:
                if comp[v] == c:
                    continue
                p, x, y, _ = t.transitions[ti]
                s = abs(shift[p])
                joined, fixed = (x, y) if shift[p] >= 0 else (y, x)
                weight = min(s, len(fixed)) + sum(a != b for a, b in zip(joined, fixed[s:]))
                if weight + enter(v) > best[0]:
                    best = (weight + enter(v), u, ti)
        return best

    # a path through every component recurses twice per component
    depth = sys.getrecursionlimit()
    sys.setrecursionlimit(max(depth, 3 * t.num_states + 1000))
    try:
        start = q = max(sorted(t.initials), key=enter)
    finally:
        sys.setrecursionlimit(depth)
    steps: list[int] = []
    while True:
        c = comp[q]
        if c in cyclic and shift[q]:
            cycle = reference_shortest_cycle(rows, q, comp)
            ell = sum(len(t.transitions[ti].input) for ti in cycle)
            if ell:
                steps += cycle * -(-abs(shift[q]) // ell)
        _, m, d = leave(c)
        steps += _bfs_path(rows, (q,), {m}, comp)
        if d is None:
            return enter(start), start, steps
        steps.append(d)
        q = t.transitions[d].dst


def reference_nonconjugate_cycle(t: Nft, rows, shift, comp):
    """Reference for engine._nonconjugate_cycle, as it was before it listed
    each state's inner transitions once and decided lone self-loops in
    closed form: every state seeds the search, and every pop reads the
    state's whole row and skips the transitions that leave its component.
    Returns the same (p, run, i, j), or None."""
    parent: dict[tuple, tuple | None] = {(q, None): None for q in range(t.num_states)}
    queue = deque(parent)
    while queue:
        key = queue.popleft()
        state, phase = key
        sq = shift[state]
        c = comp[state]
        for dst, _, ti in rows[state]:
            if comp[dst] != c:
                continue
            _, x, y, _ = t.transitions[ti]
            streams = (y, x)
            succs = []
            if phase is None:
                for side, off in ((0, sq), (1, -sq)):
                    theirs = streams[side]
                    for o, a in enumerate(streams[1 - side], 1):
                        d = o + off
                        if d > len(theirs):
                            succs.append((a, side, d - len(theirs)))
                        elif d >= 1 and a != theirs[d - 1]:
                            succs.append(True)
            else:
                a, side, d = phase
                theirs = streams[side]
                if d > len(theirs):
                    succs.append((a, side, d - len(theirs)))
                elif a != theirs[d - 1]:
                    succs.append(True)
            for nphase in succs:
                nk = (dst, nphase)
                if nk in parent:
                    continue
                parent[nk] = (key, ti)
                if nphase is True:
                    return _close_cycle(t, rows, comp, parent, nk, shift)
                queue.append(nk)
    return None
