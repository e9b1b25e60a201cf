"""Shared test utilities: random instance generators and independent
reference implementations used to cross-check the library."""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from nftdev import (
    INF,
    CnfFormula,
    Digraph,
    Nft,
    ParseError,
    Run,
    Transition,
    add_eps_self_loops,
    atomize,
    gen_reach_bounded,
    gen_reach_threshold,
    hamming_distance,
    shift_assignment,
    trim,
)
from nftdev.engine import _bfs_path, _close_cycle, _parent_chain
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
    """Reference for engine._walk on a small graph given as per-node rows
    of (v, weight, transition) edges, from reachability closures instead
    of a depth-first walk.  Returns (reached, comp, value, exit): the set
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
    """Reference for engine._upper_bound, as it was before its shortcuts:
    the DP asks enter(q), with its test of q's component for a cycle, at
    every transition, and every component's cycle comes from a breadth-
    first search, a single state's too.  Returns the same (U, start,
    steps)."""
    finals = {comp[f] for f in t.finals}
    leave = {c: 0 if c in finals else -1 for c in comp[: t.num_states]}
    out = dict.fromkeys(leave)
    waits = dict.fromkeys(leave, 0)
    cyclic, into = set(), {}
    for ti, (src, _, _, dst) in enumerate(t.transitions):
        c = comp[src]
        if c == comp[dst]:
            cyclic.add(c)
        else:
            waits[c] += 1
            into.setdefault(comp[dst], []).append(ti)

    def enter(q: int) -> int:
        return leave[comp[q]] + abs(shift[q]) * (comp[q] in cyclic)

    ready = [c for c, n in waits.items() if n == 0]
    while ready:
        for ti in into.get(ready.pop(), ()):
            p, x, y, q = t.transitions[ti]
            s, c = shift[p], comp[p]
            joined, fixed = (x, y) if s >= 0 else (y, x)
            weight = min(abs(s) + len(joined), len(fixed)) + enter(q)
            if weight > leave[c]:
                leave[c], out[c] = weight, ti
            waits[c] -= 1
            if waits[c] == 0:
                ready.append(c)
    start = q = max(sorted(t.initials), key=enter)
    steps: list[int] = []
    while True:
        c = comp[q]
        if c in cyclic and shift[q]:
            cycle = reference_shortest_cycle(rows, q, comp)
            ell = sum(len(t.transitions[ti].input) for ti in cycle)
            if ell:
                steps += cycle * -(-abs(shift[q]) // ell)
        d = out[c]
        steps += _bfs_path(rows, (q,), t.finals if d is None else {t.transitions[d].src}, comp)
        if d is None:
            return enter(start), start, steps
        steps.append(d)
        q = t.transitions[d].dst


def reference_nonconjugate_cycle(t: Nft, rows, shift, comp):
    """Reference for engine._nonconjugate_cycle, as it was before it listed
    each state's inner transitions once: every pop reads the state's whole
    row and skips the transitions that leave its component.  Returns the
    same (p, run, i, j), or None."""
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
