"""Text formats: the NFT file format, digraph edge lists, and DIMACS CNF.

The NFT format is line oriented, UTF-8, with '#' comments:

    nft NAME
    alphabet L1 L2 ...            # single-character letters
    state NAME [initial] [final]  # one line per state
    trans SRC DST IN OUT          # IN/OUT are words, or "-" for the empty word
    end

Serialization is canonical: states and transitions in declaration order,
alphabet sorted.  parse(serialize(t)) reproduces t exactly, and
repr_size(t), the byte length of the canonical form, is the machine-size
measure in which the paper states its deviation bounds; the oracle's
default caps read it.
"""

from __future__ import annotations

from .core import CnfFormula, Digraph, Nft, Transition


class ParseError(ValueError):
    """Syntax or consistency error in a text input, with its line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _content_lines(text: str):
    """Yield (line_number, token_list) for non-blank lines, comments stripped."""
    for no, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if tokens:
            yield no, tokens


def serialize_nft(t: Nft) -> str:
    lines = [f"nft {t.name}"]
    lines.append(" ".join(["alphabet"] + sorted(t.alphabet)))
    for q, name in enumerate(t.states):
        flags = ""
        if q in t.initials:
            flags += " initial"
        if q in t.finals:
            flags += " final"
        lines.append(f"state {name}{flags}")
    for tr in t.transitions:
        inp = tr.input if tr.input else "-"
        out = tr.output if tr.output else "-"
        lines.append(f"trans {t.states[tr.src]} {t.states[tr.dst]} {inp} {out}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def repr_size(t: Nft) -> int:
    """Byte length of the canonical UTF-8 serialization of t."""
    return len(serialize_nft(t).encode("utf-8"))


def parse_nft(text: str) -> Nft:
    name = None
    alphabet: set[str] | None = None
    state_ids: dict[str, int] = {}
    initials: set[int] = set()
    finals: set[int] = set()
    transitions: list[Transition] = []
    ended = False
    hashes = "#" in text
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    new = tuple.__new__

    # _content_lines, inlined: this loop is most of the parse
    for no, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.partition("#")[0] if hashes and "#" in raw else raw).split()
        if not tokens:
            continue
        head = tokens[0]
        # trans lines are most of a file: take them first once the header is read
        if head == "trans" and alphabet is not None and not ended:
            if len(tokens) != 5:
                raise ParseError("expected 'trans SRC DST IN OUT'", no)
            _, src, dst, inp, out = tokens
            try:
                p, q = state_ids[src], state_ids[dst]
            except KeyError as exc:
                raise ParseError(f"undeclared state {exc.args[0]!r}", no) from None
            inp = "" if inp == "-" else inp
            out = "" if out == "-" else out
            if not alphabet.issuperset(inp + out):
                ch = next(ch for ch in inp + out if ch not in alphabet)
                raise ParseError(f"letter {ch!r} outside the alphabet", no)
            transitions.append(new(Transition, (p, inp, out, q)))
            continue
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
    # every check of Nft._validate was made above, line by line
    return Nft._trusted(
        tuple(state_ids),
        frozenset(alphabet),
        frozenset(initials),
        frozenset(finals),
        tuple(transitions),
        name,
    )


def parse_digraph(text: str) -> Digraph:
    """Edge-list digraph: vertex count, then 'u v' lines, then one s= and one t= line."""
    count = None
    edges: list[tuple[int, int]] = []
    ends: dict[str, int] = {}

    def parse_int(token: str, no: int) -> int:
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"expected an integer, got {token!r}", no) from None

    for no, tokens in _content_lines(text):
        if count is None:
            if len(tokens) != 1:
                raise ParseError("expected the vertex count on the first line", no)
            count = parse_int(tokens[0], no)
            if count < 1:
                raise ParseError("vertex count must be at least 1", no)
            continue
        if len(tokens) == 1 and "=" in tokens[0]:
            key, _, value = tokens[0].partition("=")
            if key not in ("s", "t"):
                raise ParseError(f"unknown assignment {tokens[0]!r}", no)
            if key in ends:
                raise ParseError(f"duplicate '{key}=' line", no)
            ends[key] = parse_int(value, no)
            continue
        if len(tokens) != 2:
            raise ParseError("expected an edge line 'u v'", no)
        u = parse_int(tokens[0], no)
        v = parse_int(tokens[1], no)
        edges.append((u, v))

    if count is None:
        raise ParseError("empty digraph input")
    if len(ends) < 2:
        raise ParseError("missing 's=' or 't=' line")
    try:
        return Digraph(vertex_count=count, edges=tuple(edges), s=ends["s"], t=ends["t"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_cnf(text: str) -> CnfFormula:
    """DIMACS CNF restricted to exactly-3-literal clauses."""
    num_vars = None
    num_clauses = None
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []

    for no, tokens in _content_lines(text):
        if tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if num_vars is not None:
                raise ParseError("duplicate problem line", no)
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError("expected 'p cnf VARS CLAUSES'", no)
            try:
                num_vars = int(tokens[2])
                num_clauses = int(tokens[3])
            except ValueError:
                raise ParseError("non-numeric problem line", no) from None
            continue
        if num_vars is None:
            raise ParseError("clause before the problem line", no)
        for token in tokens:
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"expected a literal, got {token!r}", no) from None
            if lit == 0:
                if len(current) != 3:
                    raise ParseError(f"clause with {len(current)} literals, need exactly 3", no)
                clauses.append((current[0], current[1], current[2]))
                current = []
            else:
                current.append(lit)

    if num_vars is None:
        raise ParseError("missing problem line")
    if current:
        raise ParseError("unterminated clause at end of input")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise ParseError(f"problem line declares {num_clauses} clauses, found {len(clauses)}")
    try:
        return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
