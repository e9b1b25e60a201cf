"""Core data model: transducers, runs, words, and their numeric measures,
plus the digraph and 3-CNF inputs of the hardness gadgets.

A nondeterministic finite-state transducer (NFT) is a tuple
(states, alphabet, initials, finals, transitions) where each transition
reads a word and writes a word over the same alphabet.  The NFT accepts
the pair (u, v) when some run from an initial to a final state reads u
and writes v.  Everything in this module is immutable and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import total_ordering
from operator import ne
from typing import NamedTuple, Union


@total_ordering
class Infinity:
    """The infinite value of the extended naturals.

    Used for the distance of pairs of words with different lengths and
    for the deviation of unbounded transducers.  A dedicated singleton
    rather than a float sentinel, so that arithmetic mistakes fail loudly.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("nftdev.INF")

    def __lt__(self, other):
        if isinstance(other, (Infinity, int)):
            return False
        return NotImplemented


INF = Infinity()

ExtendedNat = Union[int, Infinity]


def hamming_distance(u: str, v: str) -> ExtendedNat:
    """Number of mismatching positions, or INF when the lengths differ."""
    if len(u) != len(v):
        return INF
    return sum(map(ne, u, v))


class Transition(NamedTuple):
    """One transition: read `input` and write `output` going src -> dst.

    Both words may be empty.  States are dense integer ids into the
    owning Nft's state tuple.  A named tuple: immutable, without a
    per-instance dict, and equal to the plain tuple of its fields.
    """

    src: int
    input: str
    output: str
    dst: int

    @property
    def shift(self) -> int:
        return len(self.input) - len(self.output)


def _check_letter(letter: str) -> str | None:
    if not isinstance(letter, str) or len(letter) != 1:
        return "letters must be single characters"
    if letter == "-":
        return "'-' is reserved for the empty word"
    if letter == "#" or letter.isspace():
        return "letters may not be '#' or whitespace"
    return None


def _is_token(name: str) -> bool:
    return isinstance(name, str) and "#" not in name and name.split() == [name]


@dataclass(frozen=True)
class Nft:
    """A nondeterministic finite-state transducer.

    `states` holds the state names; the state identifier used everywhere
    else is the dense index into that tuple.  `initials` and `finals` are
    sets of state ids, `transitions` an ordered tuple (runs refer to
    transitions by index).  `Nft(...)` coerces and validates its fields;
    the package's own producers, whose output is valid by construction,
    build through `Nft._trusted` or derive through `Nft._with`.
    """

    states: tuple[str, ...]
    alphabet: frozenset[str]
    initials: frozenset[int]
    finals: frozenset[int]
    transitions: tuple[Transition, ...]
    name: str = "t"

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "initials", frozenset(self.initials))
        object.__setattr__(self, "finals", frozenset(self.finals))
        try:
            transitions = tuple(
                t if isinstance(t, Transition) else Transition(*t) for t in self.transitions
            )
        except TypeError:
            raise ValueError("a transition needs the fields (src, input, output, dst)") from None
        object.__setattr__(self, "transitions", transitions)
        self._validate()

    @classmethod
    def _trusted(cls, states, alphabet, initials, finals, transitions, name) -> Nft:
        """An Nft of fields stored as given, with no coercion and no checks:
        a tuple of valid names, frozensets and a tuple of Transitions."""
        t = object.__new__(cls)
        t.__dict__.update(
            states=states,
            alphabet=alphabet,
            initials=initials,
            finals=finals,
            transitions=transitions,
            name=name,
        )
        return t

    def _with(self, **fields) -> Nft:
        """A copy with the given fields replaced, unchecked like _trusted."""
        t = object.__new__(type(self))
        t.__dict__.update(self.__dict__, **fields)
        return t

    def _validate(self):
        # the text format carries a name as one token: not empty, no '#'
        # and no whitespace
        if not _is_token(self.name):
            raise ValueError(f"invalid name {self.name!r}")
        seen = set()
        for s in self.states:
            if not _is_token(s):
                raise ValueError(f"invalid state name {s!r}")
            if s in seen:
                raise ValueError(f"duplicate state name {s!r}")
            seen.add(s)
        for a in self.alphabet:
            problem = _check_letter(a)
            if problem:
                raise ValueError(f"invalid alphabet letter {a!r}: {problem}")
        n = len(self.states)

        def is_id(q) -> bool:
            return isinstance(q, int) and 0 <= q < n

        for q in (*self.initials, *self.finals):
            if not is_id(q):
                raise ValueError(f"state id {q!r} out of range")
        alphabet = self.alphabet
        for i, (src, x, y, dst) in enumerate(self.transitions):
            if not (is_id(src) and is_id(dst)):
                raise ValueError(f"transition {i} has an endpoint outside the state set")
            if not (isinstance(x, str) and isinstance(y, str)):
                raise ValueError(f"transition {i} has a word that is not a string")
            if not alphabet.issuperset(x + y):
                letter = next(c for c in x + y if c not in alphabet)
                raise ValueError(f"transition {i} uses letter {letter!r} outside the alphabet")

    @property
    def num_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Run:
    """A run is an ordered sequence of indices into an Nft's transitions.

    Consecutive transitions must chain (dst of one is src of the next);
    that is checked by `run_words`, not stored here.  The empty run is
    allowed and reads/writes the empty pair.
    """

    transitions: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))


def run_words(t: Nft, r: Run) -> tuple[str, str]:
    """The pair (u, v) read and written along the run `r` of `t`.

    Raises ValueError("not a run ...") when the indices are out of range
    or consecutive transitions do not chain.
    """
    u: list[str] = []
    v: list[str] = []
    prev_dst = None
    for pos, idx in enumerate(r.transitions):
        if not 0 <= idx < len(t.transitions):
            raise ValueError(f"not a run: transition index {idx} out of range")
        tr = t.transitions[idx]
        if prev_dst is not None and tr.src != prev_dst:
            raise ValueError(f"not a run: broken chain at step {pos}")
        prev_dst = tr.dst
        u.append(tr.input)
        v.append(tr.output)
    return "".join(u), "".join(v)


@dataclass(frozen=True)
class NftStats:
    """Size measures of an Nft.

    smax is the maximum absolute transition shift, lmax the maximum
    transition length |input| + |output|.  The machine-size measure of the
    deviation bounds, the byte length of the canonical serialization, is
    textio.repr_size.
    """

    num_states: int
    smax: int
    lmax: int


def stats(t: Nft) -> NftStats:
    """Compute NftStats; a transition-free Nft has smax = lmax = 0."""
    smax = lmax = 0
    for tr in t.transitions:
        i, o = len(tr.input), len(tr.output)
        if abs(i - o) > smax:
            smax = abs(i - o)
        if i + o > lmax:
            lmax = i + o
    return NftStats(num_states=t.num_states, smax=smax, lmax=lmax)


@dataclass(frozen=True)
class Digraph:
    """A directed graph with two distinguished vertices s and t."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    s: int
    t: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        if self.vertex_count < 1:
            raise ValueError("need at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
        if not (0 <= self.s < self.vertex_count and 0 <= self.t < self.vertex_count):
            raise ValueError("s or t out of range")


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF formula: clauses are triples of signed 1-based variables."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} must have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)
