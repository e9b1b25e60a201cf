"""Independent brute-force ground truth.

brute_force_deviation evaluates dev(R) = sup d(u, v) directly by
exhaustively exploring accepting runs up to explicit limits; it shares no
code with the deviation engine and is used to validate it.  Two partial
runs that reach the same state with the same unmatched letters and the
same mismatch count have identical futures, so the exploration memoizes
on that triple; the reported maximum is exactly the maximum over all
accepting runs within the limits, and `saturated` reports whether any
frontier was cut (in which case max_seen is only a lower bound).

domains_equal_upto compares the domains of two transducers up to a word
length, and sat_brute_force gives the 2^n satisfiability ground truth for
the gadget generators.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import INF, CnfFormula, ExtendedNat, Nft, Run, stats
from .textio import repr_size


class OracleScaleExceeded(RuntimeError):
    """Raised when a brute-force input is too large to enumerate."""


@dataclass(frozen=True)
class BruteForceResult:
    max_seen: ExtendedNat
    saturated: bool
    witness: Run | None


def _default_caps(t: Nft) -> int:
    """The default run limit, max_run_len = 4B."""
    st = stats(t)
    b = min(st.smax * st.num_states, repr_size(t))
    return 4 * (b + st.lmax + 2) * st.num_states


def brute_force_deviation(
    t: Nft,
    max_run_len: int | None = None,
    node_budget: int = 500_000,
) -> BruteForceResult:
    """Maximum distance over accepting runs within the given limits.

    max_seen is INF as soon as some accepting pair has |u| != |v| (then
    the supremum is exactly INF and saturated is False).  Otherwise
    max_seen is the maximum Hamming distance observed, 0 for an empty
    relation, and saturated tells whether the run limit or an internal cap
    cut the exploration.  A negative limit raises ValueError.
    """
    st = stats(t)
    if max_run_len is None:
        max_run_len = _default_caps(t)
    if max_run_len < 0:
        raise ValueError("max_run_len must be a natural number")
    n = st.num_states
    # Length-preserving transducers keep every lag within smax * |Q|.  When
    # some accepted pair is unbalanced, one is reachable through an acyclic
    # prefix, at most two laps of a simple cycle and an acyclic suffix,
    # whose running shift never exceeds smax * (3|Q| - 1); so this cap can
    # only cut runs that matter for neither verdict.
    lag_cap = 3 * st.smax * n + st.lmax

    adj: list[list[tuple[int, object]]] = [[] for _ in range(n)]
    for i, tr in enumerate(t.transitions):
        adj[tr.src].append((i, tr))

    # node: (state, side, lag, mismatches) -> (parent_key, trans_idx, run_len)
    info: dict[tuple, tuple] = {}
    queue: deque[tuple] = deque()
    saturated = False
    best = -1
    best_key = None

    def witness_of(key):
        steps = []
        while info[key][0] is not None:
            prev, ti = info[key][0], info[key][1]
            steps.append(ti)
            key = prev
        steps.reverse()
        return Run(tuple(steps))

    for q in sorted(t.initials):
        key = (q, 0, "", 0)
        if key not in info:
            info[key] = (None, None, 0)
            queue.append(key)
            if q in t.finals and best < 0:
                best = 0
                best_key = key

    while queue:
        key = queue.popleft()
        state, side, lag, mism = key
        length = info[key][2]
        for ti, tr in adj[state]:
            if length + 1 > max_run_len:
                saturated = True
                break
            pin = lag + tr.input if side > 0 else tr.input
            pout = lag + tr.output if side < 0 else tr.output
            k = min(len(pin), len(pout))
            gained = sum(1 for a, c in zip(pin, pout) if a != c)
            if len(pin) > k:
                nside, nlag = 1, pin[k:]
            elif len(pout) > k:
                nside, nlag = -1, pout[k:]
            else:
                nside, nlag = 0, ""
            if len(nlag) > lag_cap:
                saturated = True
                continue
            nk = (tr.dst, nside, nlag, mism + gained)
            if nk in info:
                continue
            if len(info) >= node_budget:
                saturated = True
                continue
            info[nk] = (key, ti, length + 1)
            if tr.dst in t.finals:
                if nside != 0:
                    # an accepted pair with unequal lengths: the sup is INF
                    return BruteForceResult(INF, False, witness_of(nk))
                if nk[3] > best:
                    best = nk[3]
                    best_key = nk
            queue.append(nk)

    if best_key is None:
        return BruteForceResult(0, saturated, None)
    return BruteForceResult(best, saturated, witness_of(best_key))


def _domain_upto(t: Nft, max_word_len: int) -> set[str]:
    """Exactly the inputs of length <= max_word_len accepted with some
    output (of any length).  A negative max_word_len raises ValueError."""
    if max_word_len < 0:
        raise ValueError("max_word_len must be a natural number")
    adj: list[list[object]] = [[] for _ in range(t.num_states)]
    for tr in t.transitions:
        adj[tr.src].append(tr)
    seen: set[tuple[int, str]] = set()
    queue: deque[tuple[int, str]] = deque()
    for q in t.initials:
        key = (q, "")
        if key not in seen:
            seen.add(key)
            queue.append(key)
    dom: set[str] = set()
    while queue:
        state, u = queue.popleft()
        if state in t.finals:
            dom.add(u)
        for tr in adj[state]:
            nu = u + tr.input
            if len(nu) > max_word_len:
                continue
            key = (tr.dst, nu)
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return dom


def domains_equal_upto(t1: Nft, t2: Nft, max_word_len: int) -> bool:
    """Bounded-length surrogate for domain equality: do the accepted input
    words coincide up to max_word_len?  Outputs are not length-capped, so
    this is exactly dom(R) restricted to short words.  A negative
    max_word_len raises ValueError."""
    return _domain_upto(t1, max_word_len) == _domain_upto(t2, max_word_len)


def sat_brute_force(f: CnfFormula) -> tuple[bool, ...] | None:
    """A satisfying valuation of f (as a tuple indexed by variable - 1),
    or None; enumerates all 2^n assignments, n <= 24."""
    if f.num_vars > 24:
        raise OracleScaleExceeded("oracle scale exceeded")
    for mask in range(1 << f.num_vars):
        valuation = tuple(bool(mask >> i & 1) for i in range(f.num_vars))
        if all(
            any(valuation[lit - 1] if lit > 0 else not valuation[-lit - 1] for lit in clause)
            for clause in f.clauses
        ):
            return valuation
    return None
