"""The correctness gate: each answer against its ground truth.

Witnesses are re-verified against the generated NFT with a run walker of
the benchmark's own, so a defect shared by the engine and the package's
helpers cannot hide here.  Nothing in this module is timed.
"""

from __future__ import annotations

from workloads import Expect, Query


def _walk(t, steps) -> tuple[int, int, str, str] | None:
    """(first state, last state, input, output) of a nonempty run given by
    transition indices, or None when the indices do not chain."""
    if not steps:
        return None
    trans = t.transitions
    if any(not 0 <= i < len(trans) for i in steps):
        return None
    for a, b in zip(steps, steps[1:]):
        if trans[a].dst != trans[b].src:
            return None
    u = "".join(trans[i].input for i in steps)
    v = "".join(trans[i].output for i in steps)
    return trans[steps[0]].src, trans[steps[-1]].dst, u, v


def _mismatches(u: str, v: str) -> int:
    return sum(a != b for a, b in zip(u, v))


def bounded_witness_error(t, steps, value: int) -> str | None:
    """A bounded witness is an initial-to-final run whose Hamming distance
    equals the value (the empty run counts when a state is both)."""
    if not steps:
        if value == 0 and t.initials & t.finals:
            return None
        return "empty bounded witness"
    walked = _walk(t, steps)
    if walked is None:
        return "bounded witness is not a run"
    first, last, u, v = walked
    if first not in t.initials or last not in t.finals:
        return "bounded witness is not initial-to-final"
    if len(u) != len(v) or _mismatches(u, v) != value:
        return "bounded witness does not realize the value"
    return None


def unbalanced_witness_error(t, steps) -> str | None:
    """A not-length-preserving witness is an accepting run with |u| != |v|."""
    walked = _walk(t, steps)
    if walked is None:
        return "unbalanced witness is not a run"
    first, last, u, v = walked
    if first not in t.initials or last not in t.finals or len(u) == len(v):
        return "unbalanced witness is not an accepting run with unequal lengths"
    return None


def unbounded_witness_error(t, prefix, cycle, suffix, anchor) -> str | None:
    """prefix . cycle^j . suffix must be accepting for j = 1, 2, 3, with
    equal word lengths and a distance that grows with j."""
    if not cycle:
        return "empty mismatch cycle"
    walked = _walk(t, cycle)
    if walked is None or walked[0] != anchor or walked[1] != anchor:
        return "mismatch cycle is not a cycle through the anchor"
    distances = []
    for j in (1, 2, 3):
        first, last, u, v = _walk(t, prefix + cycle * j + suffix) or (None, None, "", "")
        if first not in t.initials or last not in t.finals:
            return "pumped run is not accepting"
        if len(u) != len(v):
            return "pumped run has unequal lengths"
        distances.append(_mismatches(u, v))
    if not distances[0] < distances[1] < distances[2]:
        return "pumped distance does not grow"
    return None


def error(q: Query, answer) -> str | None:
    """Why the answer to q is wrong, or None when it is right."""
    if not isinstance(q.expected, Expect):
        if answer is not q.expected:
            return f"expected {q.expected}, got {answer}"
        return None
    exp: Expect = q.expected
    res = answer
    verdict = res.verdict.value
    if verdict != exp.verdict:
        return f"expected verdict {exp.verdict}, got {verdict}"
    if verdict == "bounded":
        if res.value != exp.value:
            return f"expected deviation {exp.value}, got {res.value}"
        return bounded_witness_error(q.nft, res.witness.transitions, res.value)
    if verdict == "unbounded":
        return unbounded_witness_error(
            q.nft,
            res.cycle_prefix.transitions,
            res.cycle_witness.transitions,
            res.cycle_suffix.transitions,
            res.anchor_state,
        )
    if verdict == "not-length-preserving":
        return unbalanced_witness_error(q.nft, res.witness.transitions)
    return None

