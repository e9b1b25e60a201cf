"""Self-test of the benchmark on a tiny size of each workload.

    python3 bench/selftest.py

It checks that every tiny workload answers correctly, that one tampered
expected answer is counted as a miss, that a traced pass accounts for its
wall time and restores every binding it patched, that answer times are
scaled by the speed kernel's times around them, that a wrapped function
missing from the package leaves its metric out instead of failing, and
that the witness checks reject broken witnesses.  It prints one line per
check and exits with 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import functools
import sys

import run


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def check_workloads(nftdev, workloads):
    for name, builder in workloads.BUILDERS.items():
        queries = builder(7, tiny=True)
        result = run.measure(nftdev, queries, 0, 7)
        expect(not result.failures, f"{name}: tiny workload missed {result.failures}")
        expect(queries == builder(7, tiny=True), f"{name}: same seed, different queries")
        print(f"ok  {name}: {len(queries)} tiny queries answered correctly")


def check_tamper(nftdev, workloads):
    queries = workloads.build_family(0, tiny=True)
    first = queries[0]
    wrong = dataclasses.replace(first.expected, value=first.expected.value + 1)
    tampered = [dataclasses.replace(first, expected=wrong)] + queries[1:]
    result = run.measure(nftdev, tampered, 0, 0)
    ratio = len(result.failures) / len(result.times)
    expect(ratio > 0, "a tampered expected answer was not caught")
    print(f"ok  tampered answer caught: failed_ratio = {ratio:.4f}")


def check_trace(nftdev, workloads):
    from spans import Tracer

    builder = functools.partial(workloads.build_compare, tiny=True)
    setup = run.set_up(builder, 7, trace=True)
    before = nftdev.engine.trim_with_maps
    untraced = run.measure(nftdev, setup.queries, 0, 7)
    with Tracer() as tracer:
        traced = run.measure(nftdev, setup.queries, 0, 7, tracer)
        expect(nftdev.engine.trim_with_maps is not before, "engine.trim_with_maps not wrapped")
    expect(nftdev.engine.trim_with_maps is before, "engine.trim_with_maps not restored")
    metrics = run.per_layer(traced, untraced, setup.summary, tracer.wrapped,
                            run.loop_self(setup.queries))
    for name in ("engine.graph_self_s", "transform.trim_with_maps.s", "core.stats.calls",
                 "textio.parse_nft.mb_per_s", "reductions.pairs_kept_ratio", "gadgets.gen.s",
                 "oracle.brute_force_deviation.s", "trace.overhead_ratio"):
        expect(name in metrics, f"traced run lacks {name}")
    expect(metrics["reductions.comparison_to_deviation.self_s"][0] > 0, "no product time seen")
    unaccounted = metrics["trace.unaccounted_ratio"][0]
    expect(unaccounted < 0.05, f"layer and loop times miss {unaccounted:.2%} of the pass time")
    print(f"ok  traced pass: {len(metrics)} layer metrics, unaccounted ratio {unaccounted:.4f}")


def check_speed(nftdev, workloads):
    """Answers are scaled by the kernel times taken around them."""
    import speed

    sp = speed.Speed()
    sp.marks = [(0.0, 2 * speed.REF_S), (10.0, speed.REF_S / 2)]
    expect(sp.scale(0.0, 0.1) == 0.5, "a slow stretch is not scaled down")
    expect(sp.scale(9.9, 10.0) == 2.0, "a fast stretch is not scaled up")
    expect(abs(sp.scale(4.9, 5.0) - 0.8) < 1e-12, "a stretch far from every kernel time is "
           "not scaled by the nearest ones")
    sp.marks = []
    queries = workloads.build_family(0, tiny=True)
    result = run.measure(nftdev, queries, 0, 0, speed=sp)
    expect(not result.failures and sp.marks, "scaled run failed or took no speed")
    expect(all(t > 0 for _, _, t in result.times), "a scaled time is not positive")
    print(f"ok  speed: {len(sp.marks)} kernel times, kernel {sp.marks[0][1]:.4g} s")


def check_missing_function(nftdev, workloads):
    """A function a later change removes or inlines, or a layer module it
    deletes, leaves its metrics out."""
    import spans

    transform = sys.modules["nftdev.transform"]
    original, layers = transform.is_trim, spans.LAYERS
    del transform.is_trim
    spans.LAYERS = ("textio", "core", "transform", "engine", "nosuchlayer")
    try:
        queries = workloads.build_family(0, tiny=True)
        untraced = run.measure(nftdev, queries, 0, 0)
        with spans.Tracer() as tracer:
            traced = run.measure(nftdev, queries, 0, 0, tracer)
        expect(not traced.failures, "run failed without transform.is_trim")
        setup = run.set_up(functools.partial(workloads.build_family, tiny=True), 0, trace=True)
        metrics = run.per_layer(traced, untraced, setup.summary, tracer.wrapped,
                                run.loop_self(queries))
    finally:
        transform.is_trim, spans.LAYERS = original, layers
    expect("transform.is_trim.s" not in metrics, "metric of a missing function reported")
    expect("transform.trim_with_maps.s" in metrics, "metric of a present function missing")
    print("ok  missing function: its metric is absent and the run completes")


def check_witnesses(nftdev, workloads):
    import check

    t = nftdev.Nft(("p", "q"), "ab", {0}, {1},
                   [nftdev.Transition(0, "a", "b", 1), nftdev.Transition(1, "a", "", 1)])
    res = nftdev.analyze_deviation(t)
    expect(res.verdict.value == "not-length-preserving", "expected a non-length-preserving NFT")
    expect(check.unbalanced_witness_error(t, res.witness.transitions) is None,
           "valid unbalanced witness rejected")
    expect(check.unbalanced_witness_error(t, (0,)) is not None, "balanced run accepted")

    family = nftdev.gen_family(4).nft
    res = nftdev.analyze_deviation(family)
    steps = res.witness.transitions
    expect(check.bounded_witness_error(family, steps, res.value) is None, "valid witness rejected")
    expect(check.bounded_witness_error(family, steps[:-1], res.value) is not None,
           "truncated witness accepted")
    expect(check.bounded_witness_error(family, steps, res.value - 1) is not None,
           "witness accepted for a wrong value")

    reach = next(q for q in workloads.build_reach(7, tiny=True)
                 if q.op == "analyze" and q.expected.verdict == "unbounded")
    res = nftdev.analyze_deviation(reach.nft)
    parts = (res.cycle_prefix.transitions, res.cycle_witness.transitions,
             res.cycle_suffix.transitions)
    expect(check.unbounded_witness_error(reach.nft, *parts, res.anchor_state) is None,
           "valid unbounded witness rejected")
    expect(check.unbounded_witness_error(reach.nft, parts[0], (), parts[2], res.anchor_state)
           is not None, "empty cycle accepted")
    print("ok  witness checks accept valid witnesses and reject broken ones")


def main() -> int:
    nftdev = run._import_package()
    import workloads

    try:
        for test in (check_workloads, check_tamper, check_trace, check_speed,
                     check_missing_function, check_witnesses):
            test(nftdev, workloads)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
