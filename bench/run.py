"""nftdev benchmark: time to verdict on four workloads.

    python3 bench/run.py --workload {family,sat,reach,compare,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as a closed loop in one process with one thread and one
caller: a query (parse NFT text, then one decision call) starts only after
the previous one has returned.  Every answer is checked against ground
truth outside the timed region.  ``--workload all`` runs the four workloads
one after another, each in a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment.  The exit code is 1 when any
answer was wrong, and 2 when the package cannot be found next to this
directory.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("family", "sat", "reach", "compare")
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_TARGET_S = 2.0  # keep repeating set-up until its reps take this long
MIN_SHARE_S = 0.05  # answer time per query and later pass, at the least
MAX_REPEATS = 50
LOOP_REPS = 100  # stand-in answers per query that time the loop's own cost


def _import_package():
    """Import nftdev from the src/ directory beside this one, and nowhere else.

    The benchmark's other modules import nftdev, so they are imported inside
    the functions that use them, after this has put src/ on the path.
    """
    if not (SRC / "nftdev" / "__init__.py").is_file():
        print(f"bench: no nftdev package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nftdev

    if Path(nftdev.__file__).resolve().parent != SRC / "nftdev":
        print(f"bench: imported nftdev from {nftdev.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return nftdev


@dataclass
class Samples:
    """Query times of one measured stretch, in the order they were taken."""

    n_queries: int
    times: list[tuple[int, int, float]] = field(default_factory=list)  # (pass, query, s)
    ends: list[float] = field(default_factory=list)  # perf_counter() after each answer
    failures: list[tuple[str, str]] = field(default_factory=list)
    budget_exceeded: int = 0
    summaries: list = field(default_factory=list)  # spans.Summary of each traced pass

    @property
    def passes(self) -> float:
        """How many times the query list was answered, counting a part
        (when no query is repeated within a pass)."""
        return len(self.times) / self.n_queries

    def query_times(self) -> list[float]:
        """Each query's time to verdict: the median of its timed answers,
        so a moment when the shared machine runs slow does not shift it."""
        by_query: dict[int, list[float]] = {}
        for _, qi, t in self.times:
            by_query.setdefault(qi, []).append(t)
        return [statistics.median(ts) for ts in by_query.values()]

    def wall(self) -> float:
        """The time to answer the query list once."""
        return sum(self.query_times())


def answer(nftdev, q):
    """Parse the query's text and ask the package for the verdict."""
    nfts = [nftdev.parse_nft(text) for text in q.texts]
    if q.op == "analyze":
        return nftdev.analyze_deviation(nfts[0])
    if q.op == "bounded":
        return nftdev.is_bounded(nfts[0])
    if q.op == "threshold":
        return nftdev.threshold(nfts[0], q.k)
    if q.op == "exact":
        return nftdev.exact(nfts[0], q.k)
    if q.op == "compare":
        return nftdev.compare(nfts[0], nfts[1], q.mode, q.k)
    raise ValueError(f"unknown query op {q.op!r}")


def timed_answer(nftdev, q):
    """(answer, exception, seconds) of one answer; the only timed region."""
    t0 = time.perf_counter()
    try:
        ans, exc = answer(nftdev, q), None
    except Exception as e:  # a failed query is counted, not fatal
        ans, exc = None, e
    return ans, exc, time.perf_counter() - t0


def loop_self(queries) -> list[float]:
    """The query loop's own time per answer of each query, measured apart
    from the traced run: each query is answered as in the timed loop, but
    by stand-ins for the package's calls that return at once, each wrapped
    in a span, and the spans are taken off.  What is left is the loop's
    dispatch and the tracer's cost outside its spans."""
    from spans import Tracer

    tracer = Tracer()
    stub = types.SimpleNamespace(**{
        name: tracer.wrap(f"stub.{name}", "stub", lambda *args, **kwargs: None)
        for name in ("parse_nft", "analyze_deviation", "is_bounded", "threshold", "exact",
                     "compare")
    })
    out = []
    for q in queries:
        own = []
        for _ in range(LOOP_REPS):
            tracer.spans.clear()
            t = timed_answer(stub, q)[2]
            own.append(t - sum(s.seconds for s in tracer.spans if s.parent < 0))
        out.append(statistics.median(own))
    return out


def repeats_for(first: list[float], budget: float) -> list[int]:
    """How many times to answer each query in one pass, from its first
    time: every query about ``share`` seconds' worth of answers (at least
    one, at most MAX_REPEATS), with ``share`` the largest that keeps the
    pass within ``budget`` seconds, and at least MIN_SHARE_S."""
    def repeats(share):
        return [max(1, min(MAX_REPEATS, int(share / t))) if t > 0 else MAX_REPEATS
                for t in first]

    lo, hi = 0.0, max(budget, 0.0)
    for _ in range(40):
        mid = (lo + hi) / 2
        if sum(r * t for r, t in zip(repeats(mid), first)) <= budget:
            lo = mid
        else:
            hi = mid
    return repeats(max(lo, MIN_SHARE_S))


def measure(nftdev, queries, seconds: float, seed: int, tracer=None, speed=None) -> Samples:
    """Answer the queries one at a time, pass after pass, until ``seconds``
    have gone by and at least one whole pass was timed.

    Each pass takes the queries in its own order, drawn from the seed, so
    that the answers of one query are spread over the whole run rather than
    bunched in a few moments of a shared machine's changing speed.

    ``speed`` (a speed.Speed) makes this the end-to-end run: the time left
    after the first pass goes to passes in which each query is answered
    about the same time's worth of times (repeats_for), so a cheap query is
    timed often enough for its median to be steady; the reference kernel
    runs between answers, and every answer's time is scaled to reference
    speed at the end.
    """
    from spans import summarize

    out = Samples(len(queries))
    clock = time.perf_counter
    start = clock()
    p = 0
    repeats = [1] * len(queries)
    while True:
        order = [qi for qi, r in enumerate(repeats) for _ in range(r)]
        random.Random(f"order:{seed}:{p}").shuffle(order)
        gc.collect()
        done = False
        for qi in order:
            if p > 0 and clock() - start >= seconds:
                done = True
                break
            if tracer is not None:
                tracer.query = qi
            if speed is not None:
                speed.tick()
            _answer_and_check(nftdev, queries[qi], p, qi, out)
        if tracer is not None:
            out.summaries.append(summarize(tracer.spans))
            tracer.spans.clear()
        if done:
            if speed is not None:
                speed.tick()
                out.times = [(pi, qi, t * speed.scale(end - t, end))
                             for (pi, qi, t), end in zip(out.times, out.ends)]
            return out
        if p == 0 and speed is not None:
            first = [0.0] * len(queries)
            for _, qi, t in out.times:
                first[qi] = t
            repeats = repeats_for(first, seconds - (clock() - start))
        p += 1


def _answer_and_check(nftdev, q, p: int, qi: int, out: Samples):
    """Time one answer, then check it untimed; a miss is recorded in out."""
    import check

    ans, exc, t = timed_answer(nftdev, q)
    out.ends.append(time.perf_counter())
    out.times.append((p, qi, t))
    if exc is None:
        try:
            reason = check.error(q, ans)
        except Exception as e:  # a malformed answer is a miss
            reason = f"check raised {e!r}"
    else:
        if isinstance(exc, nftdev.StateBudgetExceeded):
            out.budget_exceeded += 1
        reason = f"raised {exc!r}"
        if len(out.failures) < 3:
            traceback.print_exception(exc, file=sys.stderr)
    if reason is not None:
        out.failures.append((q.label, reason))


def end_to_end(samples: Samples, setup_times: list[float], own_bytes: int
               ) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; ``own_bytes`` is memory the benchmark holds
    resident for the whole run, taken off the peak."""
    times = samples.query_times()
    return {
        "wall_s": (sum(times), "s"),
        "query_s.p50": (statistics.median(times), "s"),
        "query_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
        "query_s.geomean": (math.exp(statistics.fmean(math.log(t) for t in times)), "s"),
        "peak_rss_mb": ((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - own_bytes)
                        / 2**20, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(traced: Samples, untraced: Samples, setup_summary, wrapped: set[str],
              loop_s: list[float]) -> dict[str, tuple[float, str]]:
    """Layer metrics per pass of the traced run, and set-up metrics from one
    traced set-up.  ``loop_s`` is the loop's own time per answer of each
    query, from loop_self().  A metric whose function is not in ``wrapped``
    (no longer in the package) is left out."""
    n = traced.passes
    sums: dict[str, dict] = {attr: {} for attr in ("self_s", "inclusive_s", "fn_s", "fn_calls",
                                                   "fn_self_s")}
    notes: dict[str, list[tuple]] = {}
    for summary in traced.summaries:
        for attr, acc in sums.items():
            for key, value in getattr(summary, attr).items():
                acc[key] = acc.get(key, 0) + value
        for key, values in summary.notes.items():
            notes.setdefault(key, []).extend(values)
    out: dict[str, tuple[float, str]] = {}

    def fn_metric(name, kind="fn_s", unit="s", metric=None):
        if name in wrapped:
            out[metric or f"{name}.s"] = (sums[kind].get(name, 0) / n, unit)

    def kept_ratio(name, metric):
        """Sum of kept over sum of offered, from (kept, offered) notes."""
        if name in wrapped:
            pairs = notes.get(name, [])
            offered = sum(b for _, b in pairs)
            out[metric] = (sum(a for a, _ in pairs) / offered if offered else 0.0, "ratio")

    def layer_self(layer):
        if any(w.startswith(layer + ".") for w in wrapped):
            out[f"{layer}.self_s"] = (sums["self_s"].get(layer, 0.0) / n, "s")

    if any(w.startswith("engine.") for w in wrapped):
        out["engine.query.s"] = (sums["inclusive_s"].get("engine", 0.0) / n, "s")
        graph_self = (sums["self_s"].get("engine", 0.0)
                      - sums["fn_self_s"].get("engine.shift_assignment", 0.0))
        out["engine.graph_self_s"] = (graph_self / n, "s")
    fn_metric("engine.shift_assignment")
    out["engine.budget_exceeded"] = (traced.budget_exceeded, "count")
    layer_self("engine")

    for name in ("trim_with_maps", "is_trim", "atomize", "add_eps_self_loops"):
        fn_metric(f"transform.{name}")
    kept_ratio("transform.trim_with_maps", "transform.trim.kept_ratio")
    layer_self("transform")

    fn_metric("core.stats")
    fn_metric("core.stats", "fn_calls", "count", "core.stats.calls")
    fn_metric("core.run_words")
    layer_self("core")

    fn_metric("textio.parse_nft")
    if "textio.parse_nft" in wrapped:
        parsed = sum(b for (b,) in notes.get("textio.parse_nft", []))
        parse_s = sums["fn_s"].get("textio.parse_nft", 0.0)
        out["textio.parse_nft.mb_per_s"] = (parsed / parse_s / 1e6 if parse_s else 0.0, "MB/s")
    fn_metric("textio.serialize_nft")
    fn_metric("textio.serialize_nft", "fn_calls", "count", "textio.serialize_nft.calls")
    layer_self("textio")

    fn_metric("reductions.comparison_to_deviation", "fn_self_s", "s",
              "reductions.comparison_to_deviation.self_s")
    kept_ratio("reductions.comparison_to_deviation", "reductions.pairs_kept_ratio")
    layer_self("reductions")

    s = setup_summary
    if any(w.startswith("gadgets.") for w in wrapped):
        out["gadgets.gen.s"] = (s.inclusive_s.get("gadgets", 0.0), "s")
    for name in ("sat_brute_force", "brute_force_deviation"):
        if f"oracle.{name}" in wrapped:
            out[f"oracle.{name}.s"] = (s.fn_s.get(f"oracle.{name}", 0.0), "s")
    if "oracle.brute_force_deviation" in wrapped:
        saturated = sum(x for (x,) in s.notes.get("oracle.brute_force_deviation", []))
        out["oracle.saturated"] = (saturated, "count")

    out["trace.overhead_ratio"] = (traced.wall() / untraced.wall() - 1, "ratio")
    own = sum(loop_s[qi] for _, qi, _ in traced.times) / n
    out["loop.self_s"] = (own, "s")
    layers_self = sum(sums["self_s"].values()) / n
    timed = sum(t for _, _, t in traced.times) / n
    out["trace.unaccounted_ratio"] = (abs(timed - layers_self - own) / timed, "ratio")
    return out


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(nftdev, args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "max_configs": nftdev.DEFAULT_MAX_CONFIGS,
    }


@dataclass
class Setup:
    queries: list
    times: list[float]
    summary: object = None  # spans.Summary of one traced set-up


def set_up(builder, seed: int, trace: bool, speed=None) -> Setup:
    """Build the query list several times and keep the times; the builds
    must agree, since the same seed has to give the same inputs.  With
    ``speed``, the reference kernel runs between builds and the times are
    scaled to reference speed."""
    from spans import Tracer, summarize

    intervals: list[tuple[float, float]] = []
    queries = None
    while len(intervals) < SETUP_MIN_REPS or (
        sum(t1 - t0 for t0, t1 in intervals) < SETUP_TARGET_S and len(intervals) < SETUP_MAX_REPS
    ):
        if speed is not None:
            speed.tick()
        t0 = time.perf_counter()
        built = builder(seed)
        intervals.append((t0, time.perf_counter()))
        if queries is not None and built != queries:
            raise RuntimeError("set-up is not deterministic for this seed")
        queries = built
    if speed is not None:
        speed.tick()
        times = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in intervals]
    else:
        times = [t1 - t0 for t0, t1 in intervals]
    setup = Setup(queries, times)
    if trace:
        with Tracer() as tracer:
            builder(seed)
        setup.summary = summarize(tracer.spans)
    return setup


def run_workload(nftdev, args) -> int:
    import workloads
    from spans import Tracer
    from speed import BUFFER_BYTES, REF_S, Speed

    speed = Speed() if args.trace == 0 else None
    setup = set_up(workloads.BUILDERS[args.workload], args.seed, args.trace == 1, speed)
    queries = setup.queries
    if len(queries) < workloads.MIN_QUERIES:
        raise RuntimeError(f"{args.workload} has {len(queries)} queries, fewer than "
                           f"{workloads.MIN_QUERIES}")
    # The benchmark's own inputs stay alive for the whole run; keep them out
    # of the collections the package's allocations trigger.
    gc.collect()
    gc.freeze()
    if args.trace == 0:
        runs = [measure(nftdev, queries, args.seconds, args.seed, speed=speed)]
        metrics = end_to_end(runs[0], setup.times, BUFFER_BYTES)
    else:
        untraced = measure(nftdev, queries, args.seconds / 2, args.seed)
        with Tracer() as tracer:
            traced = measure(nftdev, queries, args.seconds / 2, args.seed, tracer)
        runs = [untraced, traced]
        metrics = per_layer(traced, untraced, setup.summary, tracer.wrapped, loop_self(queries))
    attempted = sum(len(r.times) for r in runs)
    failures = [f for r in runs for f in r.failures]
    for label, reason in failures[:20]:
        print(f"MISS {label}: {reason}")
    print(f"{args.workload}: {len(queries)} queries (samples), {attempted} timed answers, "
          f"{len(setup.times)} set-ups")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(f"  {'failed_ratio':<40} {len(failures) / attempted:.6g} ratio")
    if speed is not None:
        kernel_s = [s for _, s in speed.marks]
        print(f"  times scaled to reference speed: the kernel took {statistics.median(kernel_s):.6g} s"
              f" (median of {len(kernel_s)}) against {REF_S} s")
    print(json.dumps({"provenance": provenance(nftdev, args)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        code = max(code, proc.returncode)
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    nftdev = _import_package()
    return run_workload(nftdev, args)


if __name__ == "__main__":
    sys.exit(main())
