"""Command-line surface.

Exit codes: 0 for TRUE or success, 1 for FALSE, 2 for usage or parse
errors, 3 when a resource limit (configuration budget, oracle scale) was
hit.  Diagnostics go to stderr; verdicts and emitted files to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import INF
from .engine import (
    DEFAULT_MAX_CONFIGS,
    DeviationResult,
    StateBudgetExceeded,
    Verdict,
    analyze_deviation,
    exact,
    is_bounded,
    threshold,
)
from .gadgets import (
    GadgetInstance,
    gen_3sat,
    gen_family,
    gen_reach_bounded,
    gen_reach_threshold,
    gen_sat_unsat,
)
from .oracle import OracleScaleExceeded, brute_force_deviation, domains_equal_upto
from .reductions import compare
from .textio import ParseError, parse_cnf, parse_digraph, parse_nft, serialize_nft
from .transform import atomize, trim

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _parse_k(text: str) -> int:
    if text.lower().startswith("0b"):
        value = int(text, 2)
    else:
        value = int(text, 10)
    if value < 0:
        raise ValueError("k must be a natural number")
    return value


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_nft(path: str):
    return parse_nft(_read(path))


def _verdict_exit(answer: bool) -> int:
    print("TRUE" if answer else "FALSE")
    return EXIT_TRUE if answer else EXIT_FALSE


def _report_dict(res: DeviationResult) -> dict:
    if res.verdict is Verdict.UNBOUNDED:
        witness = res.cycle_witness
    else:
        witness = res.witness
    return {
        "lengthPreserving": res.length_preserving,
        "verdict": res.verdict.value,
        "deviation": res.value if res.bounded else None,
        "bounds": {"b": res.bounds.b, "B": res.bounds.B},
        "witness": list(witness.transitions) if witness is not None else None,
    }


def _print_report(path: str, res: DeviationResult) -> None:
    d = _report_dict(res)
    print(f"{path}: {res.verdict.value}")
    print(f"  length-preserving: {'yes' if d['lengthPreserving'] else 'no'}")
    print(f"  bounded: {'yes' if res.bounded else 'no'}")
    print(f"  deviation: {res.deviation}")
    if d["witness"] is not None:
        print("  witness: " + " ".join(str(i) for i in d["witness"]))
    if res.verdict is Verdict.UNBOUNDED:
        print(f"  anchor state: {res.anchor_state}")


def _emit_instance(instance: GadgetInstance, out: str | None) -> None:
    text = serialize_nft(instance.nft)
    truth = {"provenance": instance.provenance}
    truth.update(instance.expected.to_dict())
    line = json.dumps(truth, sort_keys=True)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        Path(out + ".truth").write_text(line + "\n", encoding="utf-8")
        print(f"wrote {out} and {out}.truth")
    else:
        sys.stdout.write(text)
        print(f"# truth: {line}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nftdev",
        description="Hamming-deviation analysis of finite-state transducers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_max_configs(p):
        p.add_argument(
            "--max-configs",
            type=int,
            default=DEFAULT_MAX_CONFIGS,
            help="budget for the configuration walk, run only when some transition"
            " shifts, in configurations it creates (default 2**20), counted after"
            " chains of states with one way out are fused; each costs about 150 to"
            " 300 bytes of peak memory, so the default allows about 0.15 to 0.35 GB",
        )

    p = sub.add_parser("analyze", help="full deviation report for NFT files")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--json", action="store_true")
    add_max_configs(p)

    p = sub.add_parser(
        "bounded",
        help="is the deviation finite? (polynomial, no budget: the longest paths"
        " over the state graph's components, which also trim it, when no"
        " transition shifts, else a (state, phase) search for a nonconjugate"
        " cycle)",
    )
    p.add_argument("file", metavar="FILE")

    for name, help_text in (
        ("threshold", "is the deviation at most K?"),
        ("exact", "is the deviation exactly K?"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", metavar="FILE")
        p.add_argument("k", metavar="K", help="decimal or 0b-binary natural number")
        add_max_configs(p)

    p = sub.add_parser("compare", help="comparison problems via the reduction")
    cmp_sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("bounded", "threshold", "exact"):
        cp = cmp_sub.add_parser(mode)
        if mode != "bounded":
            cp.add_argument("k", metavar="K")
            add_max_configs(cp)
        cp.add_argument("file1", metavar="FILE1")
        cp.add_argument("file2", metavar="FILE2")
        cp.add_argument(
            "--check-domains",
            type=int,
            metavar="L",
            help="first compare the domains on words up to length L",
        )

    p = sub.add_parser("gen", help="generate gadget instances with ground truth")
    gen_sub = p.add_subparsers(dest="generator", required=True)
    gp = gen_sub.add_parser("family")
    gp.add_argument("n", type=int, metavar="N")
    gp = gen_sub.add_parser("reach")
    gp.add_argument("graph", metavar="GRAPH")
    gp = gen_sub.add_parser("reach-k")
    gp.add_argument("graph", metavar="GRAPH")
    gp.add_argument("k", type=int, metavar="K")
    gp = gen_sub.add_parser("3sat")
    gp.add_argument("cnf", metavar="CNF")
    gp = gen_sub.add_parser("sat-unsat")
    gp.add_argument("cnf1", metavar="CNF1")
    gp.add_argument("cnf2", metavar="CNF2")
    for gp in gen_sub.choices.values():
        gp.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("oracle", help="brute-force deviation at bounded depth")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--max-run-len", type=int, default=None)
    p.add_argument("--json", action="store_true")

    for name, help_text in (
        ("trim", "emit the trimmed NFT"),
        ("atomize", "emit an equivalent input-atomic NFT"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", metavar="FILE")

    return parser


def _run(args) -> int:
    if args.command == "analyze":
        for path in args.files:
            res = analyze_deviation(_load_nft(path), args.max_configs)
            if args.json:
                print(json.dumps(_report_dict(res), sort_keys=True))
            else:
                _print_report(path, res)
        return EXIT_TRUE

    if args.command == "bounded":
        return _verdict_exit(is_bounded(_load_nft(args.file)))

    if args.command == "threshold":
        return _verdict_exit(threshold(_load_nft(args.file), _parse_k(args.k), args.max_configs))

    if args.command == "exact":
        return _verdict_exit(exact(_load_nft(args.file), _parse_k(args.k), args.max_configs))

    if args.command == "compare":
        t1 = _load_nft(args.file1)
        t2 = _load_nft(args.file2)
        if args.check_domains is not None and not domains_equal_upto(t1, t2, args.check_domains):
            print(
                f"domains differ on words up to length {args.check_domains}; "
                "the comparison distance is infinite",
                file=sys.stderr,
            )
            return _verdict_exit(False)
        if args.mode == "bounded":
            return _verdict_exit(compare(t1, t2, "bounded"))
        return _verdict_exit(compare(t1, t2, args.mode, _parse_k(args.k), args.max_configs))

    if args.command == "gen":
        if args.generator == "family":
            instance = gen_family(args.n)
        elif args.generator == "reach":
            instance = gen_reach_bounded(parse_digraph(_read(args.graph)))
        elif args.generator == "reach-k":
            instance = gen_reach_threshold(parse_digraph(_read(args.graph)), args.k)
        elif args.generator == "3sat":
            instance = gen_3sat(parse_cnf(_read(args.cnf)))
        else:
            instance = gen_sat_unsat(parse_cnf(_read(args.cnf1)), parse_cnf(_read(args.cnf2)))
        _emit_instance(instance, args.output)
        return EXIT_TRUE

    if args.command == "oracle":
        res = brute_force_deviation(_load_nft(args.file), args.max_run_len)
        witness = list(res.witness.transitions) if res.witness is not None else None
        if args.json:
            max_seen = "INF" if res.max_seen == INF else res.max_seen
            print(
                json.dumps(
                    {"maxSeen": max_seen, "saturated": res.saturated, "witness": witness},
                    sort_keys=True,
                )
            )
        else:
            print(f"maxSeen: {res.max_seen}")
            print(f"saturated: {'yes' if res.saturated else 'no'}")
            if witness is not None:
                print("witness: " + " ".join(str(i) for i in witness))
        return EXIT_TRUE

    if args.command == "trim":
        sys.stdout.write(serialize_nft(trim(_load_nft(args.file))))
        return EXIT_TRUE

    if args.command == "atomize":
        sys.stdout.write(serialize_nft(atomize(_load_nft(args.file))))
        return EXIT_TRUE

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except (StateBudgetExceeded, OracleScaleExceeded) as exc:
        print(f"nftdev: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ParseError, OSError, ValueError) as exc:
        print(f"nftdev: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
