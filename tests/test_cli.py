import argparse
import json
import re
from pathlib import Path

from nftdev import (
    Digraph,
    Nft,
    Transition,
    deviation_to_comparison,
    gen_family,
    gen_reach_bounded,
    parse_nft,
    serialize_nft,
    trim,
    union,
)
from nftdev.cli import _build_parser, main


def _write_family4(tmp_path):
    path = tmp_path / "family4.nft"
    path.write_text(serialize_nft(gen_family(4).nft), encoding="utf-8")
    return str(path)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_unsat(tmp_path, capsys):
    """The 3-SAT gadget of all 8 sign patterns over variables 1-3: it is
    unsatisfiable, so its deviation 26 lies below the engine's upper bound
    U = 27, and its probe weighs 18."""
    clauses = [f"{x} {y} {z} 0" for x in (1, -1) for y in (2, -2) for z in (3, -3)]
    cnf = _write(tmp_path, "unsat.cnf", "\n".join(["p cnf 3 8", *clauses, ""]))
    out = str(tmp_path / "unsat.nft")
    assert main(["gen", "3sat", cnf, "-o", out]) == 0
    capsys.readouterr()
    return out


def test_exact_true(tmp_path, capsys):
    assert main(["exact", _write_family4(tmp_path), "10"]) == 0
    assert capsys.readouterr().out.strip() == "TRUE"


def test_exact_false(tmp_path, capsys):
    assert main(["exact", _write_family4(tmp_path), "9"]) == 1
    assert capsys.readouterr().out.strip() == "FALSE"


def test_threshold_binary_k(tmp_path, capsys):
    assert main(["threshold", _write_family4(tmp_path), "0b1010"]) == 0
    assert main(["threshold", _write_family4(tmp_path), "0b1001"]) == 1
    assert main(["threshold", _write_family4(tmp_path), "123456789012345678901234567890"]) == 0


def test_bounded_verdicts(tmp_path, capsys):
    graph = _write(tmp_path, "g.dg", "2\n0 1\ns=0\nt=1\n")
    assert main(["gen", "reach", graph, "-o", str(tmp_path / "r.nft")]) == 0
    assert main(["bounded", str(tmp_path / "r.nft")]) == 1
    graph2 = _write(tmp_path, "g2.dg", "2\ns=0\nt=1\n")
    assert main(["gen", "reach", graph2, "-o", str(tmp_path / "r2.nft")]) == 0
    assert main(["bounded", str(tmp_path / "r2.nft")]) == 0


def test_analyze_json(tmp_path, capsys):
    assert main(["analyze", _write_family4(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "bounded"
    assert report["deviation"] == 10
    assert report["lengthPreserving"] is True
    assert set(report["bounds"]) == {"b", "B"}
    assert isinstance(report["witness"], list)


def test_readme_json_report_is_the_family4_report(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### JSON report", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    fam = str(tmp_path / "family4.nft")
    assert main(["gen", "family", "4", "-o", fam]) == 0
    capsys.readouterr()
    assert main(["analyze", fam, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(example)


def test_analyze_json_null_deviation(tmp_path, capsys):
    bad = _write(
        tmp_path,
        "bad.nft",
        "nft bad\nalphabet a\nstate i initial\nstate f final\ntrans i f a -\nend\n",
    )
    assert main(["analyze", bad, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "not-length-preserving"
    assert report["deviation"] is None
    assert report["lengthPreserving"] is False


def test_analyze_unbounded_within_one_configuration(tmp_path, capsys):
    loop = Nft(
        ("p",), frozenset("01"), frozenset({0}), frozenset({0}), (Transition(0, "0", "1", 0),)
    )
    both = _write(tmp_path, "u.nft", serialize_nft(union(gen_family(12).nft, loop)))
    assert main(["analyze", both, "--json", "--max-configs", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "unbounded"
    assert report["deviation"] is None


def test_threshold_false_within_a_small_budget(tmp_path, capsys):
    fam = str(tmp_path / "fam12.nft")
    assert main(["gen", "family", "12", "-o", fam]) == 0
    capsys.readouterr()
    assert main(["threshold", fam, "77", "--max-configs", "500"]) == 1
    assert capsys.readouterr().out.strip() == "FALSE"


def test_threshold_at_the_bound_walks_no_configuration(tmp_path, capsys):
    # the unsatisfiable gadget has L = 18 < v = 26 < U = 27 and B = 329:
    # k >= U (and k > U for exact) is answered from the bound and k < L
    # from the probe, so one configuration of budget is enough, while
    # threshold at U - 1 and exact at U still need the walk
    g = _write_unsat(tmp_path, capsys)
    for k in ("27", "329"):
        assert main(["threshold", g, k, "--max-configs", "1"]) == 0
    for k in ("28", "330"):
        assert main(["exact", g, k, "--max-configs", "1"]) == 1
    for question in ("threshold", "exact"):
        assert main([question, g, "17", "--max-configs", "1"]) == 1
    assert capsys.readouterr().out.split() == ["TRUE", "TRUE", "FALSE", "FALSE", "FALSE", "FALSE"]
    assert main(["threshold", g, "26", "--max-configs", "1"]) == 3
    assert main(["exact", g, "27", "--max-configs", "1"]) == 3


def test_family_400_builds_no_configuration(tmp_path, capsys):
    # T_400 has deviation U = 80,200 and a probe that weighs it, so every
    # question answers with a budget of one configuration
    fam = str(tmp_path / "fam400.nft")
    assert main(["gen", "family", "400", "-o", fam]) == 0
    capsys.readouterr()
    for k in ("0", "1", "2", "80199"):
        assert main(["threshold", fam, k, "--max-configs", "1"]) == 1
    for k in ("80200", "322400"):
        assert main(["threshold", fam, k, "--max-configs", "1"]) == 0
    assert main(["exact", fam, "80200", "--max-configs", "1"]) == 0
    for k in ("80199", "80201"):
        assert main(["exact", fam, k, "--max-configs", "1"]) == 1
    out = capsys.readouterr().out.split()
    assert out == ["FALSE"] * 4 + ["TRUE"] * 3 + ["FALSE"] * 2
    assert main(["analyze", fam, "--max-configs", "1"]) == 0
    assert "  deviation: 80200\n" in capsys.readouterr().out


def test_analyze_human(tmp_path, capsys):
    assert main(["analyze", _write_family4(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "deviation: 10" in out
    assert "witness:" in out
    text = "nft u\nalphabet a b\nstate p initial final\ntrans p p a b\nend\n"
    looping = _write(tmp_path, "u.nft", text)
    assert main(["analyze", looping]) == 0
    assert "  deviation: INF\n" in capsys.readouterr().out
    # the whole graph of T_22 outgrows the default budget, but the probe
    # weighs U = v = 253, so no configuration is built
    fam = str(tmp_path / "fam22.nft")
    assert main(["gen", "family", "22", "-o", fam]) == 0
    capsys.readouterr()
    assert main(["analyze", fam]) == 0
    assert "  deviation: 253\n" in capsys.readouterr().out


def test_gen_family_writes_truth_sidecar(tmp_path, capsys):
    out = tmp_path / "fam.nft"
    assert main(["gen", "family", "4", "-o", str(out)]) == 0
    parsed = parse_nft(out.read_text(encoding="utf-8"))
    assert parsed == gen_family(4).nft
    truth = json.loads((tmp_path / "fam.nft.truth").read_text(encoding="utf-8"))
    assert truth["deviation"] == 10 and truth["exact_answer"] is True


def test_gen_to_stdout_keeps_parseable(tmp_path, capsys):
    assert main(["gen", "family", "2"]) == 0
    out = capsys.readouterr().out
    assert "# truth:" in out
    parsed = parse_nft(out)  # the truth line is a comment
    assert parsed == gen_family(2).nft


def test_gen_3sat_and_sat_unsat(tmp_path, capsys):
    cnf = _write(tmp_path, "f.cnf", "p cnf 1 1\n1 1 1 0\n")
    uns = _write(tmp_path, "g.cnf", "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    assert main(["gen", "3sat", cnf, "-o", str(tmp_path / "s.nft")]) == 0
    truth = json.loads((tmp_path / "s.nft.truth").read_text(encoding="utf-8"))
    assert truth["threshold_k"] == 1 and truth["threshold_answer"] is False
    assert main(["gen", "sat-unsat", cnf, uns, "-o", str(tmp_path / "su.nft")]) == 0
    truth = json.loads((tmp_path / "su.nft.truth").read_text(encoding="utf-8"))
    assert truth["exact_answer"] is True
    assert main(["exact", str(tmp_path / "su.nft"), str(truth["exact_k"])]) == 0


def test_gen_reach_k(tmp_path, capsys):
    graph = _write(tmp_path, "g.dg", "3\n0 1\n1 2\ns=0\nt=2\n")
    assert main(["gen", "reach-k", graph, "2", "-o", str(tmp_path / "rk.nft")]) == 0
    assert main(["threshold", str(tmp_path / "rk.nft"), "2"]) == 1
    assert main(["exact", str(tmp_path / "rk.nft"), "3"]) == 0


def test_compare_subcommands(tmp_path, capsys):
    fam = _write_family4(tmp_path)
    t1, t2 = deviation_to_comparison(gen_family(4).nft)
    ident = _write(tmp_path, "fam_id.nft", serialize_nft(t1))
    assert main(["compare", "bounded", fam, fam]) == 0
    assert main(["compare", "exact", "0", fam, fam]) == 0  # a function vs itself
    assert main(["compare", "exact", "10", ident, fam]) == 0
    assert main(["compare", "threshold", "9", ident, fam]) == 1
    assert main(["compare", "bounded", ident, fam, "--check-domains", "4"]) == 0


def test_compare_domain_mismatch(tmp_path, capsys):
    a = _write(
        tmp_path, "a.nft", "nft a\nalphabet a b\nstate p initial final\ntrans p p a a\nend\n"
    )
    b = _write(
        tmp_path, "b.nft", "nft b\nalphabet a b\nstate p initial final\ntrans p p b b\nend\n"
    )
    assert main(["compare", "bounded", a, b, "--check-domains", "2"]) == 1
    err = capsys.readouterr().err
    assert "domains differ" in err


def test_oracle_command(tmp_path, capsys):
    fam = _write_family4(tmp_path)
    assert main(["oracle", fam, "--max-run-len", "24", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["maxSeen"] == 10 and report["saturated"] is False
    text = "nft u\nalphabet a\nstate p initial final\ntrans p p a -\nend\n"
    unbalanced = _write(tmp_path, "u.nft", text)
    assert main(["oracle", unbalanced]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["maxSeen: INF", "saturated: no"]


def test_oracle_negative_caps_exit_code(tmp_path, capsys):
    fam = _write_family4(tmp_path)
    assert main(["oracle", fam, "--max-run-len", "-1"]) == 2
    captured = capsys.readouterr()
    assert "max_run_len must be a natural number" in captured.err
    assert captured.out == ""
    # the pair-length cap is gone: a run of at most N transitions writes
    # at most N * lmax letters in all, so it could never bind
    assert main(["oracle", fam, "--max-pair-len", "8"]) == 2
    assert "--max-pair-len" in capsys.readouterr().err


def test_compare_negative_check_domains_exit_code(tmp_path, capsys):
    fam = _write_family4(tmp_path)
    assert main(["compare", "threshold", "3", fam, fam, "--check-domains", "-1"]) == 2
    captured = capsys.readouterr()
    assert "max_word_len must be a natural number" in captured.err
    assert captured.out == ""


def test_trim_and_atomize_commands(tmp_path, capsys):
    src = _write(
        tmp_path,
        "t.nft",
        "nft t\nalphabet a b\nstate i initial\nstate f final\nstate dead\ntrans i f ab ba\nend\n",
    )
    assert main(["trim", src]) == 0
    trimmed = parse_nft(capsys.readouterr().out)
    assert trimmed.num_states == 2
    assert main(["atomize", src]) == 0
    atomized = parse_nft(capsys.readouterr().out)
    assert all(len(tr.input) <= 1 for tr in atomized.transitions)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, "bad.nft", "nft x\nalphabet ab\nend\n")
    assert main(["bounded", bad]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["bounded", str(tmp_path / "nope.nft")]) == 2


def test_budget_exit_code(tmp_path, capsys):
    g = _write_unsat(tmp_path, capsys)
    assert main(["analyze", g, "--max-configs", "2"]) == 3
    err = capsys.readouterr().err
    # the start and one successor, at two states; the probe and U bracket
    # the deviation
    assert re.fullmatch(
        r"nftdev: state budget exceeded: budget of 2 configurations spent at 2 states,"
        r" b=3, \|Q\|=47, \d+\.\d\d s elapsed, deviation in \[18, 27\]\n",
        err,
    )


def test_budget_does_not_apply_at_zero_shift(tmp_path, capsys):
    # smax = 0: the longest paths are over the state graph, linear in its size, so
    # a budget below the number of states changes nothing
    chain = tuple((v, v + 1) for v in range(5))
    for edges in (chain, chain[:-1]):
        t = gen_reach_bounded(Digraph(6, edges, s=0, t=5)).nft
        assert trim(t).num_states > 1
        path = _write(tmp_path, "reach.nft", serialize_nft(t))
        assert main(["analyze", path]) == 0
        expected = capsys.readouterr()
        assert main(["analyze", path, "--max-configs", "1"]) == 0
        assert capsys.readouterr() == expected


def test_usage_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_max_configs_below_one_exit_code(tmp_path, capsys):
    fam = _write_family4(tmp_path)
    for budget in ("0", "-1"):
        for argv in (
            ["analyze", fam],
            ["threshold", fam, "3"],
            ["exact", fam, "10"],
            ["compare", "threshold", "3", fam, fam],
        ):
            assert main(argv + ["--max-configs", budget]) == 2
            err = capsys.readouterr().err
            assert "max_configs must be at least 1" in err
            assert "state budget exceeded" not in err


def test_bad_k_exit_code(tmp_path, capsys):
    fam = _write_family4(tmp_path)
    assert main(["threshold", fam, "ten"]) == 2
    assert main(["threshold", fam, "-3"]) == 2


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    fam = _write_family4(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "nftdev", "exact", fam, "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "TRUE"
    # the exit code passes through entry(): FALSE is 1, a usage error 2
    for argv, code in ((["exact", fam, "9"], 1), (["exact", fam], 2)):
        proc = subprocess.run([sys.executable, "-m", "nftdev", *argv], capture_output=True)
        assert proc.returncode == code, argv


def test_analyze_multiple_files(tmp_path, capsys):
    a = _write_family4(tmp_path)
    b = _write(tmp_path, "fam2.nft", serialize_nft(gen_family(2).nft))
    assert main(["analyze", a, b, "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["deviation"] == 10
    assert json.loads(lines[1])["deviation"] == 3


def test_analyze_empty_verdict_json(tmp_path, capsys):
    src = _write(
        tmp_path, "empty.nft", "nft e\nalphabet a\nstate i initial\nstate f final\nend\n"
    )
    assert main(["analyze", src, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "empty"
    assert report["deviation"] == 0 and report["witness"] is None


def test_oracle_scale_exit_code(tmp_path, capsys):
    n = 25
    clause_line = "1 2 3 0\n"
    cnf = _write(tmp_path, "big.cnf", f"p cnf {n} 1\n{clause_line}")
    assert main(["gen", "3sat", cnf]) == 3
    assert "oracle scale exceeded" in capsys.readouterr().err


def test_sidecar_ground_truth_matches_cli_verdicts(tmp_path):
    """The CI loop the sidecars exist for: generate instances, then check
    the recorded expectations against the verdict commands."""
    specs = [
        (["gen", "family", "5"], "fam5"),
        (["gen", "reach-k", None, "2"], "rk"),
        (["gen", "3sat", None], "sat"),
    ]
    graph = _write(tmp_path, "g.dg", "4\n0 1\n1 2\n2 3\ns=0\nt=3\n")
    cnf = _write(tmp_path, "f.cnf", "p cnf 2 2\n1 2 2 0\n-1 -2 -2 0\n")
    for argv, stem in specs:
        argv = [a if a is not None else (graph if "reach" in argv[1] else cnf) for a in argv]
        out = str(tmp_path / f"{stem}.nft")
        assert main(argv + ["-o", out]) == 0
        truth = json.loads((tmp_path / f"{stem}.nft.truth").read_text(encoding="utf-8"))
        if "bounded" in truth:
            assert main(["bounded", out]) == (0 if truth["bounded"] else 1)
        if "threshold_k" in truth:
            want = 0 if truth["threshold_answer"] else 1
            assert main(["threshold", out, str(truth["threshold_k"])]) == want
        if "exact_k" in truth:
            want = 0 if truth["exact_answer"] else 1
            assert main(["exact", out, str(truth["exact_k"])]) == want
        if "deviation" in truth:
            assert main(["exact", out, str(truth["deviation"])]) == 0


def _option_strings(parser):
    """Every option string of `parser` and of its nested subcommands,
    leaving out -h/--help."""
    opts = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                opts |= _option_strings(sub)
        elif not isinstance(action, argparse._HelpAction):
            opts.update(action.option_strings)
    return opts


def test_readme_command_line_lists_every_option():
    """The README's command-line block names every option of every
    subcommand in that subcommand's entry."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    entries = {}
    for line in block.splitlines():
        if line.startswith("nftdev "):
            name = line.split()[1]
            entries[name] = ""
        if entries:
            entries[name] += line + "\n"
    actions = _build_parser()._actions
    (subcommands,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    assert set(entries) == set(subcommands.choices)
    missing = [
        f"{name} {opt}"
        for name, parser in subcommands.choices.items()
        for opt in sorted(_option_strings(parser))
        if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", entries[name])
    ]
    assert not missing, f"options missing from the README's command-line block: {missing}"
