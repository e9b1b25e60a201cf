import random

import pytest

from helpers import line_by_line_parse_nft

from nftdev import (
    CnfFormula,
    Digraph,
    Nft,
    ParseError,
    Transition,
    atomize,
    gen_3sat,
    gen_family,
    gen_reach_bounded,
    gen_reach_threshold,
    parse_cnf,
    parse_digraph,
    parse_nft,
    repr_size,
    serialize_nft,
    union,
)


def test_round_trip_generated():
    for t in (
        gen_family(2).nft,
        gen_family(7).nft,
        gen_reach_bounded(Digraph(3, ((0, 1), (1, 2)), s=0, t=2)).nft,
        gen_3sat(CnfFormula(2, ((1, -2, 2),))).nft,
    ):
        assert parse_nft(serialize_nft(t)) == t


def test_round_trip_corpus(corpus):
    for t in corpus[:40]:
        assert parse_nft(serialize_nft(t)) == t
        assert parse_nft(serialize_nft(atomize(t))) == atomize(t)


def test_serialization_is_canonical():
    t = gen_family(3).nft
    assert serialize_nft(t) == serialize_nft(t)
    again = parse_nft(serialize_nft(t))
    assert serialize_nft(again) == serialize_nft(t)


def test_repr_size_is_serialization_bytes():
    t = gen_family(3).nft
    assert repr_size(t) == len(serialize_nft(t).encode("utf-8"))


def test_dash_means_empty_word():
    text = """nft x
alphabet a
state p initial
state q final
trans p q - a
end
"""
    t = parse_nft(text)
    assert t.transitions == (Transition(0, "", "a", 1),)


def test_comments_and_blank_lines():
    text = """# a comment
nft x
alphabet a b   # trailing comment

state p initial final
trans p p ab ba
end
"""
    t = parse_nft(text)
    assert t.alphabet == frozenset("ab")
    assert t.transitions[0].input == "ab"
    # '#' is looked for once per text: a text whose only '#' ends a state
    # or trans line still has that line cut there
    plain = "nft x\nalphabet a\nstate p initial\nstate q final\ntrans p q a -\nend\n"
    for line in ("state q final", "trans p q a -"):
        for comment in ("# note", " #", "\t#trans p p a a"):
            text = plain.replace(line, line + comment)
            assert text.count("#") == 1
            assert parse_nft(text) == parse_nft(plain), text


def test_parse_errors_carry_line_numbers():
    base = "nft x\nalphabet a\nstate p initial final\n"
    cases = [
        (base + "state p\nend\n", 4, "duplicate state"),
        (base + "trans p q a a\nend\n", 4, "undeclared state 'q'"),
        (base + "trans q p a a\nend\n", 4, "undeclared state 'q'"),
        (base + "trans p p b a\nend\n", 4, "letter 'b' outside the alphabet"),
        (base + "trans p p a ab\nend\n", 4, "letter 'b' outside the alphabet"),
        ("nft x\ntrans p p a a\nend\n", 2, "expected 'alphabet ...'"),
        (base + "end\ntrans p p a a\n", 5, "content after 'end'"),
        ("nft x\nalphabet ab\nend\n", 2, "multi-character letter"),
        ("nft x\nalphabet - a\nend\n", 2, "reserved"),
        (base + "trans p p a\nend\n", 4, "expected 'trans"),
        (base + "frobnicate\nend\n", 4, "unknown directive"),
        ("nft x\nalphabet a b a\nend\n", 2, "duplicate letter 'a'"),
        (base + "end now\n", 4, "unexpected tokens after 'end'"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError, match=message) as err:
            parse_nft(text)
        assert err.value.line == line, text


def test_missing_end_and_trailing_content():
    with pytest.raises(ParseError, match="missing 'end'"):
        parse_nft("nft x\nalphabet a\nstate p\n")
    with pytest.raises(ParseError, match="after 'end'"):
        parse_nft("nft x\nalphabet a\nstate p\nend\nstate q\n")
    with pytest.raises(ParseError, match="empty input"):
        parse_nft("# nothing\n")


def test_parse_digraph():
    g = parse_digraph("4\n0 1\n1 2\ns=0\nt=3\n")
    assert g == Digraph(4, ((0, 1), (1, 2)), s=0, t=3)
    with pytest.raises(ParseError, match="missing 's="):
        parse_digraph("2\n0 1\n")
    with pytest.raises(ParseError, match="expected an integer"):
        parse_digraph("2\n0 x\ns=0\nt=1\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_digraph("2\n0 5\ns=0\nt=1\n")
    with pytest.raises(ParseError, match="s or t out of range"):
        parse_digraph("2\n0 1\ns=0\nt=2\n")
    with pytest.raises(ParseError, match="vertex count on the first line"):
        parse_digraph("2 3\n0 1\ns=0\nt=1\n")
    with pytest.raises(ParseError, match="vertex count must be at least 1"):
        parse_digraph("0\ns=0\nt=0\n")
    with pytest.raises(ParseError, match="unknown assignment 'u=1'"):
        parse_digraph("2\nu=1\ns=0\nt=1\n")
    with pytest.raises(ParseError, match="expected an edge line"):
        parse_digraph("2\n0 1 1\ns=0\nt=1\n")
    with pytest.raises(ParseError, match="empty digraph input"):
        parse_digraph("# no vertex count\n")


def test_parse_digraph_rejects_a_repeated_end():
    # the first s= or t= line would otherwise be silently overridden
    for text, line, key in (
        ("3\n0 1\ns=0\ns=2\nt=1\n", 4, "s"),
        ("3\nt=1\n0 1\ns=0\n# t again\nt=1\n", 6, "t"),
    ):
        with pytest.raises(ParseError, match=rf"^line {line}: duplicate '{key}=' line$") as err:
            parse_digraph(text)
        assert err.value.line == line


def test_parse_cnf():
    f = parse_cnf("c comment\np cnf 1 1\n1 1 1 0\n")
    assert f == CnfFormula(1, ((1, 1, 1),))
    f = parse_cnf("p cnf 3 2\n1 -2 3 0 -1\n-1 2 0\n")
    assert f.clauses == ((1, -2, 3), (-1, -1, 2))


def test_parse_cnf_errors():
    with pytest.raises(ParseError, match="need exactly 3"):
        parse_cnf("p cnf 2 1\n1 2 0\n")
    with pytest.raises(ParseError, match="before the problem line"):
        parse_cnf("1 1 1 0\n")
    with pytest.raises(ParseError, match="declares 2 clauses"):
        parse_cnf("p cnf 1 2\n1 1 1 0\n")
    with pytest.raises(ParseError, match="unterminated"):
        parse_cnf("p cnf 1 1\n1 1 1\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_cnf("p cnf 1 1\n1 2 1 0\n")
    with pytest.raises(ParseError, match="need at least one variable"):
        parse_cnf("p cnf 0 0\n")
    with pytest.raises(ParseError, match="duplicate problem line"):
        parse_cnf("p cnf 1 1\np cnf 1 1\n1 1 1 0\n")
    with pytest.raises(ParseError, match="expected 'p cnf VARS CLAUSES'"):
        parse_cnf("p dnf 1 1\n1 1 1 0\n")
    with pytest.raises(ParseError, match="non-numeric problem line"):
        parse_cnf("p cnf one 1\n1 1 1 0\n")
    with pytest.raises(ParseError, match="expected a literal, got 'x'"):
        parse_cnf("p cnf 1 1\n1 x 1 0\n")
    with pytest.raises(ParseError, match="missing problem line"):
        parse_cnf("c only a comment\n")


def test_union_names_round_trip():
    a = gen_family(2).nft
    u = union(a, a)
    assert parse_nft(serialize_nft(u)) == u


def test_zero_state_round_trip():
    empty = Nft((), frozenset(), frozenset(), frozenset(), (), name="void")
    assert parse_nft(serialize_nft(empty)) == empty


def test_nft_rejects_a_name_the_text_format_cannot_carry():
    # "my nft" and "" would serialize to a header parse_nft rejects, and
    # "a#b" would parse back as "a"
    for bad in ("my nft", "", "a#b"):
        with pytest.raises(ValueError, match="invalid name"):
            Nft(("p",), "a", {0}, {0}, [(0, "a", "a", 0)], name=bad)
    t = Nft(("p",), "a", {0}, {0}, [(0, "a", "a", 0)], name="ñandú-ß")
    assert parse_nft(serialize_nft(t)) == t


def test_parser_never_crashes_on_garbage():
    rng = random.Random(555)
    tokens = [
        "nft", "alphabet", "state", "trans", "end", "initial", "final",
        "a", "b", "-", "p", "q", "#x", "0b10", "ab", "",
    ]
    for _ in range(2000):
        lines = [
            " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(0, 8))
        ]
        text = "\n".join(lines)
        try:
            t = parse_nft(text)
        except ParseError:
            continue
        assert parse_nft(serialize_nft(t)) == t


def test_unicode_letters_round_trip():
    t = Nft(
        states=("départ", "fin"),
        alphabet=frozenset("αβ"),
        initials=frozenset({0}),
        finals=frozenset({1}),
        transitions=(Transition(0, "αβ", "βα", 1),),
        name="ünïcode",
    )
    assert parse_nft(serialize_nft(t)) == t
    assert repr_size(t) == len(serialize_nft(t).encode("utf-8"))
    assert repr_size(t) > len(serialize_nft(t))  # multibyte letters


def _mutate(rng: random.Random, lines: list[str]) -> list[str]:
    """One random edit of an NFT text's lines."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    kind = rng.randrange(7)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == 2 and len(tokens) > 1:
        a, b = rng.sample(range(len(tokens)), 2)
        tokens[a], tokens[b] = tokens[b], tokens[a]
        lines[i] = " ".join(tokens)
    elif kind == 3 and len(tokens) > 1:
        j = rng.randrange(1, len(tokens))
        word = tokens[j]
        k = rng.randrange(len(word) + 1)
        tokens[j] = word[:k] + rng.choice("zζ-#") + word[k:]
        lines[i] = " ".join(tokens)
    elif kind == 4:
        k = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:k] + rng.choice(("#", " # note", "\t#")) + lines[i][k:]
    elif kind == 5 and len(tokens) > 1:
        tokens[rng.randrange(1, len(tokens))] = "-"
        lines[i] = " ".join(tokens)
    else:
        lines.insert(i, rng.choice(("", "   ", "# comment", "trans", "state", "end", "alphabet a")))
    return lines


def test_parser_matches_line_by_line_reference(corpus):
    g = Digraph(4, ((0, 1), (1, 2), (2, 0), (2, 3)), s=0, t=3)
    bases = [
        gen_family(3).nft,
        gen_reach_bounded(g).nft,
        gen_reach_threshold(g, 2).nft,
        gen_3sat(CnfFormula(2, ((1, -2, 2),))).nft,
        *corpus[:12],
        *(atomize(t) for t in corpus[12:16]),
    ]
    texts = [serialize_nft(t).splitlines() for t in bases]
    rng = random.Random(4242)
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(2000):
        lines = rng.choice(texts)
        for _ in range(rng.randint(1, 2)):
            lines = _mutate(rng, lines) or ["end"]
        text = "\n".join(lines) + rng.choice(("", "\n"))
        try:
            want = line_by_line_parse_nft(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parse_nft(text)
            assert (str(err.value), err.value.line) == (str(exc), exc.line), text
            outcomes["rejected"] += 1
            continue
        assert parse_nft(text) == want, text
        outcomes["parsed"] += 1
    assert min(outcomes.values()) >= 400, outcomes
