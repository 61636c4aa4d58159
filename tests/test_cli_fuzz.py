"""Seeded fuzz tests of the command-line contract, in plain pytest.

Whatever bytes arrive, ``main`` exits 0 with one JSON document on stdout, or
exits 2 with exactly one ``error:`` line on stderr and nothing on stdout.
Labels stay small, so no input asks for a large matrix, or are 2**63 and
up, which the constructor refuses before it builds anything.  Labels between
about 1e7 and 2**63 would allocate before they fail, so none is drawn.

``parse_edge_list`` reads plain text with a vectorised reader and any other
text line by line; a differential test holds the two to the same graph or
the same error on canonical texts and edited copies of them.
"""

import json
import random

from dgspec import new_digraph
from dgspec.cli import REPORT_KINDS, _parse_lines, _parse_plain, main, parse_edge_list, serialize_edge_list
from dgspec.errors import DgspecError

ALPHABET = b"0123456789  n#-+_\t\r\n\n\n.x\xc2\xb2\xff"
TOKENS = ["n", "0", "1", "2", "3", "7", "12", "00", "-1", "-0", "+3", "1_0", "1.5", "0x1", "x", "#", "#c", "²", "٣", str(2**63), "99999999999999999999"]


def random_bytes(rng):
    if rng.random() < 0.2:
        return rng.randbytes(rng.randrange(40))
    return bytes(rng.choice(ALPHABET) for _ in range(rng.randrange(40)))


def random_tokens(rng):
    lines = []
    for _ in range(rng.randrange(8)):
        tokens = rng.choices(TOKENS, k=rng.choice((0, 1, 2, 2, 2, 3)))
        lines.append(rng.choice((" ", "\t", "  ")).join(tokens))
    return rng.choice(("\n", "\r\n")).join(lines).encode()


def check_contract(payload, which, path, capsys):
    path.write_bytes(payload)
    code = main([which, str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 2), payload
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        assert out == "", payload
        assert err.startswith("error: ") and err.count("\n") == 1, (payload, err)
    return code


def test_random_inputs_exit_0_or_2(tmp_path, capsys):
    rng = random.Random(20261018)
    path = tmp_path / "g.txt"
    codes = []
    for i in range(300):
        payload = random_bytes(rng) if i % 2 else random_tokens(rng)
        codes.append(check_contract(payload, REPORT_KINDS[i % len(REPORT_KINDS)], path, capsys))
    # both outcomes occur, so neither half of the contract goes unchecked
    assert codes.count(0) >= 30 and codes.count(2) >= 30


def test_edge_list_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(0, 25)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        G = new_digraph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
        text = serialize_edge_list(G)
        assert parse_edge_list(text) == G
        # the same arcs shuffled, with comments, blanks and odd spacing
        lines = text.splitlines()
        body = lines[1:]
        rng.shuffle(body)
        spaces = (" ", "\t", "   ")
        noisy = [lines[0] + "  # count"] + [" " + line.replace(" ", rng.choice(spaces)) + "\t" for line in body]
        noisy.insert(rng.randrange(len(noisy) + 1), "# note")
        noisy.insert(rng.randrange(len(noisy) + 1), "")
        assert parse_edge_list("\n".join(noisy)) == G


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
REFUSED_ARCS = {"duplicate arc", "loop", "label >= n"}


def perturbations(text, rng):
    """(name, text, plain): edits of canonical text, and whether the
    vectorised reader still takes the edited text."""
    head, *body = text.splitlines(keepends=True)
    n = int(head.split()[1])
    i = rng.randrange(len(body))
    arc = body[i]
    u = arc.split()[0]

    def insert(line):
        at = rng.randrange(len(body) + 1)
        return head + "".join(body[:at] + [line] + body[at:])

    def edit(line):
        return head + "".join(body[:i] + [line] + body[i + 1 :])

    yield "canonical", text, True
    yield "duplicate arc", insert(arc), False
    yield "loop", insert(f"{u} {u}\n"), False
    yield "label >= n", insert(f"{u} {n + rng.randrange(3)}\n"), False
    yield "no n line", "".join(body), True
    yield "no final newline", text[:-1], False
    yield "crlf", text.replace("\n", "\r\n"), False
    yield "tab", edit(arc.replace(" ", "\t")), False
    yield "comment", insert("# note\n"), False
    # str.isdecimal takes these digits, the vectorised reader's [0-9] does not
    yield "arabic-indic digits", edit(arc.translate(ARABIC_INDIC)), False
    yield "19-digit label", edit(u.zfill(19) + arc[len(u) :]), False
    # n * n overflows int64, so the vectorised reader cannot build its sort key
    yield "n past the key", "n 4000000000\n" + "".join(body), False


def outcome(parse, text):
    try:
        return parse(text)
    except DgspecError as exc:
        return type(exc), str(exc)


def test_vectorised_and_line_readers_agree():
    rng = random.Random(30)
    for _ in range(40):
        n = rng.randrange(2, 40)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        G = new_digraph(n, rng.sample(pairs, rng.randrange(1, min(len(pairs), 60) + 1)))
        text = serialize_edge_list(G)
        for name, edited, plain in perturbations(text, rng):
            want = outcome(_parse_lines, edited)
            assert outcome(parse_edge_list, edited) == want, (name, edited)
            assert (_parse_plain(edited) is not None) == plain, (name, edited)
            # the three refused arcs raise; every edit that keeps the n line
            # still reads G
            if name in REFUSED_ARCS:
                assert isinstance(want, tuple), (name, edited)
            elif name not in ("no n line", "n past the key"):
                assert want == G, (name, edited)
