"""The report writer gives exactly the bytes of ``json.dumps(..., indent=2)``.

The reference is the formula the writer replaced, kept in ``_oracles``:
reals rounded to 12 significant digits, then the standard library's
indent-2 encoder.  ``--format text`` keeps its compact one-line values.
"""

import json

import numpy as np
import pytest

from dgspec import disjoint_union, gen_cycle, gen_kbip, gen_path, gen_random, new_digraph, sweep
from dgspec.cli import REPORT_KINDS, emit_report, main, render_text, report_data
from dgspec.oracle import enumerate_digraphs

from _oracles import relabel, report_json, report_text


def permuted_union():
    pieces = [gen_kbip(2, 3), gen_cycle(5), gen_path(4), gen_kbip(3, 3), gen_cycle(2), gen_kbip(1, 4), new_digraph(3, [])]
    perm = np.random.default_rng(7).permutation(sum(P.n for P in pieces))
    return relabel(disjoint_union(*pieces), perm)


def corpus():
    yield from (G for n in range(1, 4) for G in enumerate_digraphs(n))
    # the digest set of earlier report-byte checks
    yield from (gen_random(n, p, s) for n in (10, 50, 120) for p in (0.05, 0.2, 0.6) for s in range(4))
    yield permuted_union()
    yield new_digraph(0, [])


def test_reports_match_indent_2_json():
    count = 0
    for G in corpus():
        for which in REPORT_KINDS:
            data = report_data(G, which)
            assert emit_report(G, which) == report_json(data), (G, which)
            assert render_text(data) == report_text(data), (G, which)
            count += 1
    assert count == 5 * (1 + 4 + 64 + 36 + 2)


def test_sweep_summary_matches_indent_2_json(monkeypatch, capsys):
    summary = sweep(3)
    data = summary.to_dict()
    monkeypatch.setattr("dgspec.cli.sweep", lambda *a, **k: summary)
    for fmt, reference in (("json", report_json), ("text", report_text)):
        assert main(["sweep", "--max-n", "3", "--format", fmt]) == 0
        assert capsys.readouterr().out == reference(data) + "\n"


EDGE_VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "ninf": float("-inf"),
    "reals": [-0.0, 0.0, 1e16, 1e-5, 5e-324, 123456789012.0, 1.0 / 3.0, 2.0**0.5 * 1e300, -7.25e-310],
    "mixed": [1, 2.5, True, None, "x", float("nan"), [], {}],
    "float64": np.float64(2.0 / 3.0),
    "big": 10**40,
    "bools": [True, False],
    "text": "énergie ∑   \U0001f600",
    "control": "tab\there\nnew \x00 \x1f \"quoted\" back\\slash",
    "tuple": (1, (2, 3), ()),
    "int_rows": [[1, 2], [], (3,)],
    "empty_rows": [[], []],
    "empty_list": [],
    "empty_dict": {},
    "nested": {"a": [[]], "b": [{}], "c": {"d": {"e": []}}, "f": [[[]]]},
    "": [{"": None}],
}


def test_edge_values_match_indent_2_json(monkeypatch):
    monkeypatch.setattr("dgspec.cli.report_data", lambda *a: EDGE_VALUES)
    assert emit_report(None, "energy") == report_json(EDGE_VALUES)
    assert render_text(EDGE_VALUES) == report_text(EDGE_VALUES)
    for value in EDGE_VALUES.values():
        monkeypatch.setattr("dgspec.cli.report_data", lambda *a, value=value: value)
        assert emit_report(None, "energy") == report_json(value)


@pytest.mark.parametrize("bad", [{1, 2}, np.int64(3), np.bool_(True), np.zeros(2), object(), [1, b"x"], {"k": 1j}])
def test_values_json_rejects_raise_type_error(monkeypatch, bad):
    with pytest.raises(TypeError):
        report_json({"bad": bad})
    monkeypatch.setattr("dgspec.cli.report_data", lambda *a: {"bad": bad})
    with pytest.raises(TypeError):
        emit_report(None, "energy")


def test_non_string_keys_raise_type_error(monkeypatch):
    monkeypatch.setattr("dgspec.cli.report_data", lambda *a: {"ok": {1: 2}})
    with pytest.raises(TypeError):
        emit_report(None, "energy")
