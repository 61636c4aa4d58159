import argparse
import inspect
import io
import json
import math
import tracemalloc

import pytest

import dgspec
from dgspec import gen_cycle, gen_kbip, new_digraph
from dgspec.cli import (
    REPORT_KINDS,
    build_parser,
    emit_report,
    main,
    parse_edge_list,
    render_text,
    report_data,
    serialize_edge_list,
)
from dgspec.errors import (
    DuplicateArcError,
    LoopArcError,
    NoConvergenceError,
    NotPSDError,
    NotSymmetricError,
    OutOfRangeError,
    ParseError,
)
from dgspec.randic import DEFAULT_TOL


def test_parse_digon_triangle(digon_triangle):
    G = parse_edge_list("n 3\n0 1\n1 2\n0 2\n2 0\n")
    assert G == digon_triangle


def test_parse_loop_error():
    with pytest.raises(LoopArcError, match="line 1"):
        parse_edge_list("0 0\n")


def test_parse_duplicate_error():
    with pytest.raises(DuplicateArcError, match="line 3"):
        parse_edge_list("0 1\n1 2\n0 1\n")


def test_parse_out_of_range_with_declared_n():
    with pytest.raises(OutOfRangeError, match="line 2"):
        parse_edge_list("n 2\n0 2\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_edge_list("n 3\n0 1\nbogus line here\n")
    assert err.value.lineno == 3
    with pytest.raises(ParseError, match="precede"):
        parse_edge_list("0 1\nn 3\n")
    with pytest.raises(ParseError, match="duplicate 'n'"):
        parse_edge_list("n 3\nn 4\n")
    with pytest.raises(ParseError, match="integers"):
        parse_edge_list("0 x\n")
    with pytest.raises(ParseError, match="nonnegative"):
        parse_edge_list("-1 2\n")


def test_parse_comments_and_blanks():
    G = parse_edge_list("n 2\n# empty\n\n")
    assert G.n == 2
    assert G.arcs == ()
    G = parse_edge_list("0 1  # an arc\n")
    assert G.arcs == ((0, 1),)


def test_parse_infers_n():
    assert parse_edge_list("0 5\n").n == 6
    assert parse_edge_list("").n == 0


def test_serialize_round_trip(digon_triangle):
    text = serialize_edge_list(digon_triangle)
    assert text == "n 3\n0 1\n0 2\n1 2\n2 0\n"
    assert parse_edge_list(text) == digon_triangle
    assert serialize_edge_list(parse_edge_list(text)) == text


def test_emit_energy_edgeless():
    data = json.loads(emit_report(new_digraph(2, []), "energy"))
    assert data["singular_values"] == [0.0, 0.0]
    assert data["energy"] == 0.0
    assert data["vertex_energy_out"] == [0.0, 0.0]


def test_emit_bounds_cycle3():
    data = json.loads(emit_report(gen_cycle(3), "bounds"))
    assert data["energy"] == 3.0
    assert data["lower"] == 3.0
    assert data["upper"] == 3.0
    assert data["lower_equal"] is True
    assert data["upper_equal"] is True
    assert data["n"] == 3 and data["arc_count"] == 3 and data["max_degree"] == 1


def test_emit_classify_transitive_triangle(unsplittable):
    data = json.loads(emit_report(unsplittable, "classify"))
    assert data["lower_equality"] is None
    assert data["upper_equality"] is None


def test_emit_classify_cycle():
    data = json.loads(emit_report(gen_cycle(3), "classify"))
    assert len(data["lower_equality"]) == 3
    assert data["upper_equality"] == [{"kind": "directed_cycle", "vertices": [0, 1, 2]}]


def test_emit_double(digon_triangle):
    data = json.loads(emit_report(digon_triangle, "double"))
    assert data["double_edges"] == [[0, 4], [0, 5], [1, 5], [2, 3]]


def test_reals_use_12_significant_digits(digon_triangle):
    text = emit_report(digon_triangle, "energy")
    # 1 + sqrt(5) rounded to 12 significant digits, shortest-repr printed
    assert f"{1 + math.sqrt(5):.12g}" == "3.2360679775"
    assert '"energy": 3.2360679775' in text
    assert "1.61803398875" in text  # golden ratio singular value at 12 digits


def test_render_text_lines():
    text = render_text(json.loads(emit_report(gen_cycle(3), "bounds")))
    assert "energy: 3.0" in text.splitlines()
    assert "lower_equal: true" in text.splitlines()


def test_main_energy_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("n 3\n0 1\n1 2\n0 2\n2 0\n")
    assert main(["energy", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["energy"] == pytest.approx(1 + math.sqrt(5), abs=1e-9)


def test_main_text_format(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("n 3\n0 1\n1 2\n2 0\n")
    assert main(["bounds", "--format", "text", str(path)]) == 0
    assert "upper_equal: true" in capsys.readouterr().out.splitlines()


def test_main_missing_file_exits_2(capsys):
    assert main(["bounds", "missing.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_main_parse_error_exits_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n")
    assert main(["bounds", str(path)]) == 2
    assert "loop" in assert_one_error_line(capsys)

    binary = tmp_path / "g.bin"
    binary.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe 0 1\n")
    assert main(["energy", str(binary)]) == 2
    assert_one_error_line(capsys)

    # a superscript two is a digit to str.isdigit but not a count to int
    path.write_bytes(b"n \xc2\xb2\n")
    assert main(["energy", str(path)]) == 2
    assert "expected 'n <count>'" in assert_one_error_line(capsys)

    # labels follow the count's rule: int() would take "1_0" and "+3"
    for text, reason in (
        ("1_0 2\n+3 4\n", "line 1: labels must be integers"),
        ("0 1\n+3 4\n", "line 2: labels must be integers"),
        ("0 1\n2 \xb2\n", "line 2: labels must be integers"),
        ("0 1  # arc\n-1 2\n", "line 2: labels must be nonnegative"),
        ("0 1\n1 -0\n", "line 2: labels must be nonnegative"),
        # a line ends at "\n" only: a form feed or vertical tab is a space
        ("n 4\n0 1\x0c2 3\n", "line 2: expected '<u> <v>'"),
        ("n 3\n0 1\x0bx\n", "line 2: expected '<u> <v>'"),
    ):
        path.write_text(text)
        assert main(["classify", str(path)]) == 2, text
        assert reason in assert_one_error_line(capsys)

    # kernel failures cannot be provoked from a valid edge list, so fake them
    path.write_text("0 1\n")
    for exc in (NotPSDError("indefinite"), NoConvergenceError("stalled"), NotSymmetricError("asym")):

        def failing(*args, exc=exc):
            raise exc

        monkeypatch.setattr("dgspec.cli.report_data", failing)
        assert main(["energy", str(path)]) == 2
        assert str(exc) in assert_one_error_line(capsys)


def test_main_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # fake the exhaustion; str(MemoryError()) is empty, the error line is not
    def exhausted(G):
        raise MemoryError()

    path = tmp_path / "g.txt"
    path.write_text("0 1\n")
    monkeypatch.setattr("dgspec.cli.energy_report", exhausted)
    assert main(["energy", str(path)]) == 2
    assert "out of memory" in assert_one_error_line(capsys)


def test_main_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["gen", "kbip", "2"]) == 2
    assert main(["gen", "random", "5", "nope", "3"]) == 2
    capsys.readouterr()
    for argv in (
        ["sweep", "--max-n", "3", "--tol", "-1"],
        ["sweep", "--max-n", "2", "--tol", "inf"],
        ["sweep", "--max-n", "2", "--jobs", "0"],
        ["sweep", "--max-n", "2", "--jobs", "-3"],
    ):
        assert main(argv) == 2, argv
        assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv,code,needle",
    [
        (["energy", "--tol", "1e-6", "FILE"], 2, "--tol"),
        (["randic", "--tol", "1e-6", "FILE"], 2, "--tol"),
        (["double", "--tol", "1e-6", "FILE"], 2, "--tol"),
        (["classify", "--tol", "1e-6", "FILE"], 2, "--tol"),
        (["gen", "cycle", "3", "--tol", "1"], 2, "--tol"),
        (["gen", "cycle", "3", "--format", "text"], 2, "--format"),
        (["bounds", "--tol", "1e-3", "FILE"], 2, "--tol"),
        (["sweep", "--max-n", "2", "--tol", "1e-6", "--format", "text"], 0, "total_graphs: 5"),
    ],
)
def test_main_option_roster(tmp_path, capsys, argv, code, needle):
    # --tol only where a verdict reads it, --format only where a report is printed;
    # a refused option is an argparse usage error, so stderr holds the usage too
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 0\n")
    assert main([str(path) if a == "FILE" else a for a in argv]) == code
    out, err = capsys.readouterr()
    assert needle in (out if code == 0 else err)


def test_tol_only_where_a_verdict_reads_it():
    # the oracle judges its properties within tol; every report is exact or
    # fixed, so no other public function takes a tol and no other command --tol
    functions = [getattr(dgspec, name) for name in dgspec.__all__] + [report_data, emit_report]
    with_tol = set()
    for f in filter(inspect.isfunction, functions):
        params = inspect.signature(f).parameters
        if "tol" in params:
            with_tol.add(f.__name__)
            assert params["tol"].default is DEFAULT_TOL, f
    assert with_tol == {"check_graph", "sweep"}
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {name for name, p in commands.items() if "--tol" in p._option_string_actions} == {"sweep"}
    assert parser.parse_args(["sweep", "--max-n", "2"]).tol is DEFAULT_TOL


def test_main_gen_reports_the_generators_reason(capsys):
    for argv, reason in (
        (["gen", "cycle", "1"], "cycle needs at least 2 vertices, got 1"),
        (["gen", "kbip", "0", "2"], "both parts must be nonempty"),
        (["gen", "random", "4", "1.5", "0"], "arc probability must lie in [0, 1]"),
        (["gen", "cycle", "x"], "gen cycle: bad parameters 'x'"),
        (["gen", "path", "3", "4"], "gen path: bad parameters '3 4'"),
    ):
        assert main(argv) == 2, argv
        assert reason in assert_one_error_line(capsys), argv


def test_main_gen_cycle(capsys):
    assert main(["gen", "cycle", "4"]) == 0
    assert capsys.readouterr().out == "n 4\n0 1\n1 2\n2 3\n3 0\n"


def test_main_gen_pipe_bounds(monkeypatch, capsys):
    assert main(["gen", "kbip", "2", "3"]) == 0
    edge_list = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(edge_list))
    assert main(["bounds", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lower_equal"] is True
    assert data["energy"] == pytest.approx(math.sqrt(6), abs=1e-9)


def test_main_gen_random_deterministic(capsys):
    assert main(["gen", "random", "6", "0.3", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "6", "0.3", "11"]) == 0
    assert capsys.readouterr().out == first


def test_main_sweep_small(capsys):
    assert main(["sweep", "--max-n", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["total_graphs"] == 5
    assert data["failure_count"] == 0
    assert len(data["properties"]) == 12


def test_main_sweep_bad_n_exits_2(capsys):
    assert main(["sweep", "--max-n", "9"]) == 2
    capsys.readouterr()


def test_main_sweep_failure_exits_1(monkeypatch, capsys):
    # a property failure can only come from an implementation bug, so fake one
    from dgspec.oracle import PROPERTY_NAMES, SweepSummary

    broken = SweepSummary(
        max_n=2,
        tol=1e-9,
        total=5,
        pass_counts=dict.fromkeys(PROPERTY_NAMES, 4),
        failures=((2, 3, "pair_product", "arc (0, 1)"),),
        min_pair_product=0.5,
        min_lower_slack=0.0,
        min_upper_slack=0.0,
    )
    monkeypatch.setattr("dgspec.cli.sweep", lambda *a, **k: broken)
    assert main(["sweep", "--max-n", "2"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["failure_count"] == 1
    assert data["failures"][0]["property"] == "pair_product"


def test_reports_byte_stable(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("n 4\n0 1\n1 2\n2 3\n3 0\n1 0\n")
    outputs = []
    for _ in range(2):
        assert main(["energy", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        assert main(["classify", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]


def test_reports_allocate_no_n_by_n_matrix():
    # a dense 2000 x 2000 float matrix alone would take 32 MB; the JSON text
    # is left out because its encoder's buffers are not the kernel's
    G = new_digraph(2000, [(0, 1), (5, 1999), (1999, 7)])
    tracemalloc.start()
    try:
        report_data(G, "energy")
        report_data(G, "bounds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_main_bounds_huge_label_is_one_block(monkeypatch, capsys):
    # one arc on 100000 vertices: a single 1 x 1 block, not a 100000^2 matrix
    monkeypatch.setattr("sys.stdin", io.StringIO("0 99999\n"))
    assert main(["bounds", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads(captured.out)
    assert data["n"] == 100000 and data["energy"] == 1.0 and data["lower_equal"]


@pytest.mark.parametrize("which", REPORT_KINDS)
@pytest.mark.parametrize("text", ["99999999999999999999 0\n", "n 99999999999999999999\n"])
def test_main_count_past_sys_maxsize_exits_2(which, text, monkeypatch, capsys):
    # refused by the constructor before any per-vertex sequence is built
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main([which, "-"]) == 2
    assert "vertex count" in assert_one_error_line(capsys)
