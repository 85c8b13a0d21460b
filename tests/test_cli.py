"""Command-line interface: reports, determinism, exit codes."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgecolorkit import (
    MultiGraph,
    PreconditionError,
    cli,
    count_assignments,
    count_by_matching_decomposition,
    counting,
    is_uniquely_partition_colorable,
    parse_graph,
    reduction,
)
from edgecolorkit.gadgets import GadgetSpec
from edgecolorkit.graphs import GadgetGraph

from corpus import bundle, complete, complete_bipartite, path, petersen_open_spec


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def b3_file(tmp_path):
    target = tmp_path / "b3.txt"
    target.write_text(bundle(3).render())
    return str(target)


@pytest.fixture
def k4_file(tmp_path):
    target = tmp_path / "k4.txt"
    target.write_text(complete(4).render())
    return str(target)


# ---------------------------------------------------------------------------
# count


def test_count_backtrack(capsys, b3_file):
    code, out, err = run_cli(capsys, "count", "--input", b3_file, "--kappa", "3")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["count"] == "6"
    assert report["method"] == "backtrack"
    assert report["edges"] == 3 and report["vertices"] == 2


def test_count_matching_method(capsys, k4_file):
    code, out, _ = run_cli(
        capsys, "count", "--input", k4_file, "--kappa", "3", "--method", "matching"
    )
    assert code == 0
    assert json.loads(out)["count"] == "6"


def test_count_output_is_deterministic(capsys, b3_file):
    _, first, _ = run_cli(capsys, "count", "--input", b3_file, "--kappa", "4")
    _, second, _ = run_cli(capsys, "count", "--input", b3_file, "--kappa", "4")
    assert first == second
    assert json.loads(first)["count"] == "24"


def test_count_rejects_gadget_input(capsys, tmp_path):
    target = tmp_path / "gadget.txt"
    target.write_text("v 2\ne 0 1\nd 0\nd 1\n")
    code, out, err = run_cli(capsys, "count", "--input", str(target), "--kappa", "3")
    assert code == 3
    assert "dangling" in err and out == ""


def test_count_matching_method_answers_a_deep_perfect_matching(capsys, tmp_path):
    # 1,200 matched pairs: deeper than the default recursion limit, which
    # the partition search does not use
    target = tmp_path / "matching.txt"
    target.write_text(MultiGraph(2400, [(v, v + 1) for v in range(0, 2400, 2)]).render())
    code, out, err = run_cli(
        capsys, "count", "--input", str(target), "--kappa", "1", "--method", "matching"
    )
    assert code == 0 and err == ""
    assert json.loads(out)["count"] == "1"


def test_count_matching_method_refuses_more_decompositions_than_the_cap(
    capsys, monkeypatch, tmp_path
):
    # a doubled 4-cycle: 4-regular with parallel edges, and 4 decompositions
    # into perfect matchings, found without the frontier engine in 33 steps
    # of the partition search
    c4x2 = tmp_path / "c4x2.txt"
    c4x2.write_text(MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)] * 2).render())
    argv = ("count", "--input", str(c4x2), "--kappa", "4", "--method", "matching")
    monkeypatch.setattr(counting, "_run", None)
    monkeypatch.setattr(counting, "MAX_SEARCH_STEPS", 32)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == (
        "error: the partition search over 8 edges with kappa=4 passed its budget of 32 steps\n"
    )
    monkeypatch.setattr(counting, "MAX_SEARCH_STEPS", 33)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and json.loads(out)["count"] == "96"


def _triangle_and_path():
    """A doubled triangle, which needs six classes, beside a 26-edge path:
    32 edges with no partition into four matchings. Ruling that out takes
    the search about 9 times the steps for every two more path edges, past
    the default budget from 20 edges on."""
    return MultiGraph(30, [(0, 1), (1, 2), (0, 2)] * 2 + [(i, i + 1) for i in range(3, 29)])


def test_partition_search_is_refused_past_its_step_budget(capsys, monkeypatch, tmp_path):
    # 1,000 steps, where K5,5's decompositions take 38,575
    monkeypatch.setattr(counting, "MAX_SEARCH_STEPS", 1000)
    budget = "passed its budget of 1000 steps"
    k55 = complete_bipartite(5, 5)
    with pytest.raises(PreconditionError, match=budget):
        count_by_matching_decomposition(k55, 5)
    with pytest.raises(PreconditionError, match=budget):
        is_uniquely_partition_colorable(_triangle_and_path(), 4)
    for name, g, argv in [
        ("k55", k55, ("count", "--kappa", "5", "--method", "matching")),
        ("tri", _triangle_and_path(), ("unique", "--kappa", "4")),
    ]:
        target = tmp_path / (name + ".txt")
        target.write_text(g.render())
        code, out, err = run_cli(capsys, *argv, "--input", str(target))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and budget in err and err.count("\n") == 1


def test_out_of_memory_is_a_refusal(capsys, monkeypatch, b3_file):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_count", exhausted)
    code, out, err = run_cli(capsys, "count", "--input", b3_file, "--kappa", "3")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "MemoryError" in err


def test_out_of_recursion_depth_is_a_refusal(capsys, monkeypatch, b3_file):
    def too_deep(args):
        raise RecursionError

    monkeypatch.setattr(cli, "cmd_count", too_deep)
    code, out, err = run_cli(capsys, "count", "--input", b3_file, "--kappa", "3")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "RecursionError" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify-gadget


def test_verify_gadget_h3(capsys, tmp_path):
    outfile = tmp_path / "h3.txt"
    code, out, _ = run_cli(
        capsys,
        "verify-gadget", "--gadget", "h3", "--kappa", "3", "--output", str(outfile),
    )
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is True
    assert report["c"] == "2"
    assert report["matrix"] == [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]]
    written = parse_graph(outfile.read_text())
    assert isinstance(written, GadgetGraph)
    assert len(written.dangling) == 2


def test_verify_gadget_report_with_an_off_diagonal_signature(capsys):
    # h3 at kappa 4 has a = 24, b = 16: every byte of the report, the
    # matrix a*I + b*(J - I) included
    code, out, err = run_cli(capsys, "verify-gadget", "--gadget", "h3", "--kappa", "4")
    assert code == 0 and err == ""
    matrix = [["24" if i == j else "16" for j in range(4)] for i in range(4)]
    report = {
        "a": "24",
        "b": "16",
        "c": "0",
        "command": "verify-gadget",
        "domain_invariant": True,
        "gadget": "h3",
        "gadget_canonical": "h3",
        "gadget_edges": 5,
        "gadget_vertices": 4,
        "holds": False,
        "kappa": 4,
        "matrix": matrix,
    }
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_verify_gadget_reports_failure_without_error(capsys):
    code, out, _ = run_cli(capsys, "verify-gadget", "--gadget", "h4", "--kappa", "3")
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is False
    assert report["a"] == "0" and report["b"] == "0"


def test_verify_gadget_unknown_name(capsys):
    code, _, err = run_cli(capsys, "verify-gadget", "--gadget", "h9", "--kappa", "3")
    assert code == 2
    assert "unknown gadget name" in err


@pytest.mark.parametrize(
    "gadget, kappa", [("hstar:12", "12"), ("hstar:5:1000000000000", "5")]
)
def test_verify_gadget_refuses_hstar_over_the_vertex_cap(capsys, gadget, kappa):
    # 12! = 479,001,600 vertices; the refusal comes before any list is built
    code, out, err = run_cli(
        capsys, "verify-gadget", "--gadget", gadget, "--kappa", kappa
    )
    assert code == 3 and out == ""
    assert "exceeds the cap of 1000000 vertices" in err


def test_verify_gadget_refuses_hstar_over_the_edge_cap(capsys):
    # 997,920 vertices pass the vertex cap, but the union would have
    # 20 * 997,920 / 2 = 9,979,200 edges
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify-gadget", "--gadget", "hstar:20:997920", "--kappa", "20"
    )
    assert time.perf_counter() - start < 5
    assert code == 3 and out == ""
    assert "exceeds the cap of 1000000 edges" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--kappa", "-1"),
        ("verify-gadget", "--gadget", "h3", "--kappa", "0"),
        ("verify-gadget", "--gadget", "fnp:5:3", "--kappa", "0"),
        ("verify-gadget", "--gadget", "h3", "--kappa", "1"),
        ("interpolate", "--kappa", "0", "--gadget", "h3"),
        # a state of kappa patterns, a kappa x kappa matrix: refused, not built
        ("count", "--kappa", "1000000000"),
        ("verify-gadget", "--gadget", "h3", "--kappa", "100000"),
        ("interpolate", "--kappa", "1000000000", "--gadget", "h3"),
    ],
)
def test_out_of_range_kappa_is_a_refusal(capsys, b3_file, argv):
    if argv[0] != "verify-gadget":
        argv += ("--input", b3_file)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# reduce


def test_reduce_with_check(capsys, b3_file, tmp_path):
    outfile = tmp_path / "reduced.txt"
    code, out, _ = run_cli(
        capsys,
        "reduce", "--input", b3_file, "--kappa", "3", "--r", "3",
        "--planar", "--check", "--output", str(outfile),
    )
    assert code == 0
    report = json.loads(out)
    assert report["factor"] == "8"
    assert report["check"]["verified"] is True
    reduced = parse_graph(outfile.read_text())
    assert reduced.is_simple()
    assert count_assignments(reduced, 3) == 48


def test_reduce_check_counts_each_side_once(capsys, monkeypatch, b3_file, tmp_path):
    counted = []

    def counting(g, kappa):
        counted.append(g)
        return count_assignments(g, kappa)

    monkeypatch.setattr(reduction, "count_assignments", counting)
    monkeypatch.setattr(cli, "count_assignments", counting)
    code, out, _ = run_cli(
        capsys,
        "reduce", "--input", b3_file, "--kappa", "3", "--r", "3",
        "--planar", "--check", "--output", str(tmp_path / "reduced.txt"),
    )
    assert code == 0
    report = json.loads(out)
    assert report["check"] == {"count_input": "6", "count_output": "48", "verified": True}
    assert len(counted) == 2


def test_reduce_failed_check_exits_one(capsys, monkeypatch, b3_file, tmp_path):
    monkeypatch.setattr(cli, "recount_certificate", lambda g, g_prime, cert: (6, 999, False))
    code, out, _ = run_cli(
        capsys,
        "reduce", "--input", b3_file, "--kappa", "3", "--r", "3",
        "--planar", "--check", "--output", str(tmp_path / "reduced.txt"),
    )
    assert code == 1
    report = json.loads(out)
    assert report["check"] == {"count_input": "6", "count_output": "999", "verified": False}
    assert report["factor"] == "8"


def test_reduce_rejects_irregular_input(capsys, tmp_path):
    target = tmp_path / "path.txt"
    target.write_text(path(2).render())
    outfile = tmp_path / "never.txt"
    code, out, err = run_cli(
        capsys,
        "reduce", "--input", str(target), "--kappa", "3", "--r", "3",
        "--planar", "--output", str(outfile),
    )
    assert code == 3
    assert "not 3-regular" in err


def test_reduce_key_property_failure_prints_matrix(capsys, monkeypatch, b3_file, tmp_path):
    monkeypatch.setattr(cli, "select_gadget", lambda *args: petersen_open_spec())
    code, out, err = run_cli(
        capsys,
        "reduce", "--input", b3_file, "--kappa", "3", "--r", "3",
        "--output", str(tmp_path / "never.txt"),
    )
    assert code == 3
    assert err.splitlines() == [
        "error: gadget petersen-open does not satisfy the key property at kappa=3",
        'matrix: [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]',
    ]


# ---------------------------------------------------------------------------
# interpolate


def test_interpolate_with_check(capsys, b3_file):
    code, out, _ = run_cli(
        capsys,
        "interpolate", "--input", b3_file, "--kappa", "4", "--gadget", "h3",
        "--check",
    )
    assert code == 0
    report = json.loads(out)
    assert report["count"] == "24"
    assert report["derived"] is False
    assert report["check"]["verified"] is True
    assert report["lambda1"] == "72" and report["lambda2"] == "8"


def test_interpolate_failed_check_exits_one(capsys, monkeypatch, b3_file):
    monkeypatch.setattr(cli, "count_assignments", lambda g, kappa: 999)
    code, out, _ = run_cli(
        capsys,
        "interpolate", "--input", b3_file, "--kappa", "4", "--gadget", "h3",
        "--check",
    )
    assert code == 1
    report = json.loads(out)
    assert report["check"]["verified"] is False
    assert report["count"] == "24"


def _prism_open_spec():
    """The triangular prism minus a triangle edge, danglers at its ends: a
    3-regular gadget with a = b = 168 at kappa 4, so interpolate derives."""
    edges = [(1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return GadgetSpec("prism-open", 3, True, GadgetGraph(MultiGraph(6, edges), (0, 1)))


@pytest.mark.parametrize("derive", [False, True])
def test_interpolate_computes_each_extension_matrix_once(capsys, monkeypatch, b3_file, derive):
    calls = []

    def counted(g, kappa):
        calls.append(g)
        return counting.decompose_extension(g, kappa)

    monkeypatch.setattr(reduction, "decompose_extension", counted)
    if derive:
        monkeypatch.setattr(cli, "parse_gadget_name", lambda name: _prism_open_spec())
    code, out, _ = run_cli(
        capsys,
        "interpolate", "--input", b3_file, "--kappa", "4", "--gadget", "h3",
        "--check",
    )
    assert code == 0
    report = json.loads(out)
    assert report["derived"] is derive and report["check"]["verified"] is True
    assert report["gadget_used"] == ("prism-open-dd" if derive else "h3")
    # the gadget's signature, then the derived gadget's when it derives
    assert len(calls) == 1 + derive
    assert len({g.vertex_count for g in calls}) == len(calls)


def test_interpolate_refuses_equal_palette_gadget(capsys, b3_file):
    code, _, err = run_cli(
        capsys, "interpolate", "--input", b3_file, "--kappa", "3", "--gadget", "h3"
    )
    assert code == 3
    assert "palette-equal reduction" in err


def test_interpolate_refuses_a_packing_over_the_cap(capsys, tmp_path):
    # every edge of a 400-cycle chained: the weighted count's multiplicities
    # would be 401 strata wide, over a million bits
    target = tmp_path / "c400.txt"
    target.write_text(MultiGraph(400, [(i, (i + 1) % 400) for i in range(400)]).render())
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "interpolate", "--input", str(target), "--kappa", "4", "--gadget", "fnp:4:3",
        "--selector", "all",
    )
    assert time.perf_counter() - start < 5
    assert code == 3 and out == ""
    assert "m=400" in err and "above the cap of 1048576 bits" in err
    assert "Traceback" not in err


def test_interpolate_renders_rows_past_the_digit_limit(capsys, tmp_path):
    # A 40-cycle with every other edge doubled: 40 chained edges, and rows
    # longer than the 4300 digits str() converts by default.
    edges = []
    for i in range(40):
        edges += [(i, (i + 1) % 40)] * (2 - i % 2)
    target = tmp_path / "ring40.txt"
    target.write_text(MultiGraph(40, edges).render())
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(
        capsys,
        "interpolate", "--input", str(target), "--kappa", "4", "--gadget", "fnp:4:3",
        "--check",
    )
    assert code == 0
    report = json.loads(out)
    assert report["m"] == 40
    assert report["count"] == "3833759995746010005504"
    assert report["check"]["verified"] is True
    assert max(len(v) for v in report["rows"]) > 4300
    assert sys.get_int_max_str_digits() == limit
    # the system itself, one sha256 per list of decimals joined by newlines
    digests = {
        key: hashlib.sha256("\n".join(report[key]).encode()).hexdigest()
        for key in ("rows", "columns", "solution")
    }
    assert digests == {
        "rows": "b7c2e7aa3981b841f16d136056249883cfe71ad4ebcbec6d40f2ae00a9444668",
        "columns": "64e563733dd52ef33d87749845ab6e5e58df5004ce7a7334376ad37b4b3d33a3",
        "solution": "3f5fc5797ea811682b4f318927f0d10d2fe2b89a4a2f90dac1b800c254c8f87a",
    }


def test_decimal_rendering_is_str_without_the_digit_limit():
    values = [0, -5, 10 ** 8000 + 1, -(7 ** 20000), Fraction(12), Fraction(3, 4),
              Fraction(-(10 ** 5000), 3)]
    limit = sys.get_int_max_str_digits()
    rendered = [cli._dec(v) for v in values]
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert rendered == [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# report rendering

# Text with quotes, backslashes, control characters, non-ASCII letters and
# lone surrogates, which the escaper must write as \u escapes.
_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\n\té'))
_SCALARS = (_TEXT | st.integers() | st.integers(-(10 ** 4300 - 1), 10 ** 4300 - 1)
            | st.sampled_from([True, False, None]))
_JSON_VALUES = _SCALARS
for _ in range(3):
    _JSON_VALUES = _SCALARS | st.lists(_JSON_VALUES, max_size=4) | st.dictionaries(
        _TEXT, _JSON_VALUES, max_size=4
    )


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example({})
@example([[]])
@example({"count": None, "": [{}, [], 0, -1]})
@example({"dimacs": "p cnf 2 1\n-1 \u00e9\\ 2 0\n" * 250})
@example("\"" + "\udc80" * 4999)
def test_render_matches_json_dumps(value):
    assert cli._render(value) == json.dumps(value, indent=2, sort_keys=True)


_REPORT_CALLS = {
    "count": ["count", "--input", "{b3}", "--kappa", "3"],
    "unique": ["unique", "--input", "{b3}", "--kappa", "3"],
    "interpolate": ["interpolate", "--input", "{b3}", "--kappa", "4", "--gadget", "h3", "--check"],
    "verify-gadget": ["verify-gadget", "--gadget", "h3", "--kappa", "3"],
    "count-matching": ["count", "--input", "{k4}", "--kappa", "3", "--method", "matching"],
}


@pytest.mark.parametrize("argv", _REPORT_CALLS.values(), ids=_REPORT_CALLS.keys())
def test_report_printing_call_leaves_no_reference_cycles(capsys, b3_file, k4_file, argv):
    argv = [a.format(b3=b3_file, k4=k4_file) for a in argv]
    assert cli.main(argv) == 0  # builds the parser and fills the caches
    report = capsys.readouterr().out
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == report
    assert json.loads(report)["command"] == argv[0]


# ---------------------------------------------------------------------------
# unique


def test_unique_classifier_and_spectrum_paths(capsys, tmp_path):
    b2 = tmp_path / "b2.txt"
    b2.write_text(bundle(2).render())
    code, out, _ = run_cli(capsys, "unique", "--input", str(b2), "--kappa", "4")
    report = json.loads(out)
    assert code == 0 and report["unique"] is True
    assert report["method"] == "classifier"

    p3 = tmp_path / "p3.txt"
    p3.write_text(path(3).render())
    code, out, _ = run_cli(capsys, "unique", "--input", str(p3), "--kappa", "4")
    assert json.loads(out)["unique"] is False

    code, out, _ = run_cli(capsys, "unique", "--input", str(b2), "--kappa", "2")
    report = json.loads(out)
    assert code == 0 and report["unique"] is True
    assert report["method"] == "spectrum"


def test_unique_budget_refusals(capsys, monkeypatch, tmp_path):
    wide = tmp_path / "wide.txt"
    wide.write_text(bundle(20).render())
    code, _, err = run_cli(capsys, "unique", "--input", str(wide), "--kappa", "3")
    assert code == 3
    assert "enumeration budget" in err

    # 33 parallel edges cannot fit four one-edge classes: no search at all
    wider = tmp_path / "wider.txt"
    wider.write_text(bundle(33).render())
    code, out, _ = run_cli(capsys, "unique", "--input", str(wider), "--kappa", "4")
    assert code == 0 and json.loads(out)["unique"] is False

    monkeypatch.setattr(counting, "MAX_SEARCH_STEPS", 1000)
    searched = tmp_path / "searched.txt"
    searched.write_text(_triangle_and_path().render())
    code, _, err = run_cli(capsys, "unique", "--input", str(searched), "--kappa", "4")
    assert code == 3
    assert "passed its budget of 1000 steps" in err

    code, _, err = run_cli(capsys, "unique", "--input", str(wide), "--kappa", "0")
    assert code == 3
    assert "at least 1" in err


# ---------------------------------------------------------------------------
# sat-transform


def test_sat_transform_counts_and_output(capsys, tmp_path):
    source = tmp_path / "phi.cnf"
    source.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    outfile = tmp_path / "phi_prime.cnf"
    code, out, _ = run_cli(
        capsys, "sat-transform", "--input", str(source), "--output", str(outfile)
    )
    assert code == 0
    report = json.loads(out)
    assert report["count"] == "2"
    assert report["transformed_count"] == "3"
    assert report["transformed_variables"] == 3
    assert outfile.read_text() == report["transformed_dimacs"]


def test_sat_transform_over_cap_reports_null_counts(capsys, tmp_path):
    source = tmp_path / "big.cnf"
    source.write_text("p cnf 24 1\n1 0\n")
    code, out, _ = run_cli(capsys, "sat-transform", "--input", str(source))
    assert code == 0
    report = json.loads(out)
    assert report["count"] is None
    assert report["transformed_count"] is None


def test_sat_transform_parse_error(capsys, tmp_path):
    source = tmp_path / "bad.cnf"
    source.write_text("p cnf 2 1\n1 2\n")
    code, _, err = run_cli(capsys, "sat-transform", "--input", str(source))
    assert code == 2
    assert "not terminated" in err


# ---------------------------------------------------------------------------
# the parser, built once per process


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


_VALID_ARGS = {
    "count": ["--input", "g.txt", "--kappa", "3"],
    "verify-gadget": ["--gadget", "h3", "--kappa", "3"],
    "reduce": ["--input", "g.txt", "--kappa", "3", "--r", "3", "--output", "o.txt"],
    "interpolate": ["--input", "g.txt", "--kappa", "4", "--gadget", "h3"],
    "unique": ["--input", "g.txt", "--kappa", "3"],
    "sat-transform": ["--input", "f.cnf"],
}
_BAD_CHOICES = {"count": ["--method", "greedy"], "interpolate": ["--selector", "some"]}


def _replaced(args, option, *new):
    """args with option and its value replaced by new."""
    i = args.index(option)
    return args[:i] + list(new) + args[i + 2:]


def _parser_cases():
    cases = [[], ["-h"], ["--help"], ["nope"], ["cou"], ["-h", "count"], ["--", "count"]]
    for name, args in _VALID_ARGS.items():
        cases += [
            [name, *args],
            [name, "-h"],
            [name, *args, "--help"],
            [name, *args[2:]],  # its first required option missing
            [name, *args, "extra"],
            [name, *args, "extra", "--other"],
            [name, "--", *args],
            [name, *args, "--"],
            [name, *args, "--", "extra"],
            [*args[:2], name, *args[2:]],  # an option before the subcommand
        ]
        if "--input" in args:
            cases.append([name, *_replaced(args, "--input", "--input=g.txt")])
            cases.append([name, *_replaced(args, "--input", "--input=")])
            cases.append([name, *_replaced(args, "--input", "--inp", "g.txt")])
        if "--kappa" in args:
            cases.append([name, *_replaced(args, "--kappa", "--kap", "5")])
            cases.append([name, *_replaced(args, "--kappa", "--kap=5")])
            cases.append([name, *args, "--kappa", "5"])
            cases.append([name, *_replaced(args, "--kappa", "--kappa", "three")])
        if name in _BAD_CHOICES:
            cases.append([name, *args, *_BAD_CHOICES[name]])
    return cases


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _assert_parses_as_the_top_level_parser(argv):
    # The reference is the top-level parser parsing the whole command line:
    # an equal namespace for a valid argv, and the same exit code, stdout
    # and stderr for an invalid one or a help request.
    reference = _parse_outcome(cli._build_parser()[0].parse_args, argv)
    assert _parse_outcome(cli._parse_args, argv) == reference


@pytest.mark.parametrize("argv", _parser_cases(), ids=lambda argv: " ".join(argv) or "<none>")
def test_parse_matches_the_top_level_parser(argv):
    _assert_parses_as_the_top_level_parser(argv)


# Each subcommand's options: the values that are valid for a store option,
# or None for a flag.
_OPTIONS = {
    "count": {"--input": ["g.txt"], "--kappa": ["3"], "--method": ["backtrack", "matching"]},
    "verify-gadget": {"--gadget": ["h3"], "--kappa": ["3"], "--output": ["o.txt"]},
    "reduce": {"--input": ["g.txt"], "--kappa": ["3"], "--r": ["3"], "--planar": None,
               "--check": None, "--output": ["o.txt"]},
    "interpolate": {"--input": ["g.txt"], "--kappa": ["4"], "--gadget": ["h3"],
                    "--selector": ["parallel", "all"], "--check": None},
    "unique": {"--input": ["g.txt"], "--kappa": ["3"]},
    "sat-transform": {"--input": ["f.cnf"], "--output": ["o.cnf"]},
}
_ANY_VALUE = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["", "-", "three", "+2", "1_0", " 4", "g.txt", "greedy", "some",
                     "all", "matching", "--kappa", "--inp", "-h", "--", "-x"]),
)


@st.composite
def _command_lines(draw):
    """A subcommand's valid command line in a drawn order, with an option
    perhaps dropped, then options and stray tokens inserted; each option is
    spelled exactly, abbreviated or, with a value, as --opt=value."""
    name = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[name]
    required = _VALID_ARGS[name]
    items = draw(st.permutations([tuple(required[i:i + 2]) for i in range(0, len(required), 2)]))
    if draw(st.integers(0, 4)) == 0:
        del items[draw(st.integers(0, len(items) - 1))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 3)) == 0:
            item = (draw(st.sampled_from(["-h", "--help", "--"]) | _ANY_VALUE),)
        else:
            option = draw(st.sampled_from(sorted(options)))
            valid = options[option]
            if valid is None:
                item = (option,)
            else:
                item = (option, draw(st.sampled_from(valid) | _ANY_VALUE))
        items.insert(draw(st.integers(0, len(items))), item)
    argv = [name]
    for item in items:
        option, value = item[0], item[1:]
        spelling = draw(st.integers(0, 7)) if option in options else 0
        if spelling == 1:
            argv.append(option[:draw(st.integers(3, len(option)))])
            argv += value
        elif spelling == 2 and value:
            argv.append("%s=%s" % (option, value[0]))
        else:
            argv += item
    return argv


@settings(max_examples=400, deadline=None)
@given(_command_lines())
@example(["count", "--input", "g.txt", "--kappa", "3", "--method", "greedy"])
@example(["interpolate", "--selector", "some", "--input", "g.txt", "--kappa", "4",
          "--gadget", "h3"])
@example(["unique", "--kappa", "three", "--input", "g.txt"])
@example(["reduce", "--planar", "--input", "g.txt", "--kappa", "3", "--r", "3",
          "--output", "o.txt"])
def test_parse_matches_the_top_level_parser_on_drawn_command_lines(argv):
    _assert_parses_as_the_top_level_parser(argv)


def _every_option(name):
    """Every option of the subcommand, flags set, in the reverse of the
    order the parser declares them."""
    argv = [name]
    for option, valid in reversed(_OPTIONS[name].items()):
        argv += [option] if valid is None else [option, valid[-1]]
    return argv


def test_plain_command_lines_are_bound_without_the_subcommand_parsers(monkeypatch):
    parser = cli._build_parser()[0]
    plain = [[name, *args] for name, args in _VALID_ARGS.items()]
    plain += [_every_option(name) for name in _OPTIONS]
    expected = [parser.parse_args(argv) for argv in plain]
    # A bad int or choice is left to argparse, which reports it.
    declined = [["count", *_VALID_ARGS["count"], "--method", "greedy"],
                ["interpolate", *_VALID_ARGS["interpolate"], "--selector", "some"]]
    declined += [[name, *_replaced(args, "--kappa", "--kappa", "three")]
                 for name, args in _VALID_ARGS.items() if "--kappa" in args]

    class Declined(Exception):
        pass

    def parse_known_args(*args, **kwargs):
        raise Declined

    # Every argparse parse, the subcommands' ones included, goes through
    # parse_known_args.
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse_known_args)
    assert [cli._parse_args(argv) for argv in plain] == expected
    for argv in declined:
        with pytest.raises(Declined):
            cli._parse_args(argv)


def test_parse_reads_sys_argv_by_default(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["edgecolorkit", "unique", "--input", "g.txt", "--kappa", "3"])
    assert cli._parse_args(None) == cli._build_parser()[0].parse_args(None)


def test_usage_error_leaves_no_state(capsys, b3_file):
    _, alone, _ = run_cli(capsys, "count", "--input", b3_file, "--kappa", "3")
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--input", b3_file, "--kappa", "three"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, after, _ = run_cli(capsys, "count", "--input", b3_file, "--kappa", "3")
    assert code == 0 and after == alone


def test_defaults_do_not_leak_between_calls(capsys, b3_file, k4_file, tmp_path):
    run_cli(capsys, "count", "--input", k4_file, "--kappa", "3", "--method", "matching")
    _, out, _ = run_cli(capsys, "count", "--input", k4_file, "--kappa", "3")
    assert json.loads(out)["method"] == "backtrack"

    base = ("interpolate", "--input", b3_file, "--kappa", "4", "--gadget", "h3")
    _, out, _ = run_cli(capsys, *base, "--selector", "all")
    assert json.loads(out)["selector"] == "all"
    _, out, _ = run_cli(capsys, *base)
    assert json.loads(out)["selector"] == "parallel"

    base = ("reduce", "--input", b3_file, "--kappa", "3", "--r", "3",
            "--output", str(tmp_path / "reduced.txt"))
    _, out, _ = run_cli(capsys, *base, "--planar")
    assert json.loads(out)["planar"] is True
    _, out, _ = run_cli(capsys, *base)
    assert json.loads(out)["planar"] is False


# ---------------------------------------------------------------------------
# shared error handling


def test_missing_input_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "count", "--input", "/nonexistent.txt", "--kappa", "3")
    assert code == 2
    assert "error:" in err
    for argv in (["count", "--input", str(tmp_path), "--kappa", "3"],
                 ["sat-transform", "--input", str(tmp_path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: [Errno 21] Is a directory: %r\n" % str(tmp_path)


def test_input_path_is_read_and_named_as_given(capsys, tmp_path, b3_file):
    # A path that open() refuses is an input error naming the path as
    # given: "" is no file, and a trailing slash makes a file path a
    # directory path.
    cases = [
        ("", "[Errno 2] No such file or directory: ''"),
        (b3_file + "/", "[Errno 20] Not a directory: %r" % (b3_file + "/")),
        ("%s/./missing.txt" % tmp_path,
         "[Errno 2] No such file or directory: '%s/./missing.txt'" % tmp_path),
    ]
    for path, message in cases:
        for argv in (["count", "--input", path, "--kappa", "3"],
                     ["sat-transform", "--input", path]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("subcommand", ["count", "sat-transform"])
def test_non_utf8_input_is_an_input_error(capsys, tmp_path, subcommand):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff v 2\n")
    argv = [subcommand, "--input", str(bad)] + (["--kappa", "3"] if subcommand == "count" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: %s is not UTF-8 text (undecodable byte at offset 0)\n" % bad


def test_vertex_count_over_the_cap_is_a_refusal(capsys, tmp_path):
    huge = tmp_path / "huge.txt"
    huge.write_text("v 1000000000000\ne 0 1\n")
    code, out, err = run_cli(capsys, "count", "--input", str(huge), "--kappa", "3")
    assert code == 3 and out == ""
    assert err.startswith("error: line 1: vertex count") and err.count("\n") == 1


def test_malformed_graph_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("v 2\ne 0 0\n")
    code, _, err = run_cli(capsys, "count", "--input", str(bad), "--kappa", "3")
    assert code == 2
    assert "self-loop" in err


def test_variable_count_over_the_cap_is_a_refusal(capsys, tmp_path):
    huge = tmp_path / "huge.cnf"
    huge.write_text("p cnf 1000000000 0\n")
    code, out, err = run_cli(capsys, "sat-transform", "--input", str(huge))
    assert code == 3 and out == ""
    assert err.startswith("error: line 1: variable count") and err.count("\n") == 1
