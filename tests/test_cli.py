"""Command-line interface: reports, determinism, exit codes."""

import json
import sys
from fractions import Fraction

import pytest

from edgecolorkit import MultiGraph, cli, count_assignments, parse_graph, reduction
from edgecolorkit.graphs import GadgetGraph

from corpus import bundle, complete, path, petersen_open_spec


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
    assert "does not satisfy the key property" in err
    assert "matrix:" in err


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


def test_interpolate_refuses_equal_palette_gadget(capsys, b3_file):
    code, _, err = run_cli(
        capsys, "interpolate", "--input", b3_file, "--kappa", "3", "--gadget", "h3"
    )
    assert code == 3
    assert "palette-equal reduction" in err


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


def test_unique_budget_refusals(capsys, tmp_path):
    wide = tmp_path / "wide.txt"
    wide.write_text(bundle(20).render())
    code, _, err = run_cli(capsys, "unique", "--input", str(wide), "--kappa", "3")
    assert code == 3
    assert "enumeration budget" in err

    wider = tmp_path / "wider.txt"
    wider.write_text(bundle(33).render())
    code, _, err = run_cli(capsys, "unique", "--input", str(wider), "--kappa", "4")
    assert code == 3
    assert "refused above 32 edges" in err

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
# shared error handling


def test_missing_input_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "count", "--input", "/nonexistent.txt", "--kappa", "3")
    assert code == 2
    assert "error:" in err


def test_malformed_graph_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("v 2\ne 0 0\n")
    code, _, err = run_cli(capsys, "count", "--input", str(bad), "--kappa", "3")
    assert code == 2
    assert "self-loop" in err
