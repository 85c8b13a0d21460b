"""Command line interface.

Reports are JSON on stdout with sorted keys and fixed indentation, so a
rerun on the same input is byte identical. Counts are serialized as
decimal strings (they routinely exceed 2^53, which JSON numbers do not
survive round-tripping through other tools). Errors go to stderr.

Exit codes: 0 success, 1 a requested --check failed, 2 unreadable or
malformed input, 3 a precondition refusal (the request was understood but
is outside what the tool will compute).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .cnf import BRUTE_FORCE_VARIABLE_CAP, count_sat, parse_dimacs, render_dimacs, transform_phi_prime
from .counting import (
    count_assignments,
    count_by_matching_decomposition,
    extension_matrix,
    is_uniquely_partition_colorable,
    partition_spectrum,
)
from .errors import KeyPropertyError, ParseError, PreconditionError
from .gadgets import GadgetError, derive_distinct_diagonal, parse_gadget_name, verify_key_property
from .graphs import EdgeSelector, GadgetGraph, MultiGraph, parse_graph, render_graph
from .holant import decompose_domain_invariant
from .reduction import (
    interpolation_pipeline,
    recount_certificate,
    select_gadget,
    simplify_equal_case,
)

UNIQUE_ENUMERATION_BUDGET = 2 ** 24


def _read_text(path: str) -> tuple[str, str]:
    data = Path(path).read_bytes()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def _load_multigraph(path: str) -> tuple[MultiGraph, str]:
    text, digest = _read_text(path)
    g = parse_graph(text)
    if isinstance(g, GadgetGraph):
        raise PreconditionError(
            "input %s has dangling edges; this command needs a closed graph" % path
        )
    return g, digest


def _dec(value) -> str:
    """str() of an int or Fraction of any length. str() refuses ints over
    4300 digits, so longer ones are split into 4000-digit blocks."""
    if value.denominator != 1:
        return "%s/%s" % (_dec(value.numerator), _dec(value.denominator))
    n = int(value)
    if abs(n).bit_length() <= 14000:  # at most 4215 digits
        return str(n)
    high, low = divmod(abs(n), 10 ** 4000)
    return "-" * (n < 0) + _dec(high) + str(low).zfill(4000)


def _matrix_strings(matrix) -> list[list[str]]:
    return [[_dec(v) for v in row] for row in matrix]


def cmd_count(args) -> tuple[dict, int]:
    g, digest = _load_multigraph(args.input)
    if args.method == "matching":
        count = count_by_matching_decomposition(g, args.kappa, args.kappa)
    else:
        count = count_assignments(g, args.kappa)
    report = {
        "command": "count",
        "count": _dec(count),
        "edges": g.edge_count,
        "input": args.input,
        "input_sha256": digest,
        "kappa": args.kappa,
        "method": args.method,
        "vertices": g.vertex_count,
    }
    return report, 0


def cmd_verify_gadget(args) -> tuple[dict, int]:
    spec = parse_gadget_name(args.gadget)
    rep = verify_key_property(spec, args.kappa)
    if args.output:
        Path(args.output).write_text(render_graph(spec.gadget))
    report = {
        "a": None if rep.a is None else _dec(rep.a),
        "b": None if rep.b is None else _dec(rep.b),
        "c": _dec(rep.c),
        "command": "verify-gadget",
        "domain_invariant": rep.domain_invariant,
        "gadget": args.gadget,
        "gadget_canonical": spec.name,
        "gadget_edges": len(spec.gadget.base.edges),
        "gadget_vertices": spec.gadget.vertex_count,
        "holds": rep.holds,
        "kappa": args.kappa,
        "matrix": _matrix_strings(rep.matrix),
    }
    return report, 0


def cmd_reduce(args) -> tuple[dict, int]:
    g, digest = _load_multigraph(args.input)
    spec = select_gadget(args.kappa, args.r, args.planar)
    g_prime, cert = simplify_equal_case(g, args.kappa, spec)
    Path(args.output).write_text(render_graph(g_prime))
    report = {
        "c": _dec(cert.c),
        "command": "reduce",
        "factor": _dec(cert.predicted_factor()),
        "gadget": cert.gadget_name,
        "input": args.input,
        "input_edges": cert.edge_count,
        "input_sha256": digest,
        "kappa": args.kappa,
        "output": args.output,
        "output_edges": g_prime.edge_count,
        "output_vertices": g_prime.vertex_count,
        "planar": args.planar,
        "r": args.r,
    }
    code = 0
    if args.check:
        count_input, count_output, verified = recount_certificate(g, g_prime, cert)
        report["check"] = {
            "count_input": _dec(count_input),
            "count_output": _dec(count_output),
            "verified": verified,
        }
        if not verified:
            code = 1
    return report, code


def cmd_interpolate(args) -> tuple[dict, int]:
    g, digest = _load_multigraph(args.input)
    spec = parse_gadget_name(args.gadget)
    selector = (
        EdgeSelector.all_edges() if args.selector == "all" else EdgeSelector.parallel_only()
    )
    derived = False
    dec = decompose_domain_invariant(extension_matrix(spec.gadget, args.kappa))
    if dec is not None and dec[0] == dec[1] and dec[1] != 0:
        spec = derive_distinct_diagonal(spec, args.kappa)
        derived = True
    system = interpolation_pipeline(g, args.kappa, spec, selector)
    report = {
        "columns": [_dec(v) for v in system.column_values],
        "command": "interpolate",
        "count": _dec(system.recovered),
        "derived": derived,
        "gadget": args.gadget,
        "gadget_used": spec.name,
        "input": args.input,
        "input_sha256": digest,
        "kappa": args.kappa,
        "lambda1": _dec(system.lambda1),
        "lambda2": _dec(system.lambda2),
        "m": system.m,
        "rows": [_dec(v) for v in system.rows],
        "selector": args.selector,
        "solution": [_dec(v) for v in system.solution],
    }
    code = 0
    if args.check:
        direct = count_assignments(g, args.kappa)
        matches = direct == system.recovered
        report["check"] = {"direct_count": _dec(direct), "verified": matches}
        if not matches:
            code = 1
    return report, code


def cmd_unique(args) -> tuple[dict, int]:
    g, digest = _load_multigraph(args.input)
    if args.kappa >= 4:
        if g.edge_count > args.kappa and g.edge_count > 32:
            raise PreconditionError(
                "%d edges with kappa=%d needs the partition search, which is"
                " refused above 32 edges" % (g.edge_count, args.kappa)
            )
        unique = is_uniquely_partition_colorable(g, args.kappa)
        method = "classifier"
    else:
        if args.kappa < 1:
            raise PreconditionError("kappa must be at least 1")
        if args.kappa ** g.edge_count > UNIQUE_ENUMERATION_BUDGET:
            raise PreconditionError(
                "kappa^edges = %d^%d exceeds the enumeration budget; the"
                " constant-time classifier needs kappa >= 4"
                % (args.kappa, g.edge_count)
            )
        unique = partition_spectrum(g, args.kappa).total() == 1
        method = "spectrum"
    report = {
        "command": "unique",
        "input": args.input,
        "input_sha256": digest,
        "kappa": args.kappa,
        "method": method,
        "unique": unique,
    }
    return report, 0


def cmd_sat_transform(args) -> tuple[dict, int]:
    text, digest = _read_text(args.input)
    phi = parse_dimacs(text)
    phi_prime = transform_phi_prime(phi)
    rendered = render_dimacs(phi_prime)
    if args.output:
        Path(args.output).write_text(rendered)
    report = {
        "clauses": phi.clause_count,
        "command": "sat-transform",
        "input": args.input,
        "input_sha256": digest,
        "transformed_clauses": phi_prime.clause_count,
        "transformed_dimacs": rendered,
        "transformed_variables": phi_prime.variable_count,
        "variables": phi.variable_count,
    }
    if phi_prime.variable_count <= BRUTE_FORCE_VARIABLE_CAP:
        models = count_sat(phi)
        models_prime = count_sat(phi_prime)
        report["count"] = _dec(models)
        report["transformed_count"] = _dec(models_prime)
    else:
        report["count"] = None
        report["transformed_count"] = None
    if args.output:
        report["output"] = args.output
    return report, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgecolorkit",
        description="Exact proper edge coloring counts, gadget verification,"
        " and palette reductions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="count proper edge colorings")
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument("--kappa", type=int, required=True, help="palette size")
    p.add_argument(
        "--method",
        choices=("backtrack", "matching"),
        default="backtrack",
        help="matching requires a kappa-regular graph",
    )
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("verify-gadget", help="check the c*I extension matrix shape")
    p.add_argument("--gadget", required=True, help="h3 | h4 | h5 | hstar:K[:N] | fnp:K:R")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--output", help="write the gadget graph to a file")
    p.set_defaults(handler=cmd_verify_gadget)

    p = sub.add_parser("reduce", help="equal-palette multigraph to simple graph reduction")
    p.add_argument("--input", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="regularity of the input")
    p.add_argument("--planar", action="store_true", help="use a planar gadget")
    p.add_argument("--check", action="store_true", help="recount both sides")
    p.add_argument("--output", required=True, help="where to write the reduced graph")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("interpolate", help="recover a count at kappa > r via chain replacement")
    p.add_argument("--input", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--gadget", required=True, help="h3 | h4 | h5 | hstar:K[:N] | fnp:K:R")
    p.add_argument(
        "--selector",
        choices=("parallel", "all"),
        default="parallel",
        help="which edges receive chains",
    )
    p.add_argument("--check", action="store_true", help="compare against a direct count")
    p.set_defaults(handler=cmd_interpolate)

    p = sub.add_parser("unique", help="decide unique partition colorability")
    p.add_argument("--input", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.set_defaults(handler=cmd_unique)

    p = sub.add_parser("sat-transform", help="append the +1 model count variable")
    p.add_argument("--input", required=True, help="DIMACS CNF file")
    p.add_argument("--output", help="where to write the transformed formula")
    p.set_defaults(handler=cmd_sat_transform)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyPropertyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        rep = exc.report
        if rep is not None:
            print(
                "matrix: %s" % json.dumps(_matrix_strings(rep.matrix)),
                file=sys.stderr,
            )
        return 3
    except (PreconditionError, GadgetError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
