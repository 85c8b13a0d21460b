"""Command line interface.

Reports are JSON on stdout with sorted keys and fixed indentation, so a
rerun on the same input is byte identical. Counts are serialized as
decimal strings (they routinely exceed 2^53, which JSON numbers do not
survive round-tripping through other tools). Errors go to stderr.
_render gives the text of json.dumps(report, indent=2, sort_keys=True)
with the C string escaper: with indent, json.dumps runs the pure-Python
encoder, whose closures leave reference cycles behind on every call.

One set of argument parsers per process: built by the first main() call,
reused by the later ones, each of which parses into a fresh namespace. A
command line that starts with a subcommand name and goes on as plain
"--option value" pairs and flags, each given once with its exact option
string, is bound straight to that subcommand's actions: each value goes
through the action's type and choices, and each option not given takes
its default. Any other command line goes to the top-level parser, so
argparse alone prints help and reports usage errors.

Exit codes: 0 success, 1 a requested --check failed, 2 unreadable or
malformed input, 3 a precondition refusal (the request was understood but
is outside what the tool will compute), which includes running out of
recursion depth or memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .cnf import BRUTE_FORCE_VARIABLE_CAP, count_sat, parse_dimacs, render_dimacs, transform_phi_prime
from .counting import (
    count_assignments,
    count_by_matching_decomposition,
    is_uniquely_partition_colorable,
    partition_spectrum,
)
from .errors import KeyPropertyError, ParseError, PreconditionError
from .gadgets import parse_gadget_name, verify_key_property
from .graphs import GadgetGraph, MultiGraph, parse_graph, render_graph
from .reduction import (
    interpolation_pipeline,
    recount_certificate,
    select_gadget,
    simplify_equal_case,
)

UNIQUE_ENUMERATION_BUDGET = 2 ** 24


def _read_text(path: str) -> tuple[str, str]:
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text (undecodable byte at offset %d)" % (path, exc.start))
    return text, hashlib.sha256(data).hexdigest()


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


def _render(value, pad="\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value of str keys,
    strs, ints, bools, None, dicts and lists, with pad the newline and
    indentation that the value's own line starts with."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if value and type(value) is dict:
        inner = pad + "  "
        items = [encode_basestring_ascii(k) + ": " + _render(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if value and type(value) is list:
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in value]) + pad + "]"
    return json.dumps(value)


def _matrix_strings(matrix) -> list[list[str]]:
    return [[_dec(v) for v in row] for row in matrix]


def cmd_count(args) -> tuple[dict, int]:
    g, digest = _load_multigraph(args.input)
    if args.method == "matching":
        count = count_by_matching_decomposition(g, args.kappa)
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
        "a": _dec(rep.a),
        "b": _dec(rep.b),
        "c": _dec(rep.c),
        "command": "verify-gadget",
        # palette symmetry makes every extension matrix a*I + b*(J - I)
        "domain_invariant": True,
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
    selected = range(g.edge_count) if args.selector == "all" else None
    spec = parse_gadget_name(args.gadget)
    system = interpolation_pipeline(g, args.kappa, spec.gadget, selected)
    report = {
        "columns": [_dec(v) for v in system.column_values],
        "command": "interpolate",
        "count": _dec(system.recovered),
        "derived": system.derived,
        "gadget": args.gadget,
        "gadget_used": spec.name + "-dd" * system.derived,
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
        unique = is_uniquely_partition_colorable(g, args.kappa)
        method = "classifier"
    else:
        if args.kappa < 1:
            raise PreconditionError("kappa must be at least 1")
        if args.kappa ** g.edge_count > UNIQUE_ENUMERATION_BUDGET:
            raise PreconditionError(
                "kappa^edges = %d^%d exceeds the enumeration budget; the"
                " capped partition search needs kappa >= 4"
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


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The top-level parser and, by subcommand name, the Action of each of
    that subcommand's option strings."""
    parser = argparse.ArgumentParser(
        prog="edgecolorkit",
        description="Exact proper edge coloring counts, gadget verification,"
        " and palette reductions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {}

    def command(name, summary):
        subparser = sub.add_parser(name, help=summary)
        options = commands[name] = {}

        def add_argument(*flags, **kwargs):
            action = subparser.add_argument(*flags, **kwargs)
            options.update(dict.fromkeys(action.option_strings, action))

        return add_argument

    add = command("count", "count proper edge colorings")
    add("--input", required=True, help="graph file")
    add("--kappa", type=int, required=True, help="palette size")
    add(
        "--method",
        choices=("backtrack", "matching"),
        default="backtrack",
        help="matching requires a kappa-regular graph",
    )

    add = command("verify-gadget", "check the c*I extension matrix shape")
    add("--gadget", required=True, help="h3 | h4 | h5 | hstar:K[:N] | fnp:K:R")
    add("--kappa", type=int, required=True)
    add("--output", help="write the gadget graph to a file")

    add = command("reduce", "equal-palette multigraph to simple graph reduction")
    add("--input", required=True)
    add("--kappa", type=int, required=True)
    add("--r", type=int, required=True, help="regularity of the input")
    add("--planar", action="store_true", help="use a planar gadget")
    add("--check", action="store_true", help="recount both sides")
    add("--output", required=True, help="where to write the reduced graph")

    add = command("interpolate", "recover a count at kappa > r via chain replacement")
    add("--input", required=True)
    add("--kappa", type=int, required=True)
    add("--gadget", required=True, help="h3 | h4 | h5 | hstar:K[:N] | fnp:K:R")
    add(
        "--selector",
        choices=("parallel", "all"),
        default="parallel",
        help="which edges receive chains",
    )
    add("--check", action="store_true", help="compare against a direct count")

    add = command("unique", "decide unique partition colorability")
    add("--input", required=True)
    add("--kappa", type=int, required=True)

    add = command("sat-transform", "append the +1 model count variable")
    add("--input", required=True, help="DIMACS CNF file")
    add("--output", help="where to write the transformed formula")

    return parser, commands


def _bind(
    name: str, options: dict[str, argparse.Action], tokens: list[str]
) -> argparse.Namespace | None:
    """The namespace that the top-level parser gives for name followed by
    tokens, when the tokens are each an exact option string, given once,
    with a store option's value following it. None for any other shape,
    and for a value that is empty, starts with "-", or fails the option's
    type or choices: argparse then parses the command line and reports
    what is wrong with it."""
    values = {}
    tokens = iter(tokens)
    for token in tokens:
        action = options.get(token)
        if action is None or action.dest in values:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(tokens, "")
        if not value or value[0] == "-":
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in options.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(subcommand=name, **values)


def _parse_args(argv) -> argparse.Namespace:
    """The top-level parser's parse_args(argv): the same namespace, output
    and exit status. A command line that starts with a subcommand name is
    bound by _bind if it can be; any other goes to the top-level parser."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args = _bind(argv[0], commands[argv[0]], argv[1:])
        if args is not None:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        # Looked up per call, so the cached parser holds no handler.
        report, code = globals()["cmd_" + args.subcommand.replace("-", "_")](args)
    except (ParseError, OSError) as exc:
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
    except PreconditionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        print("error: input too large to compute (%s)" % type(exc).__name__, file=sys.stderr)
        return 3
    print(_render(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
