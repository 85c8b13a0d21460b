"""Benchmark of the edgecolorkit CLI: one workload per run.

    python3 bench/run.py --workload verify-splice --seed 1 --seconds 55 --trace 0

Each workload is a seeded list of CLI invocations (bench/workloads.py),
run in-process through edgecolorkit.cli.main(argv), one after another
from one thread (a closed loop with one client). A pass runs the whole
list once; passes repeat for about --seconds, and each timing is the
median over passes. Set-up (fresh import, input generation and file
writing) runs SETUP_REPEATS times: once before the first pass, then at
evenly spaced invocations of the second pass, outside their timing;
setup_s is the median. peak_rss_mb is read after the first pass. Every
invocation's outcome is checked against bench/expected.json and against
the CLI's own cross-checks.

With --trace 0 the last line reports the end-to-end metrics of untraced
passes. With --trace 1 it reports per-layer metrics from traced passes
(bench/tracing.py): each invocation runs untraced and traced, back to
back in alternating order, and trace.overhead_s sums the differences, so
that the host's drift over a pass cancels. The spans of the last traced
pass go to .bench_out/. Metric names and units come from BENCHMARK.json.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
SPEC = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"

# Enough set-ups for a steady median.
SETUP_REPEATS = 21
# h5 at kappa 5, the slowest invocation, takes about 8 s on 2 cores.
INVOCATION_CAP_S = 30.0
# Report fields that name files; they change with the run directory.
PATH_FIELDS = ("input", "output", "input_sha256")


class TimeCap(BaseException):
    """Raised by the alarm when an invocation exceeds its cap. Not an
    Exception, so no handler inside the program can swallow it."""


def _alarm(signum, frame):
    raise TimeCap()


@dataclass(frozen=True)
class Invocation:
    key: str
    case: str
    argv: tuple[str, ...]
    input_sha256: str | None
    same_count: bool


@dataclass
class Outcome:
    seconds: float
    cpu: float
    code: int | None
    stdout: str
    error: str | None  # exception type name, or "timeout"


def import_program():
    """Import edgecolorkit afresh from the checkout's src/, never from an
    installed copy."""
    if not (SRC / "edgecolorkit" / "__init__.py").is_file():
        raise SystemExit("error: %s has no edgecolorkit package" % SRC)
    for name in [n for n in sys.modules if n == "edgecolorkit" or n.startswith("edgecolorkit.")]:
        del sys.modules[name]
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("edgecolorkit")
    importlib.import_module("edgecolorkit.cli")
    if Path(package.__file__).resolve().parent != (SRC / "edgecolorkit").resolve():
        raise SystemExit("error: imported edgecolorkit from %s" % package.__file__)
    return package


def materialize(cases, workdir: Path) -> list[Invocation]:
    """Write each case's input file and expand its commands."""
    out = []
    for case in cases:
        path = workdir / (case.name + ".txt")
        sha = None
        if case.text is not None:
            data = case.text.encode()
            path.write_bytes(data)
            sha = hashlib.sha256(data).hexdigest()
        for cmd in case.commands:
            target = str(workdir / ("%s.%s.out" % (case.name, cmd.name)))
            argv = tuple(a.replace("{input}", str(path)).replace("{output}", target) for a in cmd.argv)
            out.append(Invocation("%s:%s" % (case.name, cmd.name), case.name, argv, sha, cmd.same_count))
    return out


def invoke(main, argv, cap: float) -> Outcome:
    stdout = io.StringIO()
    code = error = None
    if cap <= 0:
        return Outcome(0.0, 0.0, None, "", "timeout")
    cpu0 = time.process_time()
    start = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    except TimeCap:
        error = "timeout"
    except (Exception, SystemExit) as exc:
        error = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Outcome(time.perf_counter() - start, time.process_time() - cpu0, code, stdout.getvalue(), error)


def report_digest(report) -> str:
    """sha256 prefix of the report with the path fields dropped; "empty"
    for a refusal, which prints nothing on stdout."""
    if report is None:
        return "empty"
    kept = {k: v for k, v in report.items() if k not in PATH_FIELDS}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


def parse_report(stdout: str):
    return json.loads(stdout) if stdout.strip() else None


def wrong_output(inv: Invocation, out: Outcome, expect: dict | None) -> str | None:
    """Why a returned invocation's output is wrong, or None if it is right."""
    if expect is None:
        return "no recorded expectation"
    try:
        report = parse_report(out.stdout)
    except ValueError:
        return "stdout is not JSON"
    if report is not None:
        if inv.input_sha256 is not None and report.get("input_sha256") != inv.input_sha256:
            return "input_sha256 does not match the file written"
        check = report.get("check")
        if check is not None and check.get("verified") is not True:
            return "--check did not verify"
        if report.get("command") == "sat-transform" and report.get("count") is not None:
            if int(report["transformed_count"]) != int(report["count"]) + 1:
                return "transformed count is not count + 1"
    if "raises" in expect:
        # Recorded as a crash; a fixed program must verify the recorded count.
        if out.code != 0 or report is None or report.get("count") != expect["count"]:
            return "expected count %s" % expect["count"]
        return None
    if out.code != expect["code"]:
        return "exit code %s, expected %s" % (out.code, expect["code"])
    if report_digest(report) != expect["digest"]:
        return "report digest differs from the recorded one"
    return None


@dataclass
class Pass:
    wall: float
    cpu: float
    slowest: float
    overhead: float
    failures: list[tuple[str, str]]


def run_pass(main, invocations, expected: dict, deadline: float, between, tracer=None) -> Pass:
    """Run the list once and check it; call between(i) after invocation
    i. A pass's times are sums over its invocations, so what between()
    does is not part of them. With a tracer, each invocation runs
    untraced and traced, back to back; wall, cpu and slowest are then
    those of the untraced runs, and overhead is the traced minus the
    untraced seconds, summed. The second run of a pair starts warm, so the
    order alternates and the warm start cancels in the sum. Outcomes are
    dropped once checked, so that memory does not grow with the number of
    passes."""
    def call(argv):
        return invoke(main, argv, min(INVOCATION_CAP_S, deadline - time.perf_counter()))

    def call_traced(i, argv):
        tracer.invocation = i
        tracer.install()
        try:
            return call(argv)
        finally:
            tracer.uninstall()

    plain, traced = [], []
    for i, inv in enumerate(invocations):
        if tracer is not None and i % 2:
            traced.append(call_traced(i, inv.argv))
        plain.append(call(inv.argv))
        if tracer is not None and not i % 2:
            traced.append(call_traced(i, inv.argv))
        between(i)
    failures = check_outcomes(invocations, plain, expected)
    if tracer is not None:
        failures += check_outcomes(invocations, traced, expected)
    return Pass(
        wall=sum(o.seconds for o in plain),
        cpu=sum(o.cpu for o in plain),
        slowest=max(o.seconds for o in plain),
        overhead=sum(o.seconds for o in traced) - sum(o.seconds for o in plain) if traced else 0.0,
        failures=failures,
    )


def check_outcomes(invocations, outcomes: list[Outcome], expected: dict) -> list[tuple[str, str]]:
    """(invocation key, reason) for each failed invocation. Reasons that
    start with "wrong:" are wrong outputs; the rest are crashes and caps."""
    failures = []
    counts: dict[str, dict[str, str]] = {}
    for inv, out in zip(invocations, outcomes):
        if out.error is not None:
            failures.append((inv.key, out.error))
            continue
        why = wrong_output(inv, out, expected.get(inv.key))
        if why is not None:
            failures.append((inv.key, "wrong: " + why))
        elif inv.same_count:
            counts.setdefault(inv.case, {})[inv.key] = parse_report(out.stdout)["count"]
    for by_key in counts.values():
        if len(set(by_key.values())) > 1:
            failures += [(key, "wrong: backtrack and matching counts differ") for key in by_key]
    return failures


def load_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics."""
    spec = json.loads(SPEC.read_text())
    return tuple({m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Room for a pass that starts just inside --seconds; past the deadline
    # an invocation gets no time and counts as a timeout.
    deadline = started + args.seconds + 2 * INVOCATION_CAP_S
    end_to_end, per_layer = load_metrics()
    sets = workloads.WORKLOADS[args.workload]
    recorded = json.loads(EXPECTED.read_text())
    expected = {key: e for name, _ in sets for key, e in recorded[name].items()}

    WORK_ROOT.mkdir(exist_ok=True)
    setup_times = []
    workdirs = []

    def set_up(workdir):
        gc.collect()
        t0 = time.perf_counter()
        package = import_program()
        invocations = []
        for name, repeats in sets:
            invocations += materialize(workloads.set_cases(name, args.seed), workdir) * repeats
        setup_times.append(time.perf_counter() - t0)
        return package, invocations

    def repeat_set_up():
        # The passes keep the first set-up's package and files; a repeat
        # only times the same steps at another moment of the run. Repeats
        # rewrite the files of one directory: on a disk mounted with
        # discard, creating files after deleting others slowed the writes
        # threefold over three runs, which says nothing of the program.
        set_up(workdirs[1])

    try:
        workdirs += [Path(tempfile.mkdtemp(dir=WORK_ROOT)) for _ in range(2)]
        package, invocations = set_up(workdirs[0])

        def cli_main(argv):
            # Looked up per call, so that the tracer's rebinding of main shows.
            return package.cli.main(argv)

        tracer = tracing.Tracer(package) if args.trace else None
        measure_start = time.perf_counter()
        # Invocations of the second pass after which a set-up repeats. A
        # repeat that follows an invocation starts with cold caches and
        # takes up to twice as long as one that follows another set-up, so
        # every repeat but those of a run with a single pass follows one.
        repeat_after = set() if tracer else {
            j * len(invocations) // (SETUP_REPEATS - 1) for j in range(SETUP_REPEATS - 1)
        }

        def between(i):
            if len(passes) == 1 and i in repeat_after:
                repeat_set_up()

        passes: list[Pass] = []
        layer_runs: list[dict] = []
        while True:
            if tracer is not None:
                tracer.reset()
            passes.append(run_pass(cli_main, invocations, expected, deadline, between, tracer))
            if tracer is not None:
                layer_runs.append(tracer.layer_metrics())
            elif len(passes) == 1:
                # The first pass runs without set-up repeats: where a repeat
                # falls in the heap's history moves the peak by up to 10 %.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # Another pass while, at the mean pass length, it would end at
            # most half a pass after --seconds: a run then measures about
            # --seconds, whatever the pass length.
            elapsed = time.perf_counter() - measure_start
            if elapsed + elapsed / len(passes) / 2 > args.seconds or time.perf_counter() > deadline:
                break
        while tracer is None and len(setup_times) < SETUP_REPEATS:
            repeat_set_up()
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    attempted = len(invocations) * len(passes) * (2 if tracer else 1)
    correct = not any(reason.startswith("wrong:") for _, reason in failures)

    if tracer is None:
        values = {
            "wall_s": statistics.median([p.wall for p in passes]),
            "cpu_s": statistics.median([p.cpu for p in passes]),
            "slowest_call_s": statistics.median([p.slowest for p in passes]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = end_to_end
    else:
        # Times are medians over traced passes; counters repeat exactly,
        # so the last pass gives them.
        layers = dict(layer_runs[-1])
        for name in layers:
            if name.endswith((".s", ".self_s")):
                layers[name] = statistics.median([run[name] for run in layer_runs])
        layers["trace.overhead_s"] = statistics.median([p.overhead for p in passes])
        layers["trace.passes"] = len(passes)
        OUT_DIR.mkdir(exist_ok=True)
        stem = "%s-seed%d" % (args.workload, args.seed)
        tracer.write_spans(OUT_DIR / ("spans-%s.jsonl" % stem))
        (OUT_DIR / ("layers-%s.json" % stem)).write_text(json.dumps(layers, indent=1, sort_keys=True))
        values = {name: layers.get(name, 0) for name in per_layer}
        units = per_layer
    if set(values) != set(units):
        raise SystemExit("error: BENCHMARK.json names metrics this run does not measure")

    print("workload %s seed %d: %d passes of %d invocations%s, %d set-ups, %.1f s in all"
          % (args.workload, args.seed, len(passes), len(invocations),
             ", each run untraced and traced" if tracer else "", len(setup_times),
             time.perf_counter() - started))
    print("pass wall s (untraced invocations): %s" % " ".join("%.3f" % p.wall for p in passes))
    print("failed_frac %.4f ratio (%d failed of %d attempted)"
          % (len(failures) / attempted, len(failures), attempted))
    for key, reason in sorted(set(failures)):
        print("  failed %s: %s" % (key, reason))
    for name, value in values.items():
        print("%-46s %14.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
