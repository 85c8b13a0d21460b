"""Record the expected outcome of every invocation any seed can produce.

    python3 bench/record.py

Runs every pool instance of every invocation set, in its pool labeling,
through edgecolorkit.cli.main and writes bench/expected.json: per set and
invocation key, the exit code and the digest of the stdout report with
its path fields dropped. An invocation that raises is recorded with the
exception type and the direct count of its input, so that a later
program that answers it can still be checked.

Run it only to re-baseline the benchmark against a program whose outputs
are known to be right.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    package = run.import_program()
    cli_main = package.cli.main
    recorded = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        for name in workloads.SETS:
            entries = recorded[name] = {}
            invocations = run.materialize(workloads.set_cases(name, 0, everything=True), Path(tmp))
            for inv in invocations:
                out = run.invoke(cli_main, inv.argv, run.INVOCATION_CAP_S)
                if out.error == "timeout":
                    raise SystemExit("error: %s hit the time cap" % inv.key)
                if out.error is not None:
                    argv = list(inv.argv)
                    direct = run.invoke(
                        cli_main,
                        ("count", "--input", argv[argv.index("--input") + 1],
                         "--kappa", argv[argv.index("--kappa") + 1]),
                        run.INVOCATION_CAP_S,
                    )
                    entry = {"raises": out.error, "count": json.loads(direct.stdout)["count"]}
                    print("%s %s raises %s" % (name, inv.key, out.error))
                else:
                    entry = {"code": out.code, "digest": run.report_digest(run.parse_report(out.stdout))}
                    why = run.wrong_output(inv, out, entry)
                    if why is not None:
                        raise SystemExit("error: %s: %s" % (inv.key, why))
                entries[inv.key] = entry
            print("%s: %d invocations recorded" % (name, len(entries)))
    run.EXPECTED.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
