"""One fresh-interpreter `run_report` call, as a user's CLI call pays it.

    python3 perfbench/child.py RESULT_JSON [--setup-only] [--trace-dir DIR]
        --catalog DIR --solutions DIR --out DIR --jobs N

Writes to RESULT_JSON: `ready` (CLOCK_MONOTONIC once `gsee_bench.cli` is
imported and the RunConfig is built; the parent subtracts its own clock
reading from before the spawn), and unless --setup-only, `report_s` and
`cpu_s` (user + system time of this process and its reaped pool workers)
of the `run_report` call. With --trace-dir the call runs under the tracer
and the spans are written to DIR/spans.json.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gsee_bench.cli as cli  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("result", type=Path)
    parser.add_argument("--catalog", type=Path, required=True)
    parser.add_argument("--solutions", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args()
    config = cli.RunConfig(catalog_dir=args.catalog, output_dir=args.out, jobs=args.jobs)
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        result.update(_timed_report(config, args.solutions, args.trace_dir))
    args.result.write_text(json.dumps(result), encoding="utf-8")


def _timed_report(config, solutions: Path, trace_dir: Path | None) -> dict:
    tracer = None
    if trace_dir is not None:
        from tracer import Tracer

        tracer = Tracer(run_id=f"report-{os.getpid()}", spill_dir=trace_dir)
        tracer.install()
    cpu0 = os.times()
    t0 = time.monotonic()
    if tracer is None:
        cli.run_report(config, solutions)
    else:
        with tracer.span("cli.run_report"):
            cli.run_report(config, solutions)
    t1 = time.monotonic()
    cpu1 = os.times()
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])  # user, system, children user, children system
    if tracer is not None:
        (trace_dir / "spans.json").write_text(
            json.dumps({"missing_hooks": tracer.missing, "spans": tracer.finish()}),
            encoding="utf-8",
        )
    return {"report_s": t1 - t0, "cpu_s": cpu}


if __name__ == "__main__":
    main()
