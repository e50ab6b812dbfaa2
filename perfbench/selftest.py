"""Self-test of the benchmark, at toy size; runs in well under a minute.

    python3 perfbench/selftest.py

Checks that toy versions of every workload run end to end through fresh
processes and pass the correctness gate, traced and untraced; that corrupted
or malformed artifacts fail the gate with a problem, not an exception; that a
missing hook point is reported and leaves its metrics out instead of
crashing; that BENCHMARK.json names the workloads of workloads.py; and that
run.py exits nonzero, printing no result, in a directory without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import run
from tracer import HOOKS, Tracer
from workloads import WORKLOADS, generate

WORK = run.STATE / "selftest"


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def toy_session(name: str) -> tuple[dict, run.Session]:
    workload = WORKLOADS[name]
    work = WORK / name
    manifest = generate(workload, seed=3, root=work / "input", toy=True)
    session = run.Session(work, work / "input" / "catalog", work / "input" / "solutions",
                          workload.jobs)
    (work / "trace").mkdir()
    session.report(work / "trace")
    session.report()
    return manifest, session


def check_workloads() -> tuple[Path, dict]:
    for name, workload in WORKLOADS.items():
        manifest, session = toy_session(name)
        problems, failed, _ = run.gate(session, manifest)
        expect(not problems and failed == 0, f"{name}: toy report passes the gate {problems}")
        trace = json.loads((WORK / name / "trace" / "spans.json").read_text(encoding="utf-8"))
        metrics, absent = run.per_layer_metrics(
            trace, workload.jobs, session.reports[0]["report_s"], session.traced)
        expect(not trace["missing_hooks"] and not absent,
               f"{name}: traced report gives every per-layer metric")
        expect(all(m["value"] > 0 for m in run.end_to_end_metrics(session).values()),
               f"{name}: every end-to-end metric is measured")
        expect(metrics["fcidump.parse_calls"]["value"] == 2 * len(manifest["tasks"]),
               f"{name}: two FCIDUMP parses per task are counted, workers included")
    return WORK / "wide-catalog" / "out-002", manifest


def check_corruption(out: Path, manifest: dict) -> None:
    """Each corruption goes through run.gate, as a benchmark run's would."""
    for what, corrupt in [
        ("a changed solved count", lambda d: _edit_solved(d, lambda n: str(int(n) + 1))),
        ("a non-integer solved count", lambda d: _edit_solved(d, lambda n: "many")),
        ("a NaN in a solvability report", _nan_ratio),
        ("a missing oracle.json", lambda d: (d / "oracle.json").unlink()),
        ("a missing features.csv", lambda d: (d / "features.csv").unlink()),
        ("an oracle entry without a converged flag", _drop_converged),
    ]:
        bad = WORK / "corrupt"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        corrupt(bad)
        session = SimpleNamespace(reports=[{"out": bad}], traced=None, work=WORK / "gate")
        problems, _, _ = run.gate(session, manifest)
        expect(bool(problems), f"gate rejects {what}: {problems[:1]}")


def _edit_solved(out: Path, edit) -> None:
    path = out / "solver_summary.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[2] = edit(cells[2])
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_converged(out: Path) -> None:
    path = out / "oracle.json"
    oracle = json.loads(path.read_text(encoding="utf-8"))
    del oracle["results"][0]["converged"]
    path.write_text(json.dumps(oracle), encoding="utf-8")


def _nan_ratio(out: Path) -> None:
    path = sorted(out.glob("solvability_*.json"))[0]
    report = json.loads(path.read_text(encoding="utf-8"))
    report["solvability_ratio"] = float("nan")
    path.write_text(json.dumps(report), encoding="utf-8")


def check_missing_hooks() -> None:
    tracer = Tracer("selftest", WORK, hooks=[("gsee_bench.cli", "no_such_stage", "cli.x", None),
                                             ("gsee_bench.no_such_module", "f", "cli.y", None)])
    tracer.install()
    expect(tracer.missing == ["gsee_bench.cli.no_such_stage", "gsee_bench.no_such_module.f"],
           "a renamed or removed hook point is recorded as missing")
    spans_file = WORK / "big-hamiltonians" / "trace" / "spans.json"
    trace = json.loads(spans_file.read_text(encoding="utf-8"))
    trace["missing_hooks"] = ["gsee_bench.fci.build_fci_matrix"]
    trace["spans"] = [s for s in trace["spans"] if s["name"] != "fci.build_fci_matrix"]
    traced = {"out": WORK / "big-hamiltonians" / "out-001", "report_s": 1.0}
    metrics, absent = run.per_layer_metrics(trace, 1, 1.0, traced)
    expect("fci.matrix_nnz" in absent and "fci.busy_s" in absent and "share.pauli_fci" in absent
           and "fci.matrix_nnz" not in metrics and "pauli.busy_s" in metrics,
           "metrics that need a missing hook point are reported absent, not zero")


def check_benchmark_json() -> None:
    expect([w["name"] for w in run.BENCH["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names the workloads that workloads.py builds")
    expect(all(h[0].startswith("gsee_bench") for h in HOOKS), "hook points name package modules")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=run.STATE) as tmp:
        shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wide-catalog",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "run.py fails without a result where the program is absent")


def main() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        check_benchmark_json()
        check_bare_directory()
        check_corruption(*check_workloads())
        check_missing_hooks()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
