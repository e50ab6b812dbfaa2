"""Benchmark of `gsee-bench report`: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's catalog and planted solutions from the seed, then
calls `gsee_bench.cli.run_report` back to back, each call in a fresh
interpreter with a fresh output directory, until S seconds have passed
(closed loop, one report at a time, at least two reports). BLAS and OpenMP
run one thread per process. Every report's artifacts go through the
correctness gate; a failed check prints the problems, reports no numbers and
exits 1.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics (medians over the run's reports). With --trace 1 the first report
runs under the outside-in tracer and the JSON carries the per-layer metrics;
the spans are kept in .perfbench/results/<workload>/trace.json, next to one
report's features.csv and oracle.json and the environment record.

The metric names and units come from BENCHMARK.json; this file computes the
values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MIN_REPORTS = 2
SETUP_ONLY_SPAWNS = 7
CHILD_TIMEOUT_S = 150.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

LAYERS = ["catalog", "fcidump", "fermionic", "pauli", "qubit_features", "fci",
          "ml.scaling", "ml.svm", "ml.latent", "ml.solvability", "ml.shapley", "plots", "cli"]


class RunError(Exception):
    pass


# ---------------------------------------------------------------- children


def spawn(args: list[str], result: Path, log: Path) -> tuple[dict, float, float]:
    """Run child.py to completion; return (its result, spawn time, peak RSS MB).

    The child gets its own session so that, on timeout, it and its pool
    workers are killed together. The rusage of the reaped child includes
    the largest RSS of any of its reaped descendants.
    """
    cmd = [sys.executable, str(HERE / "child.py"), str(result), *args]
    with open(log, "ab") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env={**os.environ, **THREAD_ENV}, cwd=ROOT, start_new_session=True)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - started > CHILD_TIMEOUT_S:
                    raise RunError(f"child timed out after {CHILD_TIMEOUT_S:.0f} s")
                time.sleep(0.005)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RunError(f"child exited with {proc.returncode}:\n{tail}")
    return json.loads(result.read_text(encoding="utf-8")), started, usage.ru_maxrss / 1024.0


class Session:
    """The work directory of one benchmark invocation and its samples."""

    def __init__(self, work: Path, catalog: Path, solutions: Path, jobs: int):
        self.work = work
        self.base = ["--catalog", str(catalog), "--solutions", str(solutions),
                     "--jobs", str(jobs)]
        self.count = 0
        self.setup_s: list[float] = []
        self.reports: list[dict] = []  # untraced: report_s, cpu_s, peak_rss_mb, out
        self.traced: dict | None = None

    def _spawn(self, extra: list[str]) -> dict:
        self.count += 1
        out = self.work / f"out-{self.count:03d}"
        result, started, rss = spawn([*self.base, "--out", str(out), *extra],
                                     self.work / f"result-{self.count:03d}.json",
                                     self.work / "children.log")
        self.setup_s.append(result["ready"] - started)
        return {**result, "peak_rss_mb": rss, "out": out}

    def setup_only(self) -> None:
        self._spawn(["--setup-only"])

    def report(self, trace_dir: Path | None = None) -> dict:
        extra = [] if trace_dir is None else ["--trace-dir", str(trace_dir)]
        sample = self._spawn(extra)
        if trace_dir is None:
            self.reports.append(sample)
        else:
            self.traced = sample
        return sample


# ----------------------------------------------------------------- metrics


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(session: Session) -> dict:
    values = {
        "report_s": median(r["report_s"] for r in session.reports),
        "setup_s": median(session.setup_s),
        "cpu_s": median(r["cpu_s"] for r in session.reports),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in session.reports),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCH["end_to_end"]}


def _layer(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


def _span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer and per-function busy/self time plus the summed size counts."""
    from tracer import self_times

    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for s in spans:
        duration = s["end"] - s["start"]
        layer = _layer(s["name"])
        parent = by_id.get(s["parent"])
        if parent is None or _layer(parent["name"]) != layer:
            add(f"{layer}.busy_s", duration)  # outermost span of its layer
        add(f"{layer}.self_s", own[s["id"]])
        add(f"{s['name']}.busy_s", duration)
        add(f"{s['name']}.self_s", own[s["id"]])
        add(f"{s['name']}.calls", 1)
        for key, value in s.items():
            if isinstance(value, (int, float)) and key not in ("start", "end", "pid"):
                add(f"{s['name']}#{key}", value)
    return out


def _pool_efficiency(spans: list[dict], jobs: int) -> float:
    """Per-item busy time / (jobs x wall time of the fan-out stages).

    Items are the per-task feature calls under run_features and the
    per-solver run_solvability calls, in workers or, with one job, inline.
    The stage wall times are read in the reporting process, so that they
    include starting, feeding and shutting down the pool: the run_features
    span, and the stretch from the end of run_evaluate to the start of
    run_oracle, where the solvability fan-out runs.
    """
    by_id = {s["id"]: s for s in spans}
    main = next(s["pid"] for s in spans if s["name"] == "cli.run_report")
    stage = {s["name"]: s for s in spans if s["pid"] == main and s["name"].startswith("cli.run_")}
    wall = (stage["cli.run_features"]["end"] - stage["cli.run_features"]["start"]
            + stage["cli.run_oracle"]["start"] - stage["cli.run_evaluate"]["end"])
    items = [s for s in spans
             if s["name"] == "cli.run_solvability"
             or (s["name"] in ("fcidump.parse_fcidump", "qubit_features.compute_feature_vector")
                 and by_id.get(s["parent"], {}).get("name") == "cli.run_features")]
    return sum(s["end"] - s["start"] for s in items) / (jobs * wall)


# per-layer count -> (span names it needs, keys in the span sums)
COUNTS = {
    "catalog.scan_calls": (["catalog.scan_catalog", "catalog.scan_solutions"],
                           ["catalog.scan_catalog.calls", "catalog.scan_solutions.calls"]),
    "catalog.files_loaded": (["catalog.load_instance", "catalog.load_solution"],
                             ["catalog.load_instance#files", "catalog.load_solution#files"]),
    "fcidump.parse_calls": (["fcidump.parse_fcidump"], ["fcidump.parse_fcidump.calls"]),
    "fcidump.bytes_parsed": (["fcidump.parse_fcidump"], ["fcidump.parse_fcidump#bytes"]),
    "pauli.terms_out": (["pauli.jordan_wigner_hamiltonian"],
                        ["pauli.jordan_wigner_hamiltonian#terms_out"]),
    "fci.matrix_nnz": (["fci.build_fci_matrix"], ["fci.build_fci_matrix#matrix_nnz"]),
    "fci.davidson_iterations": (["fci.lowest_eigenvalues"],
                                ["fci.lowest_eigenvalues#davidson_iterations"]),
    "fci.unconverged": (["fci.lowest_eigenvalues"], ["fci.lowest_eigenvalues#unconverged"]),
    "ml.svm.rbf_kernel.calls": (["ml.svm.rbf_kernel"], ["ml.svm.rbf_kernel.calls"]),
    "ml.svm.kernel_entries": (["ml.svm.rbf_kernel"], ["ml.svm.rbf_kernel#kernel_entries"]),
    "ml.svm.smo_capped": (["ml.svm.svm_fit_cv"], ["ml.svm.svm_fit_cv#smo_capped"]),
    "ml.svm.smo_fits": (["ml.svm.svm_fit_cv"], ["ml.svm.svm_fit_cv#smo_fits"]),
    "ml.svm.rows_scored": (["ml.svm.predict_proba"], ["ml.svm.predict_proba#rows_scored"]),
    "ml.shapley.attributions_computed": (
        ["ml.solvability.estimate_solvability"],
        ["ml.solvability.estimate_solvability#attributions_computed"]),
    "ml.solvability.reports": (["ml.solvability.estimate_solvability"],
                               ["ml.solvability.estimate_solvability#reports"]),
}
TIMED = [
    "fermionic.double_factorize.busy_s", "pauli.jordan_wigner_hamiltonian.busy_s",
    "qubit_features.compute_qubit_features.busy_s",
    "qubit_features.compute_feature_vector.self_s", "fci.build_fci_matrix.busy_s",
    "fci.lowest_eigenvalues.busy_s", "ml.scaling.minmax_scale.busy_s",
    "ml.latent.pca_fit.busy_s", "ml.svm.svm_fit_cv.busy_s", "ml.svm.predict_proba.busy_s",
    "ml.solvability.estimate_solvability.self_s", "ml.shapley.exact_shapley.busy_s",
    "plots.render_latent_map.busy_s", "cli.run_features.busy_s", "cli.run_evaluate.busy_s",
    "cli.run_solvability.busy_s", "cli.run_oracle.busy_s",
]
SHARES = {  # share of all traced self time (every process) spent in these layers
    "share.pauli_fci": ["pauli", "fci"],
    "share.ml_svm": ["ml.svm"],
    "share.io": ["catalog", "fcidump", "cli"],
}

def per_layer_metrics(trace: dict, jobs: int, untraced_median: float,
                      traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced report. Those that need a missing hook
    point, or sizes a hook could no longer read, are left out and named in
    the second return value."""
    from tracer import HOOKS

    spans = trace["spans"]
    sums = _span_metrics(spans)
    missing_names = {name for module, attr, name, _ in HOOKS
                     if f"{module}.{attr}" in trace["missing_hooks"]}
    missing_layers = {_layer(name) for name in missing_names}
    unsized = missing_names | {s["name"] for s in spans if "size_error" in s}
    values: dict[str, float] = {}
    for layer in LAYERS:
        if layer not in missing_layers:
            values[f"{layer}.busy_s"] = sums.get(f"{layer}.busy_s", 0.0)
            values[f"{layer}.self_s"] = sums.get(f"{layer}.self_s", 0.0)
    for name in TIMED:
        if name.rsplit(".", 1)[0] not in missing_names:
            values[name] = sums.get(name, 0.0)
    for name, (needs, keys) in COUNTS.items():
        if not unsized.intersection(needs):
            values[name] = sum(sums.get(k, 0) for k in keys)
    total_self = sum(sums.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    for name, layers in SHARES.items():
        if not missing_layers.intersection(layers):
            values[name] = sum(sums.get(f"{layer}.self_s", 0.0) for layer in layers) / total_self
    out_dir = traced["out"]
    values["cli.bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
    if not missing_names.intersection(
            ["cli.run_features", "cli.run_evaluate", "cli.run_solvability", "cli.run_oracle",
             "fcidump.parse_fcidump", "qubit_features.compute_feature_vector"]):
        values["cli.pool_efficiency"] = _pool_efficiency(spans, jobs)
    values["trace.report_s"] = traced["report_s"]
    values["trace.overhead_s"] = traced["report_s"] - untraced_median
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in BENCH["per_layer"] if m["name"] in values}
    absent = [m["name"] for m in BENCH["per_layer"] if m["name"] not in values]
    return metrics, absent


def by_size(spans: list[dict]) -> dict:
    """Calls and busy time per span name and problem size (norb/dets/rows)."""
    table: dict = {}
    for s in spans:
        for key in ("norb", "dets", "rows"):
            if key in s:
                cell = table.setdefault(s["name"], {}).setdefault(f"{key}={s[key]}",
                                                                   {"calls": 0, "busy_s": 0.0})
                cell["calls"] += 1
                cell["busy_s"] += s["end"] - s["start"]
                break
    return table


# -------------------------------------------------------------------- run


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": THREAD_ENV,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def gate(session: Session, manifest: dict) -> tuple[list[str], int, str]:
    """Problems found, failed operations and the SHA-256 of the artifact set."""
    from gate import artifact_digest, check_demo_oracle, check_report

    outs = [r["out"] for r in session.reports]
    if session.traced is not None:
        outs.append(session.traced["out"])
    problems, failed = check_report(outs[0], manifest)
    digests = {artifact_digest(out) for out in outs}
    if len(digests) != 1:
        problems.append(f"{len(outs)} reports gave {len(digests)} different artifact sets")
    problems += check_demo_oracle(ROOT, session.work / "demo-oracle")
    return problems, failed, min(digests)


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Generate the inputs, then spawn set-ups and reports for `seconds`."""
    from workloads import generate

    manifest = generate(workload, seed, work / "input")
    session = Session(work, work / "input" / "catalog", work / "input" / "solutions",
                      workload.jobs)
    for _ in range(SETUP_ONLY_SPAWNS):
        session.setup_only()
    trace_dir = work / "trace"
    deadline = time.monotonic() + seconds
    if trace:
        trace_dir.mkdir()
        session.report(trace_dir)
    while True:
        session.report()
        n = len(session.reports) + (session.traced is not None)
        expected = median(r["report_s"] for r in session.reports) + 1.0  # + interpreter start
        if n >= MIN_REPORTS and time.monotonic() + expected > deadline:
            break
    return manifest, session, trace_dir


def keep_artifacts(session: Session, results: Path, digest: str, seed: int) -> None:
    """Keep one report's features.csv and oracle.json, for numeric comparison
    between commits, and the artifact set's hash."""
    first = session.reports[0]["out"]
    for name in ("features.csv", "oracle.json"):
        shutil.copyfile(first / name, results / name)
    (results / "artifacts.sha256").write_text(f"{digest}  seed {seed}\n", encoding="utf-8")


def print_summary(workload, session: Session, metrics: dict, attempted: int, failed: int):
    n = len(session.reports)
    samples = " ".join(f"{r['report_s']:.3f}" for r in session.reports)
    print(f"workload {workload.name}: {n} untraced reports ({samples} s), jobs {workload.jobs}")
    for name, entry in metrics.items():
        samples = (f"median of {len(session.setup_s)} set-ups" if name == "setup_s"
                   else f"median of {n} reports" if name in ("report_s", "cpu_s", "peak_rss_mb")
                   else "")
        print(f"  {name:48s} {entry['value']:14.6g} {entry['unit']:6s} {samples}")
    frac = failed / attempted
    print(f"  {'ops_failed_frac':48s} {frac:14.6g} ratio  "
          f"{failed} failed of {attempted} (2 x tasks + solvers)")


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through spawn(), which kills the running child


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "gsee_bench" / "cli.py", ROOT / "demo" / "generate.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a checkout "
                  "of the repository", file=sys.stderr)
            return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    results = STATE / "results" / workload.name
    results.mkdir(parents=True, exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest, session, trace_dir = measure(
            workload, args.seed, args.seconds, bool(args.trace), work)
        problems, failed, digest = gate(session, manifest)
        env = environment(args.seed)
        (results / "env.json").write_text(json.dumps(env, indent=1) + "\n", encoding="utf-8")
        print(f"environment: {json.dumps(env)}")
        attempted = 2 * len(manifest["tasks"]) + len(manifest["solvers"])
        if problems:
            for problem in problems:
                print(f"perfbench: correctness gate: {problem}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                              "metrics": {}}))
            return 1
        keep_artifacts(session, results, digest, args.seed)
        metrics = end_to_end_metrics(session)
        if args.trace:
            trace = json.loads((trace_dir / "spans.json").read_text(encoding="utf-8"))
            metrics, absent = per_layer_metrics(
                trace, workload.jobs, metrics["report_s"]["value"], session.traced)
            for hook in trace["missing_hooks"]:
                print(f"perfbench: missing hook point {hook}", file=sys.stderr)
            if absent:
                print(f"perfbench: metrics not measured: {', '.join(absent)}", file=sys.stderr)
            (results / "trace.json").write_text(json.dumps({
                "missing_hooks": trace["missing_hooks"], "metrics": metrics,
                "by_size": by_size(trace["spans"]), "spans": trace["spans"],
            }) + "\n", encoding="utf-8")
        print_summary(workload, session, metrics, attempted, failed)
        print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
