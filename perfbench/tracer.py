"""Outside-in tracer: wraps the package's functions where their callers look
them up and records one span per call.

A span is a dict with a name, start and end (CLOCK_MONOTONIC, comparable
across processes), the id of the span that was open when it started, the
report's run id, the process id and size attributes (norb, determinant
count, rows...). Spans stay in memory until `finish`. Pool workers are
forked from the traced process and inherit the wrappers, but they exit
without running `atexit` hooks, so a worker appends its spans to a
per-process file each time a call handed to it returns; `finish` merges them.

A hook point that no longer exists is recorded as missing and left alone.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import logging
import os
import time
from pathlib import Path


def _file_bytes(handle) -> int:
    return os.fstat(handle.fileno()).st_size if hasattr(handle, "fileno") else len(handle)


def _smo_fits(args, kwargs) -> int:
    """SMO fits attempted by one svm_fit_cv call: |C| * |gamma| * k + 1."""
    from gsee_bench.ml import svm

    n_features = len(args[0][0])
    c_grid = kwargs.get("c_grid") or svm.DEFAULT_C_GRID
    gamma_grid = kwargs.get("gamma_grid") or svm.default_gamma_grid(n_features)
    return len(c_grid) * len(gamma_grid) * kwargs.get("k", 5) + 1


# (module where the caller looks the name up, attribute, span name, size
# attributes from (args, kwargs, result)). The span name is the layer
# (the module that defines the function) plus the function name.
HOOKS = [
    ("gsee_bench.cli", "scan_catalog", "catalog.scan_catalog",
     lambda a, k, r: {"instances": len(r)}),
    ("gsee_bench.cli", "scan_solutions", "catalog.scan_solutions",
     lambda a, k, r: {"solutions": len(r)}),
    ("gsee_bench.cli", "evaluate_solver", "catalog.evaluate_solver",
     lambda a, k, r: {"tasks": len(a[0])}),
    ("gsee_bench.catalog", "load_instance", "catalog.load_instance",
     lambda a, k, r: {"files": 1, "bytes": os.path.getsize(a[0])}),
    ("gsee_bench.catalog", "load_solution", "catalog.load_solution",
     lambda a, k, r: {"files": 1, "bytes": os.path.getsize(a[0])}),
    ("gsee_bench.cli", "parse_fcidump", "fcidump.parse_fcidump",
     lambda a, k, r: {"norb": r.norb, "bytes": _file_bytes(a[0])}),
    ("gsee_bench.cli", "compute_feature_vector", "qubit_features.compute_feature_vector",
     lambda a, k, r: {"norb": a[0].norb}),
    ("gsee_bench.qubit_features", "double_factorize", "fermionic.double_factorize",
     lambda a, k, r: {"norb": a[0].norb}),
    ("gsee_bench.qubit_features", "jordan_wigner_hamiltonian", "pauli.jordan_wigner_hamiltonian",
     lambda a, k, r: {"norb": a[0].norb, "terms_out": len(r)}),
    ("gsee_bench.qubit_features", "compute_qubit_features", "qubit_features.compute_qubit_features",
     lambda a, k, r: {"terms": len(a[0])}),
    ("gsee_bench.fci", "build_basis", "fci.build_basis",
     lambda a, k, r: {"dets": len(r)}),
    ("gsee_bench.fci", "build_fci_matrix", "fci.build_fci_matrix",
     lambda a, k, r: {"dets": len(a[1]), "matrix_nnz": int(r.nnz)}),
    ("gsee_bench.fci", "lowest_eigenvalues", "fci.lowest_eigenvalues",
     lambda a, k, r: {"dets": a[0].shape[0], "davidson_iterations": r.n_iterations,
                      "unconverged": int(not r.converged)}),
    ("gsee_bench.ml.solvability", "minmax_scale", "ml.scaling.minmax_scale",
     lambda a, k, r: {"rows": len(a[0])}),
    ("gsee_bench.ml.solvability", "svm_fit_cv", "ml.svm.svm_fit_cv",
     lambda a, k, r: {"rows": len(a[0]), "smo_fits": _smo_fits(a, k)}),
    ("gsee_bench.ml.solvability", "pca_fit", "ml.latent.pca_fit",
     lambda a, k, r: {"rows": len(a[0])}),
    ("gsee_bench.ml.solvability", "predict_proba", "ml.svm.predict_proba",
     lambda a, k, r: {"rows_scored": len(r)}),
    ("gsee_bench.ml.solvability", "exact_shapley", "ml.shapley.exact_shapley",
     lambda a, k, r: {"features": len(r)}),
    # cli imported estimate_solvability by name, so it is patched there.
    ("gsee_bench.cli", "estimate_solvability", "ml.solvability.estimate_solvability",
     lambda a, k, r: {"rows": len(a[0]), "reports": 1,
                      "attributions_computed": int(bool(r.flags["attributions_computed"]))}),
    ("gsee_bench.ml.svm", "rbf_kernel", "ml.svm.rbf_kernel",
     lambda a, k, r: {"kernel_entries": int(r.size)}),
    ("gsee_bench.cli", "render_latent_map", "plots.render_latent_map",
     lambda a, k, r: {"points": len(a[0].latent_points)}),
    ("gsee_bench.cli", "run_features", "cli.run_features", None),
    ("gsee_bench.cli", "run_evaluate", "cli.run_evaluate", None),
    ("gsee_bench.cli", "run_solvability", "cli.run_solvability", None),
    ("gsee_bench.cli", "run_oracle", "cli.run_oracle", None),
]

SMO_CAP_LOGGER = ("gsee_bench.ml.svm", "SMO stopped after")


class _SmoCapCounter(logging.Handler):
    """Counts the SMO sweep-cap warnings onto the innermost open span."""

    def __init__(self, tracer: "Tracer"):
        super().__init__()
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith(SMO_CAP_LOGGER[1]) and self.tracer.stack:
            span = self.tracer.stack[-1]
            span["smo_capped"] = span.get("smo_capped", 0) + 1


class Tracer:
    def __init__(self, run_id: str, spill_dir: Path, hooks=HOOKS):
        self.run_id = run_id
        self.spill_dir = Path(spill_dir)
        self.hooks = hooks
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[dict] = []  # finished spans of the main process
        self.pending: list[dict] = []  # finished spans of a worker, not yet spilled
        self.stack: list[dict] = []
        self.serial = 0
        self.missing: list[str] = []
        self.handler = _SmoCapCounter(self)

    def install(self) -> None:
        for module_name, attr, name, size in self.hooks:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, size))
        logging.getLogger(SMO_CAP_LOGGER[0]).addHandler(self.handler)

    def wrap(self, fn, name: str, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if size is not None:
                    try:
                        span.update(size(args, kwargs, result))
                    except Exception as exc:  # noqa: BLE001 - a changed return type
                        span["size_error"] = repr(exc)
                return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> dict:
        if os.getpid() != self.pid:  # first span in a freshly forked worker
            self.pid = os.getpid()
            self.pending = []
        self.serial += 1
        span = {
            "id": f"{self.pid}.{self.serial}",
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "run": self.run_id,
            "pid": self.pid,
            "start": time.monotonic(),
        }
        self.stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self.stack.pop()
        if self.pid == self.main_pid:
            self.spans.append(span)
            return
        self.pending.append(span)
        # The worker's call is done once no span of this process is open.
        if not self.stack or self.stack[-1]["pid"] != self.pid:
            with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in self.pending)
            self.pending = []

    def finish(self) -> list[dict]:
        """Detach the log counter and return every span, workers' included."""
        logging.getLogger(SMO_CAP_LOGGER[0]).removeHandler(self.handler)
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
        return sorted(spans, key=lambda s: s["start"])


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out
