"""Command-line orchestrator: features, evaluate, solvability, oracle, report.

Subcommands scan a catalog directory tree, write CSV/JSON/SVG artifacts into
the output directory, and isolate per-task failures (logged, never fatal).
All outputs are deterministic for a fixed seed and configuration; CSV and SVG
files start with a comment line carrying the tool version and a hash of the
semantic configuration, JSON files carry the same data under "_meta".
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import logging
import os
import sys
from collections.abc import Callable
from concurrent import futures
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import (
    SolutionFile,
    Task,
    TaskOutcome,
    Verdict,
    _read_object,
    _require,
    catalog_tasks,
    evaluate_solver,
    scan_catalog,
    scan_solutions,
)
from .errors import EmptyCatalog, GseeBenchError
from .fcidump import parse_fcidump
from .fermionic import DEFAULT_DF_THRESHOLD
from .fci import solve_ground_state
from .ml.solvability import SAMPLE_BLOCK, SolvabilityConfig, estimate_solvability
from .plots import render_latent_map
from .qubit_features import (
    FEATURE_NAMES,
    SPIN_ORBITAL_ORDERING,
    compute_feature_vector,
    correlation_matrix,
)

log = logging.getLogger(__name__)

HISTOGRAM_BIN_WIDTH = 10
# Latent samples scored per solver.  The cap is reachable: on a 2-core x86
# machine with one BLAS thread, the demo report at 1M samples takes 1.8 s
# at 83 MB peak RSS with 2 latent axes (58 MB of artifacts for its one
# solvability report, nearly all of it the latent-points CSV), and 3.7 s
# at 77 MB with 3 (78 MB, of which the latent map raster is 0.29 MB); each
# more solver costs about that.
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    catalog_dir: Path
    output_dir: Path
    df_threshold: float = DEFAULT_DF_THRESHOLD
    df_absolute: bool = False
    jobs: int = 1
    solvability: SolvabilityConfig = SolvabilityConfig()

    def __post_init__(self):
        # SolvabilityConfig checks its own ranges; these checks need the CLI.
        ml = self.solvability
        if not (np.isfinite(self.df_threshold) and self.df_threshold >= 0.0):
            raise ValueError("df_threshold must be finite and >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        # a latent space has no more axes than the feature table has columns
        if ml.latent_dim > len(FEATURE_NAMES):
            raise ValueError(f"latent_dim must be <= {len(FEATURE_NAMES)}")
        if ml.n_samples > MAX_SAMPLES:
            raise ValueError(f"n_samples must be <= {MAX_SAMPLES}")

    def semantic_hash(self) -> str:
        """Hash of result-affecting settings; paths and job count excluded."""
        skip = ("catalog_dir", "output_dir", "jobs", "solvability")
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}
        payload.update(asdict(self.solvability))
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _header_comment(config: RunConfig) -> str:
    return f"# gsee-bench {__version__} config={config.semantic_hash()}"


@contextlib.contextmanager
def _csv_file(path: Path, config: RunConfig, columns: list[str]):
    """`path` opened for writing, past its header comment and column row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_header_comment(config) + "\n")
        csv.writer(fh, lineterminator="\n").writerow(columns)
        yield fh


def _write_csv(path: Path, config: RunConfig, columns: list[str], rows) -> None:
    """Rows hold strings, ints and Python floats; a cell holding a comma, a
    quote or a line break is quoted."""
    with _csv_file(path, config, columns) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _write_float_csv(path: Path, config: RunConfig, columns: list[str], *arrays) -> None:
    """One float array per column, all of one length, as the table whose
    bytes _write_csv gives its rows of Python floats: each float's repr,
    nothing quoted.  The rows are formatted and written SAMPLE_BLOCK at a
    time, through the handle that wrote the header, and each distinct float
    of a column within a block is formatted once; floats are told apart by
    their bits, so 0.0 and -0.0 keep their own text."""
    arrays = [np.asarray(array, dtype=float) for array in arrays]
    with _csv_file(path, config, columns) as fh:
        for start in range(0, len(arrays[0]), SAMPLE_BLOCK):
            cells = []
            for array in arrays:
                block = array[start:start + SAMPLE_BLOCK]
                bits = block.view(np.int64).tolist()
                text = {key: repr(value) for key, value in dict(zip(bits, block.tolist())).items()}
                cells.append(map(text.__getitem__, bits))
            fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


def _write_json(path: Path, config: RunConfig, payload: dict) -> None:
    payload = {
        "_meta": {
            "tool": f"gsee-bench {__version__}",
            "config": config.semantic_hash(),
            "spin_orbital_ordering": SPIN_ORBITAL_ORDERING,
        },
        **payload,
    }
    path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n", encoding="utf-8")


def _workers(jobs: int, items: int) -> int:
    """Worker processes for `items` items: up to `jobs`, never more than there
    are items, nor than the CPUs this process may run on (a fork pool starts
    all its workers at once)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, items, cpus)


def _inline_map(fn: Callable, work) -> list:
    """The map function of a one-worker _pool: an eager list, computed at the call."""
    return [fn(item) for item in work]


@contextlib.contextmanager
def _pool(jobs: int, items: int):
    """The one pool path: yields the map function that every stage of a
    command calls, map(fn, work) -> fn over work in order, for stages of up
    to `items` items each.  With one worker it is _inline_map.  Otherwise
    every chunk goes to this command's one process pool at the call, about
    four per worker, so that a long list of small items is not sent one
    round trip at a time.  On exit, pending items are cancelled and the
    workers joined, also when the command fails."""
    workers = _workers(jobs, items)
    if workers <= 1:
        yield _inline_map
        return
    executor = futures.ProcessPoolExecutor(max_workers=workers)
    try:
        yield lambda fn, work: executor.map(
            fn, work, chunksize=max(1, len(work) // (4 * workers))
        )
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def _load_solutions(solutions_dir: Path, solver: str | None = None) -> list[SolutionFile]:
    """The solution files under `solutions_dir`; only `solver`'s if one is named."""
    solutions = scan_solutions(solutions_dir)
    if not solutions:
        log.warning("no *.solution.json under %s", solutions_dir)
    if solver is not None and solver not in {s.solver_uuid for s in solutions}:
        raise GseeBenchError(f"no solution file for solver {solver}")
    return [s for s in solutions if solver in (None, s.solver_uuid)]


@contextlib.contextmanager
def _inputs(config: RunConfig, solutions_dir: Path | None = None, solver: str | None = None):
    """A command's inputs, each loaded and checked once: yields (tasks,
    solutions, map).  The catalog is scanned, the solution files are loaded
    when a command takes them, the command's one _pool is opened and, once
    every input check has passed, the output directory is created.  If the
    command then fails, a directory created here that is still empty is
    removed, after the workers are joined; one that existed is never touched."""
    tasks = catalog_tasks(scan_catalog(config.catalog_dir))
    if not tasks:
        raise EmptyCatalog(f"no *.problem.json under {config.catalog_dir}")
    solutions = [] if solutions_dir is None else _load_solutions(solutions_dir, solver)
    out, created = config.output_dir, False
    try:
        with _pool(config.jobs, max(len(tasks), len(solutions))) as pmap:
            created = not out.exists()
            out.mkdir(parents=True, exist_ok=True)
            yield tasks, solutions, pmap
    except BaseException:
        if created and out.is_dir() and not any(out.iterdir()):
            out.rmdir()
        raise


def _succeeded(stage: str, tasks: list[Task], outcomes) -> list[tuple[Task, object]]:
    """The (task, result) pairs of the tasks whose item returned a result;
    an item that returned its exception is logged as the task's failure."""
    pairs = []
    for task, outcome in zip(tasks, outcomes):
        if isinstance(outcome, Exception):
            log.warning("%s failed for task %s: %s", stage, task.task_uuid, outcome)
        else:
            pairs.append((task, outcome))
    return pairs


def _try_features(args: tuple[Task, float, bool]) -> np.ndarray | Exception:
    task, df_threshold, df_absolute = args
    try:
        with open(task.fcidump_path, encoding="utf-8") as fh:
            dump = parse_fcidump(fh)
        return compute_feature_vector(dump, df_threshold, df_absolute)
    except Exception as exc:  # noqa: BLE001 - per-task isolation is the contract
        return exc


def _collect_features(
    config: RunConfig, tasks: list[Task], pmap: Callable
) -> tuple[list[str], np.ndarray]:
    """(task_uuids, table): the tasks whose extraction succeeded, in catalog
    order, and their (n, len(FEATURE_NAMES)) feature table, computed by
    `pmap`, the map function of the command's _pool; failures are logged."""
    work = [(task, config.df_threshold, config.df_absolute) for task in tasks]
    done = _succeeded("features", tasks, pmap(_try_features, work))
    table = np.array([row for _, row in done]).reshape(len(done), len(FEATURE_NAMES))
    return [task.task_uuid for task, _ in done], table


def run_features(
    config: RunConfig, tasks: list[Task], pmap: Callable
) -> tuple[list[str], np.ndarray]:
    """Extract per-task features; write features/correlation/histogram CSVs.
    Returns (task_uuids, table) as `_collect_features` does."""
    task_uuids, table = _collect_features(config, tasks, pmap)

    rows = [[uuid, *row] for uuid, row in zip(task_uuids, table.tolist())]
    _write_csv(config.output_dir / "features.csv", config, ["task_uuid", *FEATURE_NAMES], rows)

    if len(task_uuids) >= 2:
        corr = correlation_matrix(table)
        corr_rows = [[name, *(float(v) for v in corr[i])] for i, name in enumerate(FEATURE_NAMES)]
        _write_csv(
            config.output_dir / "correlation.csv",
            config,
            ["feature", *FEATURE_NAMES],
            corr_rows,
        )
    else:
        log.warning("fewer than 2 feature rows; correlation matrix skipped")

    norbs = [int(n) // 2 for n in table[:, FEATURE_NAMES.index("n_spin_orbitals")]]
    hist_rows = []
    if norbs:
        top = (max(norbs) // HISTOGRAM_BIN_WIDTH + 1) * HISTOGRAM_BIN_WIDTH
        edges = np.arange(0, top + 1, HISTOGRAM_BIN_WIDTH)
        counts, _ = np.histogram(norbs, bins=edges)
        hist_rows = [
            [int(edges[i]), int(edges[i + 1]), int(c)] for i, c in enumerate(counts)
        ]
    _write_csv(
        config.output_dir / "orbital_histogram.csv",
        config,
        ["bin_lo", "bin_hi", "count"],
        hist_rows,
    )
    return task_uuids, table


def run_evaluate(
    config: RunConfig, tasks: list[Task], solutions: list[SolutionFile]
) -> dict[str, list[TaskOutcome]]:
    """Score every solver against the catalog; write per-solver outcome CSVs."""
    summary_rows = []
    outcomes_by_solver: dict[str, list[TaskOutcome]] = {}
    for solution in solutions:
        outcomes, summary = evaluate_solver(tasks, solution)
        outcomes_by_solver[solution.solver_uuid] = outcomes
        rows = [
            [o.task_uuid, o.verdict.value, "" if o.abs_error is None else o.abs_error,
             str(o.within_runtime).lower(), str(o.attempted).lower()]
            for o in outcomes
        ]
        _write_csv(
            config.output_dir / f"outcomes_{solution.solver_uuid}.csv",
            config,
            ["task_uuid", "verdict", "abs_error", "within_runtime", "attempted"],
            rows,
        )
        summary_rows.append(
            [
                solution.solver_uuid,
                solution.solver_short_name,
                summary["tasks_solved"],
                summary["tasks_attempted"],
            ]
        )
    _write_csv(
        config.output_dir / "solver_summary.csv",
        config,
        ["solver_uuid", "solver_short_name", "tasks_solved", "tasks_attempted"],
        summary_rows,
    )
    return outcomes_by_solver


def run_solvability(
    config: RunConfig,
    solution: SolutionFile,
    outcomes: list[TaskOutcome],
    features: tuple[list[str], np.ndarray],
) -> Path:
    """Train the solvability model for one solver on the (task_uuids, table)
    pair of the feature stage and emit report/cloud/map."""
    solver_uuid = solution.solver_uuid
    task_uuids, table = features
    verdict_by_task = {o.task_uuid: o.verdict for o in outcomes}
    verdicts = [verdict_by_task[uuid] for uuid in task_uuids]
    labels = [None if v is Verdict.UNLABELED else v is Verdict.SOLVED for v in verdicts]

    report = estimate_solvability(table, labels, config.solvability, feature_names=FEATURE_NAMES)

    report_path = config.output_dir / f"solvability_{solver_uuid}.json"
    cloud_name = f"latent_points_{solver_uuid}.csv"
    _write_json(report_path, config, {**report.to_dict(), "latent_points_file": cloud_name})

    latent_cols = [f"latent_{i}" for i in range(report.latent_dim)]
    _write_float_csv(
        config.output_dir / cloud_name,
        config,
        [*latent_cols, "probability"],
        *report.latent_points.T,
        report.probabilities,
    )
    train_rows = [
        [uuid, *map(float, row[:2]), "" if lab is None else str(bool(lab)).lower()]
        for uuid, row, lab in zip(task_uuids, report.training_embedding, report.training_labels)
    ]
    _write_csv(
        config.output_dir / f"training_points_{solver_uuid}.csv",
        config,
        ["task_uuid", "latent_0", "latent_1", "solved"],
        train_rows,
    )

    svg = render_latent_map(report, f"{solution.solver_short_name} solvability")
    svg_path = config.output_dir / f"latent_map_{solver_uuid}.svg"
    svg_path.write_text(
        svg.replace("<!--", f"<!-- {_header_comment(config)[2:]} |", 1), encoding="utf-8"
    )
    return report_path


def _try_oracle(task: Task) -> dict | Exception:
    try:
        with open(task.fcidump_path, encoding="utf-8") as fh:
            dump = parse_fcidump(fh)
        spectrum, dim = solve_ground_state(dump, k=2)
    except Exception as exc:  # noqa: BLE001 - per-task isolation
        return exc
    return {
        "task_uuid": task.task_uuid,
        "e0": spectrum.energies[0],
        "e1": spectrum.energies[1] if len(spectrum.energies) > 1 else None,
        "gap": spectrum.gap,
        "dim": dim,
        "converged": spectrum.converged,
    }


def run_oracle(
    config: RunConfig, tasks: list[Task] | None = None, pmap: Callable | None = None
) -> Path:
    """Exact ground-state energies for every oracle-sized task, computed by
    `pmap`, the map function of the command's _pool; a bare call loads its own."""
    if pmap is None:
        with _inputs(config) as (tasks, _, pmap):
            return run_oracle(config, tasks, pmap)
    entries = [entry for _, entry in _succeeded("oracle", tasks, pmap(_try_oracle, tasks))]
    path = config.output_dir / "oracle.json"
    _write_json(path, config, {"results": entries})
    return path


def _try_solvability(args) -> str | None:
    config, solution, outcomes, features = args
    try:
        run_solvability(config, solution, outcomes, features)
    except GseeBenchError as exc:  # one solver's data error skips that solver only
        return f"solvability skipped for {solution.solver_uuid}: {exc}"
    return None


def run_report(config: RunConfig, solutions_dir: Path) -> None:
    """Bundle features, evaluation, solvability per solver, and the oracle.

    The catalog and the solution files are loaded once and every stage works
    on them; features are computed once and shared, solvability runs per
    solver (each solver writing its own files) and the oracle per task.  With
    more than one worker, one pool serves every stage: it gets the feature
    chunks, then the solvability items and, without waiting for those, the
    oracle chunks, so the oracle fills a worker that the solvers leave idle.
    With one worker every stage runs inline, the oracle before the solvers:
    the oracle's eigensolver scratch is then freed before the solvers' heap
    grows, where in the other order it would land on top of that heap and
    raise the process's peak.
    """
    with _inputs(config, solutions_dir) as (tasks, solutions, pmap):
        features = run_features(config, tasks, pmap)
        outcomes = run_evaluate(config, tasks, solutions)
        inline = pmap is _inline_map
        if inline:
            run_oracle(config, tasks, pmap)
        work = [(config, s, outcomes[s.solver_uuid], features) for s in solutions]
        notes = pmap(_try_solvability, work)
        if not inline:
            run_oracle(config, tasks, pmap)
        for note in notes:
            if note:
                log.warning("%s", note)


# The run settings, one row each: config-file key -> (field of RunConfig or of
# its SolvabilityConfig, JSON type, help text).  Each key is also a global
# flag, "--" + key with "_" as "-"; a bool setting is a switch.
_SETTINGS = {
    "catalog": ("catalog_dir", str, "catalog directory"),
    "out": ("output_dir", str, "output directory"),
    "df_threshold": ("df_threshold", float, "DF eigenvalue cutoff"),
    "df_absolute": ("df_absolute", bool, "treat --df-threshold as an absolute Hartree cutoff"),
    "latent": ("latent", str, "latent space kind: pca or nnmf"),
    "latent_dim": ("latent_dim", int, "latent dimension"),
    "samples": ("n_samples", int, "latent sample count"),
    "threshold": ("threshold", float, "probability threshold"),
    "seed": ("seed", int, "random seed"),
    "jobs": ("jobs", int, "worker count"),
}


class _Parser(argparse.ArgumentParser):
    """A usage error raises GseeBenchError (one log line, exit 1) instead of
    printing the usage and exiting 2; subcommand parsers inherit this."""

    def error(self, message):
        raise GseeBenchError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsee-bench",
        description="Benchmark harness for ground-state energy estimation solvers",
    )
    parser.add_argument("--config", type=Path, help="JSON config file (flags override)")
    for key, (_, kind, text) in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, action="store_true", default=None, help=text)
        else:
            parser.add_argument(flag, type=kind, help=text)
    parser.add_argument("-v", "--verbose", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("features", help="extract the feature table")
    p_eval = sub.add_parser("evaluate", help="score solution files")
    p_eval.add_argument("--solutions", type=Path, required=True)
    p_solv = sub.add_parser("solvability", help="solvability report for one solver")
    p_solv.add_argument("--solutions", type=Path, required=True)
    p_solv.add_argument("--solver", required=True, help="solver uuid")
    sub.add_parser("oracle", help="exact reference energies for small tasks")
    p_rep = sub.add_parser("report", help="run every stage")
    p_rep.add_argument("--solutions", type=Path, required=True)
    return parser


def _make_config(args: argparse.Namespace) -> RunConfig:
    settings: dict = {}
    if args.config is not None:
        where = f"config {args.config}"
        file_conf = _read_object(args.config, where)
        unknown = sorted(set(file_conf) - set(_SETTINGS))
        if unknown:
            raise GseeBenchError(f"{where}: unknown keys {', '.join(unknown)}")
        for key in file_conf:
            attr, kind, _ = _SETTINGS[key]
            settings[attr] = _require(file_conf, key, kind, where)
    for key, (attr, _, _) in _SETTINGS.items():
        value = getattr(args, key, None)
        if value is not None:
            settings[attr] = value
    if "catalog_dir" not in settings or "output_dir" not in settings:
        raise GseeBenchError("--catalog and --out are required (flag or config file)")
    settings["catalog_dir"] = Path(settings["catalog_dir"])
    settings["output_dir"] = Path(settings["output_dir"])
    ml = [f.name for f in fields(SolvabilityConfig) if f.name in settings]
    solvability = SolvabilityConfig(**{name: settings.pop(name) for name in ml})
    return RunConfig(**settings, solvability=solvability)


def _configure_logging(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except GseeBenchError as exc:
        _configure_logging(False)
        log.error("%s", exc)
        return 1
    _configure_logging(args.verbose)
    try:
        config = _make_config(args)
        if args.command == "report":
            run_report(config, args.solutions)
        else:
            solutions_dir, solver = getattr(args, "solutions", None), getattr(args, "solver", None)
            with _inputs(config, solutions_dir, solver) as (tasks, solutions, pmap):
                if args.command == "features":
                    run_features(config, tasks, pmap)
                elif args.command == "evaluate":
                    run_evaluate(config, tasks, solutions)
                elif args.command == "solvability":
                    (solution,) = solutions
                    outcomes, _ = evaluate_solver(tasks, solution)
                    features = _collect_features(config, tasks, pmap)
                    run_solvability(config, solution, outcomes, features)
                else:
                    run_oracle(config, tasks, pmap)
    except (GseeBenchError, OSError, OverflowError, ValueError) as exc:
        log.error("%s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
