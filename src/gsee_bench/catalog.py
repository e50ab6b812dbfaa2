"""Problem-instance and solution-file loading, validation, and scoring.

Instances are `*.problem.json` files (FCIDUMP paths resolved relative to the
instance file); solutions are `*.solution.json` files.  A task is Solved when
it was attempted, the energy error is within the task's accuracy tolerance,
and the runtime is within its limit.  Guidestar tasks carry no reference
energy and always score Unlabeled; unattempted non-guidestar tasks score
Unsolved, with attemptedness kept as metadata.
"""

from __future__ import annotations

import enum
import json
import logging
import math
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DuplicateTaskUuid, SchemaViolation, TaskMismatch

log = logging.getLogger(__name__)

# 1 kcal/mol in Hartree; the default accuracy requirement ("chemical accuracy").
DEFAULT_ACCURACY_TOL = 1.59e-3
# Per-task runtime limits are expected in the files; this fallback is 24 hours.
DEFAULT_RUNTIME_LIMIT = 86_400.0


class Verdict(str, enum.Enum):
    SOLVED = "solved"
    UNSOLVED = "unsolved"
    UNLABELED = "unlabeled"


@dataclass(frozen=True)
class Task:
    task_uuid: str
    fcidump_path: Path
    accuracy_tol: float = DEFAULT_ACCURACY_TOL
    runtime_limit: float = DEFAULT_RUNTIME_LIMIT
    reference_energy: float | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def is_guidestar(self) -> bool:
        """A task without a reference energy; it is scored UNLABELED."""
        return self.reference_energy is None


@dataclass(frozen=True)
class ProblemInstance:
    instance_uuid: str
    short_name: str
    tasks: tuple[Task, ...]
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolutionResult:
    task_uuid: str
    energy: float | None
    run_time: float | None
    attempted: bool = True


@dataclass(frozen=True)
class SolutionFile:
    solver_uuid: str
    solver_short_name: str
    results: tuple[SolutionResult, ...]
    extra: dict = field(default_factory=dict)

    def by_task(self) -> dict[str, SolutionResult]:
        return {r.task_uuid: r for r in self.results}


@dataclass(frozen=True)
class TaskOutcome:
    task_uuid: str
    verdict: Verdict
    abs_error: float | None
    within_runtime: bool
    attempted: bool = False


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise SchemaViolation(f"{where}: missing required field {key!r}")
    value = obj[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            exact = float(value) == value  # past 2**53 the int has no exact float
        except OverflowError:  # past the largest float
            exact = False
        if not exact:
            raise SchemaViolation(f"{where}: field {key!r} is an integer with no exact float")
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise SchemaViolation(f"{where}: field {key!r} has wrong type {type(value).__name__}")
    return value


# The code points outside XML 1.0's Char production.  A name or ID reaches the
# SVG and CSV artifacts, and a lone surrogate cannot even be encoded as UTF-8.
# Listed as a positive class: the negated one takes about 10x longer to compile.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_text(value: str, key: str, where: str) -> str:
    if _NOT_XML_CHAR.search(value):
        raise SchemaViolation(f"{where}: {key} {value!r} holds a control character "
                              "or another code point outside XML 1.0's Char")
    return value


def _require_text(obj: dict, key: str, where: str) -> str:
    return _check_text(_require(obj, key, str, where), key, where)


def _optional_number(obj: dict, key: str, where: str, default=None) -> float | None:
    if key not in obj or obj[key] is None:
        return default
    value = _require(obj, key, float, where)
    if not math.isfinite(value):  # json.load accepts NaN and Infinity
        raise SchemaViolation(f"{where}: field {key!r} must be finite, got {value}")
    return value


def _parse_task(obj: dict, base_dir: Path, where: str) -> Task:
    if not isinstance(obj, dict):
        raise SchemaViolation(f"{where}: task entry is not an object")
    task_uuid = _require_text(obj, "task_uuid", where)
    fcidump_path = _require(obj, "fcidump_path", str, where)
    accuracy_tol = _optional_number(obj, "accuracy_tol", where, DEFAULT_ACCURACY_TOL)
    if accuracy_tol <= 0:
        raise SchemaViolation(f"{where}: accuracy_tol must be > 0")
    runtime_limit = _optional_number(obj, "runtime_limit", where, DEFAULT_RUNTIME_LIMIT)
    if runtime_limit <= 0:
        raise SchemaViolation(f"{where}: runtime_limit must be > 0")
    reference_energy = _optional_number(obj, "reference_energy", where)
    is_guidestar = obj.get("is_guidestar", reference_energy is None)
    if not isinstance(is_guidestar, bool):
        raise SchemaViolation(f"{where}: is_guidestar must be a boolean")
    if is_guidestar != (reference_energy is None):
        raise SchemaViolation(
            f"{where}: is_guidestar must hold exactly when reference_energy is absent"
        )
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaViolation(f"{where}: metadata must be an object")
    return Task(
        task_uuid=task_uuid,
        fcidump_path=base_dir / fcidump_path,
        accuracy_tol=accuracy_tol,
        runtime_limit=runtime_limit,
        reference_energy=reference_energy,
        metadata=metadata,
    )


def _check_unique(ids: Iterable[str], fault: Callable[[int, str], Exception]) -> None:
    """The one uniqueness check of catalog IDs: raise fault(i, id) at the
    first ID that repeats an earlier one, i its position in `ids`."""
    seen: set[str] = set()
    for i, key in enumerate(ids):
        if key in seen:
            raise fault(i, key)
        seen.add(key)


def _read_object(path: str | Path, where: str) -> dict:
    """Parse a JSON file whose top level must be an object."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise SchemaViolation(f"{where}: nests too deeply") from None
    if not isinstance(obj, dict):
        raise SchemaViolation(f"{where}: top level is not an object")
    return obj


_INSTANCE_KEYS = {"instance_uuid", "short_name", "tasks"}
_SOLUTION_KEYS = {"solver_uuid", "solver_short_name", "results"}


def load_instance(path: str | Path) -> ProblemInstance:
    """Load and validate one problem-instance file."""
    path = Path(path)
    where = path.name
    obj = _read_object(path, where)
    instance_uuid = _require_text(obj, "instance_uuid", where)
    short_name = _require_text(obj, "short_name", where)
    raw_tasks = _require(obj, "tasks", list, where)
    if not raw_tasks:
        raise SchemaViolation(f"{where}: an instance needs at least one task")
    # Resolved once per instance; a task's relative name is joined to it as
    # written, and the OS resolves what it holds when the file is opened.
    base_dir = path.parent.resolve()
    tasks = tuple(
        _parse_task(t, base_dir, f"{where} task[{i}]") for i, t in enumerate(raw_tasks)
    )
    _check_unique((task.task_uuid for task in tasks),
                  lambda _, uuid: DuplicateTaskUuid(f"{where}: duplicate task_uuid {uuid}"))
    extra = {k: v for k, v in obj.items() if k not in _INSTANCE_KEYS}
    return ProblemInstance(instance_uuid, short_name, tasks, extra)


def load_solution(path: str | Path) -> SolutionFile:
    """Load and validate one solution file."""
    path = Path(path)
    where = path.name
    obj = _read_object(path, where)
    solver_uuid = _require(obj, "solver_uuid", str, where)
    # The ID names output files, so it must be one plain path component.
    if solver_uuid in ("", ".", "..") or any(c in solver_uuid for c in "/\\\0"):
        raise SchemaViolation(f"{where}: solver_uuid {solver_uuid!r} is not a plain file name")
    _check_text(solver_uuid, "solver_uuid", where)
    solver_short_name = _require_text(obj, "solver_short_name", where)
    raw_results = _require(obj, "results", list, where)
    results = []
    for i, entry in enumerate(raw_results):
        place = f"{where} results[{i}]"
        if not isinstance(entry, dict):
            raise SchemaViolation(f"{place}: entry is not an object")
        task_uuid = _require(entry, "task_uuid", str, place)
        attempted = entry.get("attempted", True)
        if not isinstance(attempted, bool):
            raise SchemaViolation(f"{place}: attempted must be a boolean")
        energy = _optional_number(entry, "energy", place)
        run_time = _optional_number(entry, "run_time", place)
        if attempted:
            if energy is None:
                raise SchemaViolation(f"{place}: attempted result needs an energy")
            if run_time is None or run_time < 0:
                raise SchemaViolation(f"{place}: attempted result needs run_time >= 0")
        results.append(SolutionResult(task_uuid, energy, run_time, attempted))
    _check_unique((r.task_uuid for r in results), lambda i, uuid: DuplicateTaskUuid(
        f"{where} results[{i}]: duplicate task_uuid {uuid}"))
    extra = {k: v for k, v in obj.items() if k not in _SOLUTION_KEYS}
    return SolutionFile(solver_uuid, solver_short_name, tuple(results), extra)


def evaluate_task(task: Task, result: SolutionResult | None) -> TaskOutcome:
    """Score one (task, result) pair; result=None means the solver skipped it."""
    if result is not None and result.task_uuid != task.task_uuid:
        raise TaskMismatch(f"result {result.task_uuid} scored against task {task.task_uuid}")
    attempted = bool(result is not None and result.attempted)
    within_runtime = bool(
        attempted and result.run_time is not None and result.run_time <= task.runtime_limit
    )
    if task.is_guidestar:
        return TaskOutcome(task.task_uuid, Verdict.UNLABELED, None, within_runtime, attempted)
    abs_error = None
    if attempted and result.energy is not None and task.reference_energy is not None:
        # two finite energies can differ by more than the float maximum:
        # such an error is left blank, as for an unattempted task
        error = abs(result.energy - task.reference_energy)
        abs_error = error if math.isfinite(error) else None
    solved = abs_error is not None and abs_error <= task.accuracy_tol and within_runtime
    verdict = Verdict.SOLVED if solved else Verdict.UNSOLVED
    return TaskOutcome(task.task_uuid, verdict, abs_error, within_runtime, attempted)


def scan_catalog(root: str | Path) -> list[ProblemInstance]:
    """Recursively load every `*.problem.json` under root, in path order."""
    root = Path(root)
    instances = [load_instance(p) for p in sorted(root.rglob("*.problem.json"))]
    _check_unique((inst.instance_uuid for inst in instances),
                  lambda _, uuid: SchemaViolation(f"duplicate instance_uuid {uuid}"))
    _check_unique((task.task_uuid for task in catalog_tasks(instances)), lambda _, uuid:
                  DuplicateTaskUuid(f"task_uuid {uuid} appears in more than one instance"))
    return instances


def scan_solutions(root: str | Path) -> list[SolutionFile]:
    """Recursively load every `*.solution.json` under root, in path order; no
    two files may share a solver_uuid."""
    root = Path(root)
    solutions = [load_solution(p) for p in sorted(root.rglob("*.solution.json"))]
    _check_unique((s.solver_uuid for s in solutions),
                  lambda _, uuid: SchemaViolation(f"duplicate solver_uuid {uuid} in {root}"))
    return solutions


def catalog_tasks(instances: list[ProblemInstance]) -> list[Task]:
    return [task for inst in instances for task in inst.tasks]


def evaluate_solver(
    tasks: list[Task], solution: SolutionFile
) -> tuple[list[TaskOutcome], dict[str, int]]:
    """Outcomes for every catalog task plus Table-style summary counts.

    Solution entries whose task_uuid matches no catalog task are logged and
    skipped; catalog tasks without an entry are scored as unattempted.
    """
    by_task = solution.by_task()
    known = {t.task_uuid for t in tasks}
    for orphan in sorted(set(by_task) - known):
        log.warning("solver %s: unknown task_uuid %s ignored", solution.solver_uuid, orphan)
    outcomes = [evaluate_task(task, by_task.get(task.task_uuid)) for task in tasks]
    summary = {
        "tasks_attempted": sum(1 for o in outcomes if o.attempted),
        "tasks_solved": sum(1 for o in outcomes if o.verdict is Verdict.SOLVED),
    }
    return outcomes, summary
