"""Correctness gate over one report's artifact set.

`check_report` compares the artifacts against the workload manifest (the
generator's closed-form values and planted counts) and returns the problems
found plus the failed-operation count. The base of that count is
2 x tasks + solvers: a task's feature row, its oracle entry, and one
solvability report per planted two-class solver.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

CLOSED_FORM_TOL = 1e-9  # log10 determinant count; the others are exact integers
VARIATIONAL_TOL = 1e-9  # Hartree; e0 may not exceed the single-determinant energy
DEMO_TOL = 1e-8  # Hartree; oracle against the demo catalog's stored references


class GateError(Exception):
    pass


def _reject_constant(name: str):
    raise GateError(f"non-finite JSON number {name}")


def strict_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def read_csv(path: Path) -> list[dict]:
    """Rows of an artifact CSV; the first line must be the tool's comment."""
    text = path.read_text(encoding="utf-8")
    if not text.startswith("# gsee-bench "):
        raise GateError(f"{path.name}: missing header comment")
    rows = list(csv.DictReader(io.StringIO(text.split("\n", 1)[1])))
    for row in rows:
        for key, cell in row.items():
            if cell.lower() in ("nan", "inf", "-inf"):
                raise GateError(f"{path.name}: non-finite value in column {key}")
    return rows


def artifact_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def expected_artifacts(solver_uuids) -> list[str]:
    names = ["features.csv", "correlation.csv", "orbital_histogram.csv",
             "solver_summary.csv", "oracle.json"]
    for s in solver_uuids:
        names += [f"outcomes_{s}.csv", f"solvability_{s}.json", f"latent_points_{s}.csv",
                  f"training_points_{s}.csv", f"latent_map_{s}.svg"]
    return names


def _parse_all(out_dir: Path, manifest: dict, problems: list[str]) -> dict:
    """Parse every expected artifact that exists; note the missing or broken."""
    parsed = {}
    two_class = [s for s, info in manifest["solvers"].items() if info["two_class"]]
    for name in expected_artifacts(manifest["solvers"]):
        path = out_dir / name
        if not path.exists():
            if not name.startswith("solvability_") or name[12:-5] in two_class:
                problems.append(f"missing artifact {name}")
            continue
        try:
            if name.endswith(".csv"):
                parsed[name] = read_csv(path)
            elif name.endswith(".json"):
                parsed[name] = strict_json(path)
            else:
                parsed[name] = ET.fromstring(path.read_text(encoding="utf-8"))
        except (GateError, ValueError, ET.ParseError) as exc:
            problems.append(f"{name} does not parse: {exc}")
    return parsed


def check_report(out_dir: Path, manifest: dict) -> tuple[list[str], int]:
    problems: list[str] = []
    parsed = _parse_all(out_dir, manifest, problems)
    tasks = {t["task_uuid"]: t for t in manifest["tasks"]}
    failed = 0

    def dims(task: dict) -> int:
        return math.comb(task["norb"], task["n_alpha"]) * math.comb(task["norb"], task["n_beta"])

    with _malformed(problems, "features.csv"):
        features = {row["task_uuid"]: row for row in parsed.get("features.csv", [])}
        failed += sum(uuid not in features for uuid in tasks)
        if len(parsed.get("features.csv", [])) != len(tasks) or set(features) != set(tasks):
            problems.append(f"features.csv has {len(features)} rows for {len(tasks)} tasks")
        for uuid, row in features.items():
            task = tasks.get(uuid)
            if task is None:
                continue
            with _malformed(problems, f"features.csv {uuid}"):
                expected = {"n_elec": task["nelec"], "n_spin_orbitals": 2 * task["norb"],
                            "n_qubits": 2 * task["norb"]}
                for column, value in expected.items():
                    if float(row[column]) != value:
                        problems.append(f"features.csv {uuid} {column}={row[column]}, "
                                        f"expected {value}")
                if abs(float(row["log_fci_size"]) - math.log10(dims(task))) > CLOSED_FORM_TOL:
                    problems.append(f"features.csv {uuid} log_fci_size={row['log_fci_size']}")

    summary = {}
    with _malformed(problems, "solver_summary.csv"):
        summary = {row["solver_uuid"]: row for row in parsed.get("solver_summary.csv", [])}
    for solver, info in manifest["solvers"].items():
        with _malformed(problems, f"solver_summary.csv {solver}"):
            row = summary.get(solver)
            got = None if row is None else (int(row["tasks_solved"]), int(row["tasks_attempted"]))
            if got != (info["tasks_solved"], info["tasks_attempted"]):
                problems.append(f"solver_summary.csv {solver}: {got}, planted "
                                f"{(info['tasks_solved'], info['tasks_attempted'])}")
        outcomes = parsed.get(f"outcomes_{solver}.csv")
        if outcomes is not None and len(outcomes) != len(tasks):
            problems.append(f"outcomes_{solver}.csv has {len(outcomes)} rows")
        if info["two_class"] and f"solvability_{solver}.json" not in parsed:
            failed += 1

    entries = {}
    with _malformed(problems, "oracle.json"):
        entries = {e["task_uuid"]: e for e in parsed.get("oracle.json", {}).get("results", [])}
    for uuid, task in tasks.items():
        entry = entries.get(uuid)
        if entry is None:
            failed += 1
            continue
        failed += not entry.get("converged")
        if "converged" not in entry:
            problems.append(f"oracle.json {uuid} has no converged flag")
        with _malformed(problems, f"oracle.json {uuid}"):
            if entry["dim"] != dims(task):
                problems.append(f"oracle.json {uuid} dim={entry['dim']}, expected {dims(task)}")
            if entry["e1"] is not None and not entry["e0"] <= entry["e1"]:
                problems.append(f"oracle.json {uuid} e0 > e1")
            if task["reference"] is not None and entry["e0"] > task["reference"] + VARIATIONAL_TOL:
                problems.append(f"oracle.json {uuid} e0={entry['e0']} above reference "
                                f"{task['reference']}")
    problems += [f"oracle.json has unknown task {uuid}" for uuid in entries if uuid not in tasks]
    return problems, failed


@contextlib.contextmanager
def _malformed(problems: list[str], where: str):
    """Record a row or file whose fields are missing or of the wrong type."""
    try:
        yield
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        problems.append(f"{where} is malformed: {exc!r}")


def check_demo_oracle(root: Path, out_dir: Path) -> list[str]:
    """The oracle must reproduce demo/catalog's reference energies."""
    from gsee_bench.catalog import catalog_tasks, scan_catalog
    from gsee_bench.cli import RunConfig, run_oracle

    catalog = root / "demo" / "catalog"
    run_oracle(RunConfig(catalog_dir=catalog, output_dir=out_dir))
    e0 = {e["task_uuid"]: e["e0"] for e in strict_json(out_dir / "oracle.json")["results"]}
    problems = []
    for task in catalog_tasks(scan_catalog(catalog)):
        if task.reference_energy is None:
            continue
        got = e0.get(task.task_uuid)
        if got is None or abs(got - task.reference_energy) > DEMO_TOL:
            problems.append(f"demo oracle {task.task_uuid}: {got} vs {task.reference_energy}")
    return problems
