"""Seeded benchmark catalogs with planted solver outcomes.

Each workload is a catalog of random FCIDUMP tasks (built with the demo
generator's `random_fcidump`) plus solution files from planted solvers. A
planted solver reports the task's reference energy exactly when a rule on
the generator's inputs says "solved" and the reference + 5 mHa otherwise; a
few labels are flipped so every solver has both classes. References are the
lowest single-determinant energy, computed here in numpy: a variational upper
bound on the exact ground-state energy, so set-up needs no oracle call.

`generate` writes the catalog and returns a manifest with every value the
correctness gate checks against.
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "demo")]

from generate import random_fcidump  # noqa: E402  (demo/generate.py)
from gsee_bench.fcidump import FciDump, write_fcidump  # noqa: E402

UNSOLVED_SHIFT = 5.0e-3  # Hartree; well outside the 1.59 mHa default tolerance
RUNTIME_LIMIT = 60.0


@dataclass(frozen=True)
class TaskSpec:
    norb: int
    nelec: int
    ms2: int
    labeled: bool
    scale: float = 1.0


# A rule maps a task to "solved" before label flipping.
Rule = Callable[[TaskSpec], bool]

RULES: dict[str, Rule] = {
    "size": lambda t: t.nelec <= t.norb,
    "scale": lambda t: t.scale < 1.0,
    "mix": lambda t: t.norb * t.scale < 3.5,
}


@dataclass(frozen=True)
class Workload:
    """How a workload's catalog is built; its "why" is in BENCHMARK.json."""

    name: str
    jobs: int
    tasks_per_instance: int
    solvers: tuple[str, ...]  # rule names, one planted solver each
    flip_frac: float
    layout: Callable[[np.random.Generator, bool], list[TaskSpec]]


def _sectors(norb: int) -> list[tuple[int, int]]:
    """Every (nelec, ms2 >= 0) sector of norb orbitals, ms2 at most 2 above
    its minimum, with at least two determinants."""
    out = []
    for nelec in range(1, 2 * norb):
        for ms2 in (nelec % 2, nelec % 2 + 2):
            n_alpha, n_beta = (nelec + ms2) // 2, (nelec - ms2) // 2
            if n_beta < 0 or n_alpha > norb:
                continue
            if math.comb(norb, n_alpha) * math.comb(norb, n_beta) > 1:
                out.append((nelec, ms2))
    return out


def _stratified_scales(rng: np.random.Generator, n: int) -> np.ndarray:
    """One scale in each of n equal slices of [0.5, 2), shuffled."""
    scales = 0.5 + 1.5 * (np.arange(n) + rng.random(n)) / n
    rng.shuffle(scales)
    return scales


def _group(rng: np.random.Generator, norb_counts: dict[int, int], labeled: bool) -> list[TaskSpec]:
    """Tasks with the same mix of shapes and scale slices for every seed, so
    that the seed changes the integrals and the order but not the amount of
    work or the class balance."""
    shapes = []
    for norb, count in norb_counts.items():
        sectors = _sectors(norb)
        shapes += [(norb, *sectors[i % len(sectors)]) for i in range(count)]
    scales = _stratified_scales(rng, len(shapes))
    order = rng.permutation(len(shapes))
    return [TaskSpec(*shapes[j], labeled, float(scale)) for j, scale in zip(order, scales)]


def _big_layout(rng: np.random.Generator, toy: bool) -> list[TaskSpec]:
    # One norb-8 task (3136 determinants > DENSE_CUTOFF) so Davidson runs.
    sectors = [(4, 4, 0), (4, 3, 1), (4, 5, 1), (4, 4, 2), (4, 2, 0), (4, 6, 0),
               (5, 5, 1), (5, 4, 2), (5, 6, 0), (5, 3, 1), (6, 6, 0)]
    sectors = sectors[:10] if toy else [(8, 6, 0)] + sectors
    scales = _stratified_scales(rng, len(sectors))
    return [TaskSpec(*sector, True, float(scale)) for sector, scale in zip(sectors, scales)]


def _wide_layout(rng: np.random.Generator, toy: bool) -> list[TaskSpec]:
    # Every tenth task is labeled; the rest are guidestars.
    labeled = _group(rng, {2: 8, 3: 4} if toy else {2: 28, 3: 12}, labeled=True)
    guidestars = _group(rng, {2: 76, 3: 32} if toy else {2: 252, 3: 108}, labeled=False)
    guidestars.reverse()
    return [labeled[i // 10] if i % 10 == 0 else guidestars.pop()
            for i in range(len(labeled) + len(guidestars))]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "big-hamiltonians",
            jobs=1, tasks_per_instance=3, solvers=("size", "scale"),
            flip_frac=0.1, layout=_big_layout,
        ),
        Workload(
            "wide-catalog",
            jobs=2, tasks_per_instance=4, solvers=("size", "scale", "mix"),
            flip_frac=0.05, layout=_wide_layout,
        ),
    )
}


def lowest_determinant_energy(dump: FciDump) -> float:
    """Minimum diagonal element of the FCI matrix (Slater-Condon rules)."""
    norb = dump.norb
    eri = dump.two_body_tensor()
    coulomb = np.einsum("iijj->ij", eri)
    exchange = np.einsum("ijji->ij", eri)
    h_diag = np.diag(dump.h1)

    def string_energies(n_occ: int) -> tuple[np.ndarray, np.ndarray]:
        occ = np.zeros((math.comb(norb, n_occ), norb))
        for row, orbitals in enumerate(combinations(range(norb), n_occ)):
            occ[row, list(orbitals)] = 1.0
        same_spin = 0.5 * np.einsum("si,ij,sj->s", occ, coulomb - exchange, occ)
        return occ, occ @ h_diag + same_spin

    occ_a, e_a = string_energies(dump.n_alpha)
    occ_b, e_b = string_energies(dump.n_beta)
    total = e_a[:, None] + e_b[None, :] + occ_a @ coulomb @ occ_b.T
    return float(dump.e_core + total.min())


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _planted_labels(
    rng: np.random.Generator, tasks: list[TaskSpec], rule: Rule, flip_frac: float
) -> list[bool | None]:
    labels = [rule(t) if t.labeled else None for t in tasks]
    labeled = [i for i, t in enumerate(tasks) if t.labeled]
    for i in rng.choice(labeled, round(flip_frac * len(labeled)), replace=False):
        labels[i] = not labels[i]
    # Flip a few more until both classes are present.
    for i in labeled:
        if len({labels[j] for j in labeled}) == 2:
            break
        labels[i] = not labels[i]
    return labels


def generate(workload: Workload, seed: int, root: Path, toy: bool = False) -> dict:
    """Write `root/catalog` and `root/solutions`; return the manifest."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    specs = workload.layout(rng, toy)
    catalog = root / "catalog"
    solutions = root / "solutions"
    catalog.mkdir(parents=True)
    solutions.mkdir(parents=True)

    tasks = []  # manifest rows, catalog order
    energies = []  # reference (or single-determinant energy for guidestars)
    for start in range(0, len(specs), workload.tasks_per_instance):
        inst_uuid = f"inst-{start // workload.tasks_per_instance:04d}"
        inst_dir = catalog / inst_uuid
        inst_dir.mkdir()
        entries = []
        for index in range(start, min(start + workload.tasks_per_instance, len(specs))):
            spec = specs[index]
            raw = random_fcidump(rng, spec.norb, spec.nelec, spec.ms2)
            dump = FciDump.from_tensors(
                spec.norb, spec.nelec, spec.ms2, raw.e_core * spec.scale,
                raw.h1 * spec.scale, raw.two_body_tensor() * spec.scale,
            )
            task_uuid = f"task-{index:05d}"
            (inst_dir / f"{task_uuid}.fcidump").write_text(write_fcidump(dump), encoding="utf-8")
            energy = lowest_determinant_energy(dump)
            entry = {
                "task_uuid": task_uuid,
                "fcidump_path": f"{task_uuid}.fcidump",
                "runtime_limit": RUNTIME_LIMIT,
            }
            if spec.labeled:
                entry["reference_energy"] = energy
            entries.append(entry)
            energies.append(energy)
            tasks.append({
                "task_uuid": task_uuid,
                "norb": spec.norb,
                "nelec": spec.nelec,
                "n_alpha": (spec.nelec + spec.ms2) // 2,
                "n_beta": (spec.nelec - spec.ms2) // 2,
                "reference": energy if spec.labeled else None,
            })
        _write_json(
            inst_dir / f"{inst_uuid}.problem.json",
            {"instance_uuid": inst_uuid, "short_name": inst_uuid, "tasks": entries},
        )

    solvers = {}
    for index, rule_name in enumerate(workload.solvers):
        labels = _planted_labels(rng, specs, RULES[rule_name], workload.flip_frac)
        solver_uuid = f"planted-{index:02d}-{rule_name}"
        results = [
            {
                "task_uuid": task["task_uuid"],
                "energy": energy + (0.0 if label in (True, None) else UNSOLVED_SHIFT),
                "run_time": 1.0,
            }
            for task, energy, label in zip(tasks, energies, labels)
        ]
        _write_json(
            solutions / f"{solver_uuid}.solution.json",
            {"solver_uuid": solver_uuid, "solver_short_name": f"planted {rule_name} rule",
             "results": results},
        )
        n_labeled = sum(label is not None for label in labels)
        solved = sum(label is True for label in labels)
        solvers[solver_uuid] = {
            "tasks_solved": solved,
            "tasks_attempted": len(tasks),
            "two_class": n_labeled >= 10 and 0 < solved < n_labeled,
        }
    return {"workload": workload.name, "seed": seed, "jobs": workload.jobs,
            "tasks": tasks, "solvers": solvers}
