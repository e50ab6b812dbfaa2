import csv
import dataclasses
import importlib
import json
import multiprocessing
import shutil
import warnings
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsee_bench import cli, qubit_features
from gsee_bench.catalog import catalog_tasks, scan_catalog, scan_solutions
from gsee_bench.cli import RunConfig, main, run_evaluate, run_features, run_oracle
from gsee_bench.errors import GseeBenchError
from gsee_bench.ml import SolvabilityConfig
from gsee_bench.qubit_features import FEATURE_NAMES

DEMO = Path(__file__).parent.parent / "demo"
CATALOG = DEMO / "catalog"
SOLUTIONS = DEMO / "solutions"


def tasks_in(catalog: Path):
    return catalog_tasks(scan_catalog(catalog))


def features_of(config: RunConfig):
    """run_features on the inputs and in the pool of a features command."""
    with cli._inputs(config) as (tasks, _, pmap):
        return run_features(config, tasks, pmap)


def read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# gsee-bench")
    return [line.split(",") for line in lines[1:]]


def test_features_csv_shape(tmp_path):
    config = RunConfig(CATALOG, tmp_path)
    features_of(config)
    rows = read_rows(tmp_path / "features.csv")
    header, data = rows[0], rows[1:]
    assert header == ["task_uuid", *FEATURE_NAMES]
    assert len(data) == 12
    for row in data:
        assert len(row) == 1 + len(FEATURE_NAMES)
        values = [float(v) for v in row[1:]]
        assert all(np.isfinite(values))
    assert (tmp_path / "correlation.csv").exists()
    hist = read_rows(tmp_path / "orbital_histogram.csv")
    assert hist[0] == ["bin_lo", "bin_hi", "count"]
    assert sum(int(r[2]) for r in hist[1:]) == 12


def test_df_threshold_flags_reach_features(tmp_path):
    def features(name, *flags):
        """The df_rank and df_gap columns of a features run with these flags."""
        out = tmp_path / name
        assert main(["--catalog", str(CATALOG), "--out", str(out), *flags, "features"]) == 0
        rows = read_rows(out / "features.csv")
        rank, gap = rows[0].index("df_rank"), rows[0].index("df_gap")
        return [float(r[rank]) for r in rows[1:]], [float(r[gap]) for r in rows[1:]]

    default_ranks, default_gaps = features("default")
    assert min(default_ranks) >= 1 and max(default_gaps) > 0.0
    # no eigenvalue of a demo tensor reaches 1000 Hartree
    zeros = [0.0] * 12
    assert features("absolute", "--df-absolute", "--df-threshold", "1e3") == (zeros, zeros)
    half_ranks, _ = features("half", "--df-threshold", "0.5")
    assert all(h <= d for h, d in zip(half_ranks, default_ranks))
    assert half_ranks != default_ranks


def test_features_single_instance(tmp_path):
    import shutil

    mini = tmp_path / "catalog"
    shutil.copytree(CATALOG / "inst-03", mini / "inst-03")
    out = tmp_path / "out"
    features_of(RunConfig(mini, out))
    rows = read_rows(out / "features.csv")
    assert len(rows) == 2  # header + one data row
    assert not (out / "correlation.csv").exists()


def test_features_resilient_to_bad_fcidump(tmp_path, caplog):
    import shutil

    mini = tmp_path / "catalog"
    shutil.copytree(CATALOG / "inst-01", mini / "inst-01")
    shutil.copytree(CATALOG / "inst-03", mini / "inst-03")
    (mini / "inst-01" / "task-01-1.fcidump").write_text("garbage", encoding="utf-8")
    out = tmp_path / "out"
    features_of(RunConfig(mini, out))
    rows = read_rows(out / "features.csv")
    assert len(rows) == 3  # header + 2 surviving rows
    assert "task-01-1" not in {r[0] for r in rows[1:]}


def test_non_finite_feature_row_is_a_task_failure(tmp_path, caplog):
    # Every (ii|jj) is finite, so the parser accepts the dump, but the
    # one-norm and the edge-weight statistics overflow to inf.
    mini = tmp_path / "catalog"
    shutil.copytree(CATALOG / "inst-01", mini / "inst-01")
    (mini / "inst-01" / "task-01-2.fcidump").write_text(
        "&FCI NORB=2,NELEC=2,MS2=0,&END\n"
        " 1e308 1 1 1 1\n 1e308 1 1 2 2\n 1e308 2 2 2 2\n"
        " -1.0 1 1 0 0\n -0.5 2 2 0 0\n 0.0 0 0 0 0\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["--catalog", str(mini), "--out", str(out), "features"]) == 0
    text = (out / "features.csv").read_text()
    assert "inf" not in text and "nan" not in text
    assert [r[0] for r in read_rows(out / "features.csv")[1:]] == ["task-01-1"]
    failures = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("features failed for task task-01-2")]
    assert len(failures) == 1
    for name in ("one_norm", "edge_weight_mean", "edge_weight_std"):
        assert name in failures[0]


def test_overflowing_feature_row_emits_no_runtime_warning(tmp_path):
    mini = tmp_path / "catalog"
    shutil.copytree(CATALOG / "inst-01", mini / "inst-01")
    (mini / "inst-01" / "task-01-2.fcidump").write_text(
        "&FCI NORB=2,NELEC=2,MS2=0,&END\n"
        " 1e308 1 1 1 1\n 1e308 1 1 2 2\n 1e308 2 2 2 2\n"
        " -1.0 1 1 0 0\n -0.5 2 2 0 0\n 0.0 0 0 0 0\n",
        encoding="utf-8",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--catalog", str(mini), "--out", str(tmp_path / "out"), "features"]) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_dump_wider_than_the_encoder_is_one_feature_failure(tmp_path, caplog, monkeypatch):
    # 33 orbitals are 66 qubits, more than a PauliTable mask holds
    mini = tmp_path / "catalog"
    shutil.copytree(CATALOG / "inst-01", mini / "inst-01")
    (mini / "inst-01" / "task-01-2.fcidump").write_text(
        "&FCI NORB=33,NELEC=2,MS2=0,&END\n 0.5 1 1 1 1\n -1.0 1 1 0 0\n 0.0 0 0 0 0\n",
        encoding="utf-8",
    )
    factorized = []

    def recording_df(dump, *args, **kwargs):
        factorized.append(dump.norb)
        return df(dump, *args, **kwargs)

    df = qubit_features.double_factorize
    monkeypatch.setattr(qubit_features, "double_factorize", recording_df)
    out = tmp_path / "out"
    assert main(["--catalog", str(mini), "--out", str(out), "features"]) == 0
    failures = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("features failed")]
    assert len(failures) == 1 and failures[0].startswith("features failed for task task-01-2")
    assert [r[0] for r in read_rows(out / "features.csv")[1:]] == ["task-01-1"]
    assert 33 not in factorized and factorized


def test_semantic_hash_is_pinned(tmp_path):
    default = RunConfig(CATALOG, tmp_path)
    every = RunConfig(
        CATALOG, tmp_path, df_threshold=1e-5, df_absolute=True,
        solvability=SolvabilityConfig(
            latent="nnmf", latent_dim=3, n_samples=2500, threshold=0.4, seed=7
        ),
    )
    assert default.semantic_hash() == "4c9786e16add"
    assert every.semantic_hash() == "8da21b0510a8"
    for config in (default, every):
        moved = dataclasses.replace(
            config, catalog_dir=tmp_path / "elsewhere", output_dir=tmp_path / "o", jobs=3
        )
        assert moved.semantic_hash() == config.semantic_hash()


def test_empty_catalog_is_fatal(tmp_path):
    code = main(["--catalog", str(tmp_path), "--out", str(tmp_path / "o"), "features"])
    assert code == 1


def test_evaluate_outcomes(tmp_path):
    config = RunConfig(CATALOG, tmp_path)
    run_evaluate(config, tasks_in(CATALOG), scan_solutions(SOLUTIONS))
    rows = read_rows(tmp_path / "outcomes_size-limited.csv")
    data = {r[0]: r for r in rows[1:]}
    assert len(data) == 12
    assert data["task-03-1"][1] == "solved"
    assert data["task-07-1"][1] == "unsolved"
    assert data["task-10-1"][1] == "unlabeled"
    summary = {r[0]: r for r in read_rows(tmp_path / "solver_summary.csv")[1:]}
    assert summary["exact-echo"][2:] == ["11", "12"]
    assert summary["perturbed"][2:] == ["0", "12"]
    assert summary["size-limited"][2:] == ["6", "11"]


def test_solver_name_with_csv_delimiters_round_trips(tmp_path):
    solutions = tmp_path / "solutions"
    shutil.copytree(SOLUTIONS, solutions)
    path = solutions / "perturbed.solution.json"
    solution = json.loads(path.read_text())
    solution["solver_short_name"] = name = 'SHCI, opt "v2"\nrerun'
    path.write_text(json.dumps(solution))
    run_evaluate(RunConfig(CATALOG, tmp_path), tasks_in(CATALOG), scan_solutions(solutions))
    with open(tmp_path / "solver_summary.csv", newline="", encoding="utf-8") as fh:
        assert fh.readline().startswith("# gsee-bench")
        rows = list(csv.reader(fh))
    assert rows[0] == ["solver_uuid", "solver_short_name", "tasks_solved", "tasks_attempted"]
    assert all(len(row) == 4 for row in rows)
    assert {row[0]: row[1] for row in rows[1:]}["perturbed"] == name


def test_float_csv_join_writes_the_bytes_of_csv_writer(tmp_path):
    rng = np.random.default_rng(7)
    rows = np.column_stack([rng.normal(size=(50, 2)), rng.random(50)]).tolist()
    rows[:3] = [[-0.0, 1e-300, 1.0], [5e-324, -1.7976931348623157e308, 0.1],
                [123456789.0, -1.5e-7, 0.0]]
    config = RunConfig(CATALOG, tmp_path)
    columns = ["latent_0", "latent_1", "probability"]
    cli._write_csv(tmp_path / "writer.csv", config, columns, rows)
    cli._write_float_csv(tmp_path / "join.csv", config, columns, *np.array(rows).T)
    assert (tmp_path / "join.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()


@pytest.mark.parametrize(
    "rows",
    [
        [[0.0, -0.0, 0.5], [-0.0, 0.0, -0.0], [0.0, 0.0, 0.0], [-0.0, -0.0, 0.5]],
        [[0.1, 2.0, 0.5]] * 40 + [[-0.1, 2.0, 0.5], [0.1, 2.0, 5e-324]],
        [[1e-300, -2.5, 0.75]],
        [],
    ],
    ids=["signed-zeros", "repeats", "one-row", "no-rows"],
)
def test_float_csv_is_the_per_row_repr_join(tmp_path, rows):
    config = RunConfig(CATALOG, tmp_path)
    columns = ["latent_0", "latent_1", "probability"]
    cli._write_float_csv(tmp_path / "cloud.csv", config, columns, *np.array(rows).reshape(-1, 3).T)
    expected = "".join(
        [cli._header_comment(config) + "\n", ",".join(columns) + "\n"]
        + [",".join(map(repr, row)) + "\n" for row in rows]
    )
    assert (tmp_path / "cloud.csv").read_bytes() == expected.encode("utf-8")


def test_float_csv_formats_each_distinct_float_of_a_column_once(tmp_path, monkeypatch):
    # A 2-D latent grid in one block: each latent column holds r distinct
    # values, r^2 rows.
    r = 30
    assert r * r <= cli.SAMPLE_BLOCK
    axis = np.linspace(-1.0, 2.0, r)
    xx, yy = np.meshgrid(axis, axis)
    table = np.column_stack([xx.ravel(), yy.ravel(), np.linspace(0.0, 1.0, r * r)])
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    cli._write_float_csv(tmp_path / "grid.csv", RunConfig(CATALOG, tmp_path),
                         ["latent_0", "latent_1", "probability"], *table.T)
    assert len(calls) == r + r + r * r
    lines = (tmp_path / "grid.csv").read_text(encoding="utf-8").splitlines()[2:]
    assert lines == [",".join(map(repr, row)) for row in table.tolist()]


def one_shot_float_csv(config: RunConfig, columns: list[str], table: np.ndarray) -> bytes:
    """Oracle of the blocked writer: the whole table formatted in one pass,
    each distinct float of a column once."""
    cells = []
    for column in table.T:
        bits = column.view(np.int64).tolist()
        text = {key: repr(value) for key, value in dict(zip(bits, column.tolist())).items()}
        cells.append(map(text.__getitem__, bits))
    lines = [cli._header_comment(config), ",".join(columns)] + [",".join(row) for row in zip(*cells)]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def test_float_csv_in_blocks_is_the_one_shot_formatter(tmp_path):
    # Two full blocks and a short third; repeats cross the block edges, and
    # 0.0 sits beside -0.0 in every column.
    n = 2 * cli.SAMPLE_BLOCK + 5
    rng = np.random.default_rng(11)
    table = np.column_stack([
        np.tile(np.linspace(-1.0, 1.0, 7), n)[:n],
        rng.choice([0.0, -0.0, 0.5, -2.5e-7, 1e300], size=n),
        rng.random(n),
    ])
    table[-3:] = [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, 5e-324]]
    config = RunConfig(CATALOG, tmp_path)
    columns = ["latent_0", "latent_1", "probability"]
    cli._write_float_csv(tmp_path / "cloud.csv", config, columns, *table.T)
    assert (tmp_path / "cloud.csv").read_bytes() == one_shot_float_csv(config, columns, table)


def test_oracle_outputs_match_references(tmp_path):
    config = RunConfig(CATALOG, tmp_path)
    run_oracle(config)
    payload = json.loads((tmp_path / "oracle.json").read_text())
    results = {r["task_uuid"]: r for r in payload["results"]}
    assert len(results) == 12
    instance = json.loads((CATALOG / "inst-01" / "inst-01.problem.json").read_text())
    for task in instance["tasks"]:
        entry = results[task["task_uuid"]]
        assert entry["converged"]
        assert entry["e0"] == pytest.approx(task["reference_energy"], abs=1e-10)
        assert entry["gap"] >= 0.0


def test_solvability_subcommand(tmp_path):
    code = main(
        [
            "--catalog", str(CATALOG), "--out", str(tmp_path),
            "--samples", "900", "--seed", "3",
            "solvability", "--solutions", str(SOLUTIONS), "--solver", "size-limited",
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "solvability_size-limited.json").read_text())
    assert 0.0 <= report["solvability_ratio"] <= 1.0
    assert report["metrics"]["f1"] == 1.0
    assert "latent_points" not in report
    assert report["latent_points_file"] == "latent_points_size-limited.csv"
    cloud = read_rows(tmp_path / report["latent_points_file"])
    assert cloud[0] == ["latent_0", "latent_1", "probability"]
    assert len(cloud) - 1 == report["n_samples"] == 900
    svg = (tmp_path / "latent_map_size-limited.svg").read_text()
    assert svg.startswith("<svg")
    assert "polygon" in svg  # guidestar star marker
    labels = [p["label"] for p in report["training_points"]]
    assert labels.count(None) == 1


def test_solvability_single_class_solver_fails_cleanly(tmp_path):
    code = main(
        [
            "--catalog", str(CATALOG), "--out", str(tmp_path),
            "--samples", "400",
            "solvability", "--solutions", str(SOLUTIONS), "--solver", "exact-echo",
        ]
    )
    assert code == 1
    # --out existed before the command, so it stays, empty
    assert tmp_path.is_dir() and not any(tmp_path.iterdir())


def test_failed_solvability_leaves_no_output(tmp_path, caplog):
    out = tmp_path / "out"
    argv = ["--catalog", str(CATALOG), "--out", str(out), "--jobs", "2"]
    assert main([*argv, "solvability", "--solutions", str(SOLUTIONS), "--solver", "exact-echo"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["training labels contain a single class"]
    assert not out.exists()


def test_report_skips_solver_whose_pipeline_fails(tmp_path, caplog):
    # Twelve copies of one dump: the SVM fits, but PCA finds one distinct row.
    catalog, solutions = tmp_path / "catalog", tmp_path / "solutions"
    shutil.copytree(CATALOG, catalog)
    source = (CATALOG / "inst-01" / "task-01-1.fcidump").read_bytes()
    tasks = tasks_in(catalog)
    assert len(tasks) == 12
    for task in tasks:
        task.fcidump_path.write_bytes(source)
    solutions.mkdir()
    labeled = [t for t in tasks if t.reference_energy is not None]
    results = [
        {"task_uuid": t.task_uuid, "energy": t.reference_energy + (0.0 if i % 2 else 0.01),
         "run_time": 1.0}
        for i, t in enumerate(labeled)
    ]
    (solutions / "mixed.solution.json").write_text(json.dumps(
        {"solver_uuid": "mixed", "solver_short_name": "mixed", "results": results}
    ))
    out = tmp_path / "out"
    argv = ["--catalog", str(catalog), "--out", str(out), "--samples", "400",
            "report", "--solutions", str(solutions)]
    assert main(argv) == 0
    skips = [r.getMessage() for r in caplog.records
             if r.levelname == "WARNING" and "solvability skipped for" in r.getMessage()]
    assert skips == ["solvability skipped for mixed: fewer than 2 distinct rows"]
    assert not [r for r in caplog.records if r.levelname == "ERROR"]
    assert (out / "oracle.json").exists()
    assert not (out / "solvability_mixed.json").exists()


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(
        json.dumps(
            {
                "catalog": str(CATALOG),
                "out": str(tmp_path / "from_config"),
                "samples": 400,
                "seed": 11,
            }
        )
    )
    out_override = tmp_path / "overridden"
    code = main(["--config", str(conf), "--out", str(out_override), "features"])
    assert code == 0
    assert (out_override / "features.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_parallel_oracle_matches_serial(tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    run_oracle(RunConfig(CATALOG, serial))
    run_oracle(RunConfig(CATALOG, parallel, jobs=2))
    assert (serial / "oracle.json").read_bytes() == (parallel / "oracle.json").read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_oracle_skips_truncated_fcidump(tmp_path, caplog, jobs):
    catalog = tmp_path / "catalog"
    shutil.copytree(CATALOG, catalog)
    dump = catalog / "inst-02" / "task-02-1.fcidump"
    text = dump.read_text(encoding="utf-8")
    dump.write_text(text[: text.index("&END")], encoding="utf-8")  # cut in the header
    run_oracle(RunConfig(catalog, tmp_path / "out", jobs=jobs))
    results = json.loads((tmp_path / "out" / "oracle.json").read_text())["results"]
    assert [r["task_uuid"] for r in results] == [
        t.task_uuid for t in tasks_in(CATALOG) if t.task_uuid != "task-02-1"
    ]
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and warnings[0].startswith("oracle failed for task task-02-1:")


def test_pool_map_keeps_item_order_over_uneven_chunks():
    items = list(range(-19, 0))  # 19 items, chunks of 19 // 8 = 2: the last one short
    with cli._pool(2, len(items)) as pmap:
        assert list(pmap(abs, items)) == [abs(i) for i in items]


@pytest.mark.parametrize(
    "affinity, cpu_count, workers",
    [({0, 1, 2}, None, [3]), (None, 5, [5]), (None, None, [])],
    ids=["affinity-3", "cpu-count-5", "cpu-count-unknown"],
)
def test_pool_workers_capped_at_usable_cpus(monkeypatch, affinity, cpu_count, workers):
    started = []

    class InlinePool:  # records the worker count, maps in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, items, chunksize):
            return map(fn, items)

        def shutdown(self, wait, cancel_futures):
            pass

    monkeypatch.setattr(cli.futures, "ProcessPoolExecutor", InlinePool)
    if affinity is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpu_count)
    items = list(range(-50, 0))
    with cli._pool(10**6, len(items)) as pmap:
        assert list(pmap(abs, items)) == [abs(i) for i in items]
    assert started == workers


@pytest.mark.parametrize(
    "command",
    [["features"], ["oracle"], ["evaluate", "--solutions", str(SOLUTIONS)],
     ["solvability", "--solutions", str(SOLUTIONS), "--solver", "size-limited"],
     ["report", "--solutions", str(SOLUTIONS)]],
    ids=["features", "oracle", "evaluate", "solvability", "report"],
)
def test_each_command_makes_at_most_one_pool(tmp_path, monkeypatch, command):
    made, shutdowns = [], []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append({"wait": wait, "cancel_futures": cancel_futures})
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli.futures, "ProcessPoolExecutor", RecordingPool)
    argv = ["--catalog", str(CATALOG), "--out", str(tmp_path), "--samples", "400", "--jobs", "2"]
    assert main([*argv, *command]) == 0
    assert made == [2]
    assert shutdowns == [{"wait": True, "cancel_futures": True}]


def test_report_runs_the_oracle_first_inline_and_behind_the_solvers_in_a_pool(tmp_path, monkeypatch):
    # Inline, run_oracle returns before the first run_solvability starts.
    events = []
    for name in ("run_oracle", "run_solvability"):
        fn = getattr(cli, name)

        def recorded(*args, _fn=fn, _name=name, **kwargs):
            events.append(("start", _name))
            result = _fn(*args, **kwargs)
            events.append(("end", _name))
            return result

        monkeypatch.setattr(cli, name, recorded)
    assert main(report_argv(tmp_path / "inline", SOLUTIONS, "--jobs", "1")) == 0
    assert events.index(("end", "run_oracle")) < events.index(("start", "run_solvability"))
    assert ("end", "run_solvability") in events

    # In a pool, the solvability items reach it before the oracle chunks.
    mapped = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            mapped.append(fn.__name__)
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli.futures, "ProcessPoolExecutor", RecordingPool)
    assert main(report_argv(tmp_path / "pooled", SOLUTIONS, "--jobs", "2")) == 0
    assert mapped == ["_try_features", "_try_solvability", "_try_oracle"]


def test_parallel_features_match_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    features_of(RunConfig(CATALOG, serial))
    features_of(RunConfig(CATALOG, parallel, jobs=2))
    assert (serial / "features.csv").read_bytes() == (parallel / "features.csv").read_bytes()


def test_report_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main(
            [
                "--catalog", str(CATALOG), "--out", str(out),
                "--samples", "900", "--seed", "7",
                "report", "--solutions", str(SOLUTIONS),
            ]
        )
        assert code == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_subcommands_write_the_files_of_report(tmp_path):
    settings = ["--catalog", str(CATALOG), "--samples", "400", "--seed", "5"]
    solutions = ["--solutions", str(SOLUTIONS)]
    report = tmp_path / "report"
    assert main([*settings, "--out", str(report), "report", *solutions]) == 0
    stages = {
        "features": [],
        "evaluate": solutions,
        "oracle": [],
        "solvability": [*solutions, "--solver", "size-limited"],
    }
    written = set()
    for stage, args in stages.items():
        out = tmp_path / stage
        assert main([*settings, "--out", str(out), stage, *args]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files, stage
        for name in files:
            assert (out / name).read_bytes() == (report / name).read_bytes(), (stage, name)
        written.update(files)
    assert written == {p.name for p in report.iterdir()}


def test_invalid_threshold_rejected(tmp_path):
    code = main(
        ["--catalog", str(CATALOG), "--out", str(tmp_path), "--threshold", "1.5", "features"]
    )
    assert code == 1


def report_argv(out: Path, solutions: Path = SOLUTIONS, *flags: str) -> list[str]:
    return [
        "--catalog", str(CATALOG), "--out", str(out), "--samples", "400", *flags,
        "report", "--solutions", str(solutions),
    ]


def test_report_loads_catalog_and_solutions_once(tmp_path, monkeypatch):
    # Every command, not only report: features and oracle take no solutions.
    calls = {"scan_catalog": 0, "scan_solutions": 0}
    for name in calls:
        scan = getattr(cli, name)

        def counted(root, _scan=scan, _name=name):
            calls[_name] += 1
            return _scan(root)

        monkeypatch.setattr(cli, name, counted)
    solutions = ["--solutions", str(SOLUTIONS)]
    commands = {
        "features": [], "oracle": [], "evaluate": solutions,
        "solvability": [*solutions, "--solver", "size-limited"], "report": solutions,
    }
    for command, args in commands.items():
        calls.update(scan_catalog=0, scan_solutions=0)
        argv = ["--catalog", str(CATALOG), "--out", str(tmp_path / command), "--samples", "400"]
        assert main([*argv, command, *args]) == 0
        assert calls == {"scan_catalog": 1, "scan_solutions": int(bool(args))}, command


def test_unknown_solver_leaves_no_output(tmp_path, caplog):
    out = tmp_path / "out"
    argv = ["--catalog", str(CATALOG), "--out", str(out)]
    assert main([*argv, "solvability", "--solutions", str(SOLUTIONS), "--solver", "nope"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["no solution file for solver nope"]
    assert not out.exists()


def _benchmark_hooks(monkeypatch) -> list[tuple]:
    """perfbench/tracer.py:HOOKS, the (module, attribute, span, size) rows the
    benchmark's tracer wraps, imported from the benchmark's own directory."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    return importlib.import_module("tracer").HOOKS


def test_every_benchmark_hook_point_resolves(monkeypatch):
    for module, attr, *_ in _benchmark_hooks(monkeypatch):
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_bare_oracle_call_loads_its_own_inputs(tmp_path):
    # The benchmark's correctness gate calls run_oracle with a config only.
    out = tmp_path / "out"
    run_oracle(RunConfig(catalog_dir=CATALOG, output_dir=out))
    results = json.loads((out / "oracle.json").read_text())["results"]
    assert [r["task_uuid"] for r in results] == [t.task_uuid for t in tasks_in(CATALOG)]


def test_inline_report_calls_every_benchmark_hook_of_the_cli(tmp_path, monkeypatch):
    # The tracer wraps these names where the CLI looks them up at call time,
    # and the benchmark reads the oracle's span as starting after evaluation.
    hooks = _benchmark_hooks(monkeypatch)
    names = [attr for module, attr, *_ in hooks if module == "gsee_bench.cli"]
    events = []
    for name in names:
        fn = getattr(cli, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            events.append(("start", _name))
            result = _fn(*args, **kwargs)
            events.append(("end", _name))
            return result

        monkeypatch.setattr(cli, name, counted)
    assert main(report_argv(tmp_path, SOLUTIONS, "--jobs", "1")) == 0
    assert {name for _, name in events} == set(names)
    assert events.index(("start", "run_oracle")) > events.index(("end", "run_evaluate"))


def test_report_in_one_pool_matches_serial(tmp_path, monkeypatch):
    # Three workers for three solvers: the oracle chunks run beside the
    # solvability items.
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(report_argv(serial)) == 0
    assert main(report_argv(pooled, SOLUTIONS, "--jobs", "3")) == 0
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in pooled.iterdir())
    assert "oracle.json" in names and "solvability_size-limited.json" in names
    for name in names:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name


@pytest.mark.parametrize("stage", ["run_evaluate", "run_oracle"])
def test_failed_parallel_report_leaves_no_worker_behind(tmp_path, monkeypatch, caplog, stage):
    # The main process fails after the pool has run the feature chunks; at
    # run_oracle the solvability items are still pending or running.
    def failing(*args, **kwargs):
        raise OSError(f"{stage} failed")

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, stage, failing)
    out = tmp_path / "out"
    assert main(report_argv(out, SOLUTIONS, "--jobs", "2")) == 1
    assert multiprocessing.active_children() == []
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{stage} failed"]
    assert (out / "features.csv").exists()
    assert not (out / "oracle.json").exists()


def test_duplicate_solver_uuid_rejected(tmp_path, caplog):
    solutions = tmp_path / "solutions"
    shutil.copytree(SOLUTIONS, solutions)
    shutil.copy(solutions / "exact-echo.solution.json", solutions / "echo-copy.solution.json")
    out = tmp_path / "out"
    assert main(report_argv(out, solutions)) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert "duplicate solver_uuid exact-echo" in errors[0]
    assert not out.exists()


def test_non_finite_solution_energy_rejected_before_any_output(tmp_path, caplog):
    solutions = tmp_path / "solutions"
    shutil.copytree(SOLUTIONS, solutions)
    path = solutions / "exact-echo.solution.json"
    solution = json.loads(path.read_text())
    solution["results"][0]["energy"] = float("nan")  # json.dumps writes it as NaN
    path.write_text(json.dumps(solution))
    out = tmp_path / "out"
    assert main(report_argv(out, solutions)) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert "'energy' must be finite" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "solver_uuid",
    ["team/perturbed", "../escaped", "..", ".", "", "team\\perturbed", "nul\0byte"],
    ids=["slash", "dotdot-component", "dotdot", "dot", "empty", "backslash", "nul"],
)
def test_solver_uuid_not_a_file_name_rejected_before_any_output(tmp_path, caplog, solver_uuid):
    solutions = tmp_path / "solutions"
    shutil.copytree(SOLUTIONS, solutions)
    path = solutions / "perturbed.solution.json"
    solution = json.loads(path.read_text())
    solution["solver_uuid"] = solver_uuid
    path.write_text(json.dumps(solution))
    out = tmp_path / "out"
    assert main(report_argv(out, solutions)) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert "is not a plain file name" in errors[0]
    assert not out.exists()
    assert not (tmp_path / "escaped.csv").exists()


def test_solver_name_with_control_character_rejected(tmp_path, caplog):
    # XML 1.0 has no escape for U+0001, so the latent-map SVG could not carry it.
    solutions = tmp_path / "solutions"
    shutil.copytree(SOLUTIONS, solutions)
    path = solutions / "size-limited.solution.json"
    solution = json.loads(path.read_text())
    solution["solver_short_name"] = "DMRG\u0001v2"
    path.write_text(json.dumps(solution))
    out = tmp_path / "out"
    argv = [
        "--catalog", str(CATALOG), "--out", str(out), "--samples", "400",
        "solvability", "--solutions", str(solutions), "--solver", "size-limited",
    ]
    assert main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert "control character" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("text", ["X\ud800Y", "X\udfffY", "X\ufffeY", "X\uffffY"],
                         ids=["high-surrogate", "low-surrogate", "fffe", "ffff"])
@pytest.mark.parametrize(
    "field", ["solver_short_name", "solver_uuid", "task_uuid", "instance_uuid", "short_name"]
)
def test_text_outside_xml_char_rejected_before_any_output(tmp_path, caplog, field, text):
    catalog, solutions = tmp_path / "catalog", tmp_path / "solutions"
    shutil.copytree(CATALOG, catalog)
    shutil.copytree(SOLUTIONS, solutions)
    if field.startswith("solver"):
        path = solutions / "perturbed.solution.json"
    else:
        path = catalog / "inst-02" / "inst-02.problem.json"
    obj = json.loads(path.read_text())
    (obj["tasks"][1] if field == "task_uuid" else obj)[field] = text
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    argv = ["--catalog", str(catalog), "--out", str(out), "--samples", "400",
            "report", "--solutions", str(solutions)]
    assert main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert "outside XML 1.0's Char" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["problem", "solution"])
def test_deeply_nested_input_file_gives_one_error_line(tmp_path, caplog, kind):
    catalog, solutions = tmp_path / "catalog", tmp_path / "solutions"
    shutil.copytree(CATALOG, catalog)
    shutil.copytree(SOLUTIONS, solutions)
    if kind == "problem":
        path = catalog / "inst-02" / "inst-02.problem.json"
    else:
        path = solutions / "perturbed.solution.json"
    path.write_text(DEEP_JSON)
    out = tmp_path / "out"
    argv = ["--catalog", str(catalog), "--out", str(out), "report", "--solutions", str(solutions)]
    assert main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert f"{path.name}: nests too deeply" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [("--latent-dim", "1"), ("--latent-dim", "3", "--samples", "0"), ("--jobs", "0"),
     ("--latent-dim", "25"), ("--samples", str(cli.MAX_SAMPLES + 1))],
    ids=["latent-dim-1", "samples-0", "jobs-0", "latent-dim-25", "samples-above-cap"],
)
def test_invalid_run_setting_rejected_before_any_output(tmp_path, flags):
    out = tmp_path / "out"
    assert main(report_argv(out, SOLUTIONS, *flags)) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--latent", "foo"), "latent must be 'pca' or 'nnmf'"),
        (("--seed", "abc"), "argument --seed: invalid int value: 'abc'"),
        (("--frobnicate",), "unrecognized arguments: --frobnicate"),
        (("--samples", "1e3"), "argument --samples: invalid int value: '1e3'"),
    ],
    ids=["latent-foo", "seed-abc", "unknown-flag", "samples-float"],
)
def test_bad_flag_gives_one_line_error_and_exit_1(tmp_path, caplog, capsys, flags, message):
    out = tmp_path / "out"
    assert main(report_argv(out, SOLUTIONS, *flags)) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert message in errors[0]
    assert not out.exists()
    assert "usage:" not in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_json_artifacts_reject_nan(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "x.json", RunConfig(CATALOG, tmp_path), {"ratio": float("nan")})


# JSON nested this deep makes json.load raise RecursionError; json.dumps
# cannot build it, so it is written as text.
DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "file_conf",
    [{"sampels": 400}, {"seed": "7"}, [1, 2], {"threshold": 10**400}, DEEP_JSON],
    ids=["unknown-key", "str-seed", "list", "int-too-big-for-float", "nested-too-deeply"],
)
def test_bad_config_file_rejected(tmp_path, caplog, file_conf):
    conf = tmp_path / "conf.json"
    conf.write_text(file_conf if isinstance(file_conf, str) else json.dumps(file_conf))
    out = tmp_path / "out"
    argv = ["--config", str(conf), "--catalog", str(CATALOG), "--out", str(out), "features"]
    assert main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert not out.exists()


# Mostly plausible values, each of which may still break one check ...
PLAUSIBLE = {
    "catalog": st.text(max_size=3),
    "out": st.text(max_size=3),
    "df_threshold": st.floats(-0.1, 1.0),
    "df_absolute": st.booleans(),
    "latent": st.sampled_from(["pca", "nnmf", "umap"]),
    "latent_dim": st.integers(1, 4),
    "samples": st.integers(0, 4),
    "threshold": st.floats(0.0, 1.2),
    "seed": st.integers(-1, 2**70),
    "jobs": st.integers(0, 3),
}
# ... and at most one entry of any JSON type under any key, unknown ones too.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)
CONFIG_DICTS = st.builds(
    lambda plausible, junk: {**plausible, **junk},
    st.fixed_dictionaries({}, optional=PLAUSIBLE),
    st.dictionaries(
        st.sampled_from([*cli._SETTINGS, "sampels", "latent-dim"]), JUNK, max_size=1
    ),
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(file_conf=CONFIG_DICTS)
def test_config_file_gives_valid_config_or_exit_1(tmp_path, file_conf):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(file_conf))
    out = tmp_path / "out"
    argv = ["--config", str(conf), "--catalog", str(tmp_path), "--out", str(out), "oracle"]
    try:
        config = cli._make_config(cli._build_parser().parse_args(argv))
    except (GseeBenchError, OverflowError, ValueError):
        assert main(argv) == 1
        assert not out.exists()
        return
    ml = config.solvability
    for key, (attr, kind, _) in cli._SETTINGS.items():
        value = getattr(ml if hasattr(ml, attr) else config, attr)
        assert isinstance(value, Path) if key in ("catalog", "out") else type(value) is kind
        if key in file_conf and key not in ("catalog", "out"):
            assert value == file_conf[key]
    assert ml.latent in ("pca", "nnmf")
    assert 0.0 <= ml.threshold <= 1.0
    assert np.isfinite(config.df_threshold) and config.df_threshold >= 0.0
    assert ml.latent_dim >= 2 and ml.n_samples >= 1
    assert ml.seed >= 0 and config.jobs >= 1


@pytest.mark.parametrize("dim", [2, 3])
def test_demo_nnmf_latent_space_converges(tmp_path, dim):
    argv = report_argv(tmp_path, SOLUTIONS, "--latent", "nnmf", "--latent-dim", str(dim))
    assert main(argv) == 0
    reports = sorted(tmp_path.glob("solvability_*.json"))
    assert reports
    for path in reports:
        assert json.loads(path.read_text())["flags"]["latent_converged"] is True, path.name
