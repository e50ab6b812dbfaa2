import json
import re

import pytest

from gsee_bench import cli
from gsee_bench.catalog import (
    _NOT_XML_CHAR,
    DEFAULT_ACCURACY_TOL,
    SolutionResult,
    Task,
    Verdict,
    evaluate_solver,
    evaluate_task,
    load_instance,
    load_solution,
    scan_catalog,
    scan_solutions,
)
from gsee_bench.errors import DuplicateTaskUuid, SchemaViolation, TaskMismatch


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


def make_instance(tmp_path, tasks, uuid="inst-1", name="demo"):
    path = tmp_path / f"{uuid}.problem.json"
    write_json(path, {"instance_uuid": uuid, "short_name": name, "tasks": tasks})
    return path


def labeled_task(uuid="task-1", **kwargs):
    base = {
        "task_uuid": uuid,
        "fcidump_path": "h.fcidump",
        "reference_energy": -1.0,
        "runtime_limit": 100.0,
    }
    base.update(kwargs)
    return base


def test_load_instance_defaults(tmp_path):
    path = make_instance(tmp_path, [labeled_task()])
    inst = load_instance(path)
    assert inst.instance_uuid == "inst-1"
    task = inst.tasks[0]
    assert task.accuracy_tol == DEFAULT_ACCURACY_TOL
    assert not task.is_guidestar
    assert task.fcidump_path == (tmp_path / "h.fcidump").resolve()


@pytest.mark.parametrize("sub_is_link", [False, True])
def test_task_path_through_a_symlinked_instance_opens_the_resolved_file(tmp_path, sub_is_link):
    # The instance directory is reached through a symlink, and the task names
    # its dump through "sub/..".  When "sub" is itself a link into another
    # tree, ".." leaves from the link's target, as Path.resolve() reads it.
    real = tmp_path / "real"
    (tmp_path / "other" / "deep").mkdir(parents=True)
    real.mkdir()
    if sub_is_link:
        (real / "sub").symlink_to(tmp_path / "other" / "deep", target_is_directory=True)
    else:
        (real / "sub").mkdir()
    (real / "x.fcidump").write_text("real\n", encoding="utf-8")
    (tmp_path / "other" / "x.fcidump").write_text("other\n", encoding="utf-8")
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    make_instance(real, [labeled_task(fcidump_path="sub/../x.fcidump")])
    (task,) = load_instance(link / "inst-1.problem.json").tasks
    before = (link / "sub/../x.fcidump").resolve()
    assert before == tmp_path.resolve() / ("other" if sub_is_link else "real") / "x.fcidump"
    assert task.fcidump_path.samefile(before)
    assert task.fcidump_path.read_text(encoding="utf-8") == before.read_text(encoding="utf-8")


def test_guidestar_inferred_from_missing_reference(tmp_path):
    entry = labeled_task()
    del entry["reference_energy"]
    inst = load_instance(make_instance(tmp_path, [entry]))
    assert inst.tasks[0].is_guidestar


def test_guidestar_with_reference_is_schema_violation(tmp_path):
    entry = labeled_task(is_guidestar=True)
    with pytest.raises(SchemaViolation):
        load_instance(make_instance(tmp_path, [entry]))


def test_missing_required_field(tmp_path):
    path = tmp_path / "x.problem.json"
    write_json(path, {"instance_uuid": "u", "tasks": [labeled_task()]})
    with pytest.raises(SchemaViolation):
        load_instance(path)


def test_duplicate_task_uuid(tmp_path):
    with pytest.raises(DuplicateTaskUuid):
        load_instance(make_instance(tmp_path, [labeled_task(), labeled_task()]))


def test_unknown_fields_preserved(tmp_path):
    path = tmp_path / "x.problem.json"
    write_json(
        path,
        {
            "instance_uuid": "u",
            "short_name": "n",
            "tasks": [labeled_task()],
            "provenance": "literature",
        },
    )
    inst = load_instance(path)
    assert inst.extra["provenance"] == "literature"


def test_load_solution(tmp_path):
    path = tmp_path / "s.solution.json"
    write_json(
        path,
        {
            "solver_uuid": "solver-1",
            "solver_short_name": "demo",
            "results": [
                {"task_uuid": "a", "energy": -1.0, "run_time": 3.0},
                {"task_uuid": "b", "attempted": False},
            ],
        },
    )
    sol = load_solution(path)
    assert sol.results[0].attempted
    assert not sol.results[1].attempted


def test_solution_duplicate_task(tmp_path):
    path = tmp_path / "s.solution.json"
    write_json(
        path,
        {
            "solver_uuid": "solver-1",
            "solver_short_name": "demo",
            "results": [
                {"task_uuid": "a", "energy": -1.0, "run_time": 3.0},
                {"task_uuid": "a", "energy": -1.1, "run_time": 4.0},
            ],
        },
    )
    with pytest.raises(DuplicateTaskUuid):
        load_solution(path)


def test_solution_attempted_needs_energy(tmp_path):
    path = tmp_path / "s.solution.json"
    write_json(
        path,
        {
            "solver_uuid": "solver-1",
            "solver_short_name": "demo",
            "results": [{"task_uuid": "a", "run_time": 3.0}],
        },
    )
    with pytest.raises(SchemaViolation):
        load_solution(path)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["accuracy_tol", "runtime_limit", "reference_energy"])
def test_non_finite_task_number_rejected(tmp_path, field, value):
    # json.dumps writes NaN/Infinity, which json.load reads back as floats
    path = make_instance(tmp_path, [labeled_task(**{field: value})])
    with pytest.raises(SchemaViolation, match=f"{field}' must be finite"):
        load_instance(path)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["energy", "run_time"])
def test_non_finite_result_number_rejected(tmp_path, field, value):
    path = tmp_path / "s.solution.json"
    entry = {"task_uuid": "a", "energy": -1.0, "run_time": 3.0, field: value}
    write_json(path, {"solver_uuid": "s", "solver_short_name": "s", "results": [entry]})
    with pytest.raises(SchemaViolation, match=f"{field}' must be finite"):
        load_solution(path)


def _task_file(tmp_path, field, value):
    return make_instance(tmp_path, [labeled_task(**{field: value})]), load_instance


def _result_file(tmp_path, field, value):
    path = tmp_path / "s.solution.json"
    entry = {"task_uuid": "a", "energy": -1.0, "run_time": 3.0, field: value}
    write_json(path, {"solver_uuid": "s", "solver_short_name": "s", "results": [entry]})
    return path, load_solution


def _config_file(tmp_path, field, value):
    path = tmp_path / "conf.json"
    write_json(path, {field: value})
    argv = ["--config", str(path), "--catalog", str(tmp_path), "--out", str(tmp_path), "features"]
    return path, lambda _: cli._make_config(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("value", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
@pytest.mark.parametrize(
    "write, field",
    [(_task_file, "accuracy_tol"), (_task_file, "runtime_limit"),
     (_task_file, "reference_energy"), (_result_file, "energy"), (_result_file, "run_time"),
     (_config_file, "df_threshold")],
    ids=lambda v: v if isinstance(v, str) else v.__name__.strip("_"),
)
def test_integer_without_exact_float_rejected(tmp_path, write, field, value):
    # one rule for every float field: an integer that no float holds exactly
    # is refused with the file and the field named, never rounded
    path, load = write(tmp_path, field, value)
    with pytest.raises(SchemaViolation) as info:
        load(path)
    assert path.name in str(info.value) and repr(field) in str(info.value)


TASK = Task("t", fcidump_path=None, reference_energy=-1.0, runtime_limit=10.0)
GUIDESTAR = Task("t", fcidump_path=None, reference_energy=None, runtime_limit=10.0)


def result(energy, run_time, attempted=True, uuid="t"):
    return SolutionResult(uuid, energy, run_time, attempted)


def test_solved_within_tolerance_and_runtime():
    outcome = evaluate_task(TASK, result(-0.999, 5.0))
    assert outcome.verdict is Verdict.SOLVED
    assert outcome.abs_error == pytest.approx(1.0e-3)
    assert outcome.within_runtime


def test_unsolved_when_over_runtime():
    outcome = evaluate_task(TASK, result(-0.999, 50.0))
    assert outcome.verdict is Verdict.UNSOLVED
    assert outcome.abs_error == pytest.approx(1.0e-3)
    assert not outcome.within_runtime


def test_unsolved_when_outside_tolerance():
    outcome = evaluate_task(TASK, result(-0.99, 5.0))
    assert outcome.verdict is Verdict.UNSOLVED


def test_error_is_absolute_both_sides():
    assert evaluate_task(TASK, result(-1.001, 5.0)).verdict is Verdict.SOLVED
    assert evaluate_task(TASK, result(-0.999, 5.0)).verdict is Verdict.SOLVED


def test_an_overflowing_error_is_blank_and_unsolved():
    # both energies are finite, their difference is not
    task = Task("t", fcidump_path=None, reference_energy=-1.7e308, runtime_limit=10.0)
    outcome = evaluate_task(task, result(1.7e308, 5.0))
    assert outcome.abs_error is None
    assert outcome.verdict is Verdict.UNSOLVED
    assert outcome.attempted and outcome.within_runtime


def test_guidestar_always_unlabeled():
    assert evaluate_task(GUIDESTAR, result(-0.5, 5.0)).verdict is Verdict.UNLABELED
    assert evaluate_task(GUIDESTAR, None).verdict is Verdict.UNLABELED


def test_guidestar_is_the_task_without_a_reference():
    # a task built without a reference cannot be scored as a negative label
    assert Task("t", None).is_guidestar
    assert evaluate_task(Task("t", None), result(-0.5, 5.0)).verdict is Verdict.UNLABELED
    assert not TASK.is_guidestar


def test_unattempted_is_unsolved_not_solved():
    outcome = evaluate_task(TASK, None)
    assert outcome.verdict is Verdict.UNSOLVED
    assert not outcome.attempted
    outcome = evaluate_task(TASK, result(None, None, attempted=False))
    assert outcome.verdict is Verdict.UNSOLVED


def test_task_mismatch():
    with pytest.raises(TaskMismatch):
        evaluate_task(TASK, result(-1.0, 1.0, uuid="other"))


def test_evaluation_monotone(rng):
    # shrinking the error or the runtime never flips solved -> unsolved
    for _ in range(200):
        tol = float(rng.uniform(1e-4, 1e-2))
        limit = float(rng.uniform(1.0, 100.0))
        task = Task("t", None, accuracy_tol=tol, runtime_limit=limit, reference_energy=0.0)
        err = float(rng.uniform(0.0, 2.0 * tol))
        rt = float(rng.uniform(0.0, 2.0 * limit))
        base = evaluate_task(task, result(err, rt))
        better = evaluate_task(
            task, result(err * rng.uniform(0.0, 1.0), rt * rng.uniform(0.0, 1.0))
        )
        if base.verdict is Verdict.SOLVED:
            assert better.verdict is Verdict.SOLVED


def test_scan_and_evaluate_solver(tmp_path):
    make_instance(tmp_path, [labeled_task("t1"), labeled_task("t2")], uuid="i1")
    make_instance(
        tmp_path,
        [labeled_task("t3"), {**labeled_task("t4"), "reference_energy": None}],
        uuid="i2",
    )
    write_json(
        tmp_path / "s.solution.json",
        {
            "solver_uuid": "solver-1",
            "solver_short_name": "demo",
            "results": [
                {"task_uuid": "t1", "energy": -1.0, "run_time": 1.0},
                {"task_uuid": "t2", "energy": -2.0, "run_time": 1.0},
                {"task_uuid": "t4", "energy": -1.0, "run_time": 1.0},
                {"task_uuid": "missing", "energy": 0.0, "run_time": 1.0},
            ],
        },
    )
    instances = scan_catalog(tmp_path)
    assert [i.instance_uuid for i in instances] == ["i1", "i2"]
    tasks = [t for inst in instances for t in inst.tasks]
    solution = scan_solutions(tmp_path)[0]
    outcomes, summary = evaluate_solver(tasks, solution)
    verdicts = {o.task_uuid: o.verdict for o in outcomes}
    assert verdicts["t1"] is Verdict.SOLVED
    assert verdicts["t2"] is Verdict.UNSOLVED  # 1 Ha off
    assert verdicts["t3"] is Verdict.UNSOLVED  # unattempted
    assert verdicts["t4"] is Verdict.UNLABELED  # guidestar
    assert summary == {"tasks_attempted": 3, "tasks_solved": 1}


def test_scan_rejects_duplicate_task_across_instances(tmp_path):
    make_instance(tmp_path, [labeled_task("t1")], uuid="i1")
    make_instance(tmp_path, [labeled_task("t1")], uuid="i2")
    with pytest.raises(DuplicateTaskUuid):
        scan_catalog(tmp_path)


def test_each_duplicate_id_keeps_its_class_and_message(tmp_path):
    def raises(error, message, load, path):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load(path)

    inside = tmp_path / "inside"
    inside.mkdir()
    path = make_instance(inside, [labeled_task("t1"), labeled_task("t1")])
    raises(DuplicateTaskUuid, "inst-1.problem.json: duplicate task_uuid t1", load_instance, path)
    raises(DuplicateTaskUuid, "inst-1.problem.json: duplicate task_uuid t1", scan_catalog, inside)

    across = tmp_path / "across"
    across.mkdir()
    make_instance(across, [labeled_task("t1")], uuid="i1")
    make_instance(across, [labeled_task("t1")], uuid="i2")
    raises(DuplicateTaskUuid, "task_uuid t1 appears in more than one instance", scan_catalog, across)

    twice = tmp_path / "twice"
    twice.mkdir()
    make_instance(twice, [labeled_task("t1")], uuid="i1", name="a")
    (twice / "copy").mkdir()
    make_instance(twice / "copy", [labeled_task("t2")], uuid="i1", name="b")
    raises(SchemaViolation, "duplicate instance_uuid i1", scan_catalog, twice)

    path = tmp_path / "s.solution.json"
    results = [{"task_uuid": uuid, "energy": -1.0, "run_time": 1.0} for uuid in "aba"]
    write_json(path, {"solver_uuid": "s", "solver_short_name": "demo", "results": results})
    raises(DuplicateTaskUuid, "s.solution.json results[2]: duplicate task_uuid a",
           load_solution, path)


def test_scan_solutions_rejects_a_solver_uuid_in_two_files(tmp_path):
    def solution(uuid):
        return {"solver_uuid": uuid, "solver_short_name": "demo", "results": []}

    write_json(tmp_path / "a.solution.json", solution("solver-1"))
    write_json(tmp_path / "b.solution.json", solution("solver-2"))
    assert [s.solver_uuid for s in scan_solutions(tmp_path)] == ["solver-1", "solver-2"]
    (tmp_path / "nested").mkdir()
    write_json(tmp_path / "nested" / "c.solution.json", solution("solver-1"))
    message = f"duplicate solver_uuid solver-1 in {tmp_path}"
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        scan_solutions(tmp_path)


def test_not_xml_char_matches_the_complement_of_xml_char_everywhere():
    """The positive class against the negated Char production, at every code point."""
    char = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    everything = "".join(map(chr, range(0x110000)))
    got = [m.start() for m in _NOT_XML_CHAR.finditer(everything)]
    want = [m.start() for m in char.finditer(everything)]
    assert got == want
    assert len(want) == 29 + 2048 + 2  # C0 less tab/LF/CR, surrogates, U+FFFE/U+FFFF
