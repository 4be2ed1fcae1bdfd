"""Command-line interface: outputs, determinism and exit codes."""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import pickle
import subprocess
import sys

import pytest

import symsearch as ss
from conftest import strict_json
from symsearch import cli, errors, hyper, schema

BASE = [sys.executable, "-m", "symsearch.cli"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def test_inspect_builtin():
    result = run_cli("inspect", "--builtin", "nasbench", "--nodes", "3", "--ops", "3")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["space_size"] == 216
    assert len(doc["decision_spec"]["points"]) == 6


def test_inspect_space_file(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text('{"width":{"_hyper":"oneof","candidates":[8,16],"hints":null},'
                          '"rate":{"_hyper":"floatv","min":0.0,"max":1.0,"hints":null}}')
    result = run_cli("inspect", "--space", str(space_file))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["space_size"] == "infinite"


def test_enumerate_builtin():
    result = run_cli("enumerate", "--builtin", "nasbench", "--nodes", "2", "--ops", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 8
    assert lines[0] == "0|0|0"
    assert lines[-1] == "1|1|1"


def test_enumerate_limit():
    result = run_cli("enumerate", "--builtin", "nasbench", "--limit", "5")
    assert len(result.stdout.splitlines()) == 5
    result = run_cli("enumerate", "--builtin", "nasbench", "--limit", "0")
    assert result.returncode == 0
    assert result.stdout == ""


def test_enumerate_negative_limit_is_usage_error():
    result = run_cli("enumerate", "--builtin", "nasbench", "--limit", "-1")
    assert result.returncode == 2
    assert "error: --limit must be >= 0" in result.stderr
    assert result.stdout == ""


def test_enumerate_continuous_is_runtime_error(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text('{"_hyper":"floatv","min":0.0,"max":1.0,"hints":null}')
    result = run_cli("enumerate", "--space", str(space_file))
    assert result.returncode == 1
    assert "error" in result.stderr


def test_search_writes_deterministic_logs(tmp_path):
    args = ("search", "--builtin", "nasbench", "--nodes", "3", "--ops", "3",
            "--oracle", "synthetic", "--oracle-seed", "7", "--algo", "regevo",
            "--flow", "joint", "--trials", "40", "--seed", "1")
    first = run_cli(*args, "--out", str(tmp_path / "a.jsonl"))
    second = run_cli(*args, "--out", str(tmp_path / "b.jsonl"))
    assert first.returncode == 0 and second.returncode == 0
    log_a = (tmp_path / "a.jsonl").read_bytes()
    log_b = (tmp_path / "b.jsonl").read_bytes()
    assert log_a == log_b
    assert len(log_a.splitlines()) == 40
    summary = json.loads((tmp_path / "a.summary.json").read_text())
    assert summary["oracle_calls"] == 40
    assert summary["flow"] == "joint"


def test_search_flows_and_partition(tmp_path):
    result = run_cli("search", "--builtin", "nasbench", "--nodes", "3", "--ops", "3",
                     "--oracle", "synthetic", "--algo", "random",
                     "--flow", "factorized", "--trials", "4", "--inner-trials", "3",
                     "--partition", "op", "--seed", "0",
                     "--out", str(tmp_path / "f.jsonl"))
    assert result.returncode == 0
    summary = json.loads(result.stdout)
    assert summary["oracle_calls"] == 12


def test_search_usage_errors():
    result = run_cli("search", "--builtin", "nasbench", "--oracle", "synthetic",
                     "--flow", "factorized", "--trials", "5")
    assert result.returncode == 2
    assert "--partition" in result.stderr
    result = run_cli("search", "--builtin", "nasbench", "--oracle", "table", "--trials", "5")
    assert result.returncode == 2
    for command in (("search", "--trials", "5", "--oracle", "synthetic"), ("inspect",)):
        result = run_cli(*command)
        assert result.returncode == 2
        assert "error: exactly one of --space and --builtin is required" in result.stderr
    result = run_cli("search", "--builtin", "nasbench", "--oracle", "synthetic",
                     "--flow", "hybrid", "--trials", "5", "--inner-trials", "2",
                     "--partition", "op")
    assert result.returncode == 2  # missing --phase2-trials
    separate = ("search", "--builtin", "nasbench", "--oracle", "synthetic",
                "--flow", "separate", "--trials", "5")
    for given, missing in ((("--phase2-trials", "3"), "--partition"),
                           (("--partition", "op"), "--phase2-trials")):
        result = run_cli(*separate, *given)
        assert result.returncode == 2
        assert f"error: --flow separate requires {missing}" in result.stderr


def test_search_has_no_timing_flag():
    result = run_cli("search", "--builtin", "nasbench", "--oracle", "synthetic",
                     "--trials", "5", "--timing")
    assert result.returncode == 2
    assert "unrecognized arguments: --timing" in result.stderr


def test_search_repeat_runs(tmp_path):
    """Each run writes its own log and summary, whether or not ``--out`` has
    a suffix."""
    for out, suffix in (("r.jsonl", ".jsonl"), ("r", "")):
        result = run_cli("search", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
                         "--oracle", "synthetic", "--algo", "random", "--flow", "joint",
                         "--trials", "5", "--seed", "3", "--repeat", "3", "--jobs", "2",
                         "--out", str(tmp_path / out))
        assert result.returncode == 0
        summaries = [json.loads(line) for line in result.stdout.splitlines()]
        assert [s["run_index"] for s in summaries] == [0, 1, 2]
        assert [s["seed"] for s in summaries] == [3, 4, 5]
        for i in range(3):
            assert (tmp_path / f"r.{i}{suffix}").exists()
            summary = json.loads((tmp_path / f"r.{i}.summary.json").read_text())
            assert summary["seed"] == 3 + i
        for i in range(3):
            (tmp_path / f"r.{i}.summary.json").unlink()
    assert not (tmp_path / "r.summary.json").exists()


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that records ``max_workers`` and
    runs each submitted call in this process, so it starts no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_jobs_above_repeat_make_one_worker_per_run(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    assert cli.main(["search", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
                     "--oracle", "synthetic", "--trials", "3", "--repeat", "2",
                     "--jobs", "100000"]) == 0
    assert RecordingPool.sizes == [2]
    summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [s["run_index"] for s in summaries] == [0, 1]


def test_main_builds_one_parser_and_carries_no_state_between_calls(tmp_path, monkeypatch,
                                                                    capsys):
    """Calls in one process share the parser; a usage error, a runtime
    error and an overridden default leave nothing for the next call."""
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    search = ["search", "--builtin", "nasbench", "--nodes", "3", "--ops", "3",
              "--oracle", "synthetic", "--oracle-seed", "4", "--algo", "regevo",
              "--trials", "40", "--seed", "2"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(search + ["--tournament", "0"])
    assert exit_info.value.code == 2
    assert "--tournament must be between 1 and --population" in capsys.readouterr().err
    assert cli.main(["search", "--builtin", "nasbench", "--oracle", "table",
                     "--table", str(tmp_path / "missing.json"), "--trials", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(search + ["--population", "7", "--out", str(tmp_path / "p.jsonl")]) == 0
    assert cli.main(search + ["--out", str(tmp_path / "a.jsonl")]) == 0
    assert len(parsers) == 4 and all(parser is parsers[0] for parser in parsers)
    assert parsers[0] is cli.build_parser()
    stdout = capsys.readouterr().out.splitlines()[-1]

    fresh = run_cli(*search, "--out", str(tmp_path / "b.jsonl"))
    assert fresh.returncode == 0 and fresh.stdout.splitlines() == [stdout]
    for name in ("{}.jsonl", "{}.summary.json"):
        assert ((tmp_path / name.format("a")).read_bytes()
                == (tmp_path / name.format("b")).read_bytes())
    assert ((tmp_path / "p.jsonl").read_bytes()  # the population flag changed the search
            != (tmp_path / "a.jsonl").read_bytes())


def test_dump_table_then_search_reproduces(tmp_path):
    table_path = tmp_path / "table.json"
    result = run_cli("dump-table", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
                     "--oracle-seed", "9", "--out", str(table_path))
    assert result.returncode == 0
    synth = run_cli("search", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
                    "--oracle", "synthetic", "--oracle-seed", "9", "--algo", "random",
                    "--flow", "joint", "--trials", "20", "--seed", "5",
                    "--out", str(tmp_path / "s.jsonl"))
    tabled = run_cli("search", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
                     "--oracle", "table", "--table", str(table_path), "--algo", "random",
                     "--flow", "joint", "--trials", "20", "--seed", "5",
                     "--out", str(tmp_path / "t.jsonl"))
    assert synth.returncode == 0 and tabled.returncode == 0
    assert (tmp_path / "s.jsonl").read_bytes() == (tmp_path / "t.jsonl").read_bytes()


def test_dump_table_takes_its_space_from_builtin_only(tmp_path):
    table_path = tmp_path / "table.json"
    result = run_cli("dump-table", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
                     "--space", str(tmp_path / "missing.json"), "--out", str(table_path))
    assert result.returncode == 2
    assert "error: exactly one of --space and --builtin is required" in result.stderr
    result = run_cli("dump-table", "--space", str(tmp_path / "missing.json"),
                     "--out", str(table_path))
    assert result.returncode == 2
    assert "error: dump-table requires --builtin" in result.stderr
    assert not table_path.exists()


def test_search_table_with_int_points_finds_the_best(tmp_path, capsys):
    """A table over a top-level intv and one nested under a oneof candidate
    loads with the space's spec and an exhaustive search finds its best."""
    space = ss.Mapping({"a": ss.oneof([ss.intv(0, 2), 5]), "b": ss.intv(0, 1)})
    spec = ss.abstract_search_space(space)
    texts = [ss.encode_dna(dna, spec) for dna in ss.enumerate_dnas(spec)]
    rewards = {text: (3 * i % 8) / 8 for i, text in enumerate(texts)}
    space_path, table_path = tmp_path / "space.json", tmp_path / "table.json"
    space_path.write_text(ss.serialize(space))
    ss.TableOracle(spec, rewards).save(table_path)
    assert len(texts) == 8
    assert ss.isomorphic(ss.TableOracle.load(table_path).spec, spec)
    code = cli.main(["search", "--space", str(space_path), "--oracle", "table",
                     "--table", str(table_path), "--algo", "exhaustive", "--trials", "8"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    best = max(texts, key=rewards.get)
    assert (summary["best_dna"], summary["best_reward"]) == (best, rewards[best])


def test_search_table_with_a_float_point_is_runtime_error(tmp_path, capsys):
    space = ss.Mapping({"a": ss.oneof([1, 2]), "rate": ss.floatv(0.0, 1.0)})
    space_path, table_path = tmp_path / "space.json", tmp_path / "table.json"
    space_path.write_text(ss.serialize(space))
    spec = ss.spec_to_json_obj(ss.abstract_search_space(space))
    table_path.write_text(json.dumps({"spec": spec, "rewards": {}}))
    code = cli.main(["search", "--space", str(space_path), "--oracle", "table",
                     "--table", str(table_path), "--algo", "random", "--trials", "2"])
    assert code == 1
    assert capsys.readouterr().err == "error: table oracles require fully discrete spaces\n"


def test_search_table_unknown_key_is_runtime_error(tmp_path):
    table_path = tmp_path / "table.json"
    run_cli("dump-table", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
            "--out", str(table_path))
    doc = json.loads(table_path.read_text())
    doc["rewards"].pop("0|0|0")
    table_path.write_text(json.dumps(doc))
    result = run_cli("search", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
                     "--oracle", "table", "--table", str(table_path), "--algo",
                     "exhaustive", "--flow", "joint", "--trials", "8", "--seed", "0")
    assert result.returncode == 1
    assert "0|0|0" in result.stderr


def test_search_table_that_does_not_fit_the_space_fails_at_load(tmp_path):
    table_path = tmp_path / "table.json"
    run_cli("dump-table", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
            "--out", str(table_path))
    result = run_cli("search", "--builtin", "nasbench", "--nodes", "3", "--ops", "2",
                     "--oracle", "table", "--table", str(table_path), "--trials", "4",
                     "--out", str(tmp_path / "run.jsonl"))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "does not fit the search space" in result.stderr
    assert not (tmp_path / "run.jsonl").exists()


def test_search_table_non_canonical_key_fails_at_load(tmp_path):
    table_path = tmp_path / "table.json"
    run_cli("dump-table", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
            "--out", str(table_path))
    doc = json.loads(table_path.read_text())
    doc["rewards"]["+1|0|1"] = doc["rewards"].pop("1|0|1")
    table_path.write_text(json.dumps(doc))
    result = run_cli("search", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
                     "--oracle", "table", "--table", str(table_path), "--algo",
                     "exhaustive", "--flow", "joint", "--trials", "8", "--seed", "0",
                     "--out", str(tmp_path / "run.jsonl"))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "'+1|0|1'" in result.stderr
    assert "no reward recorded" not in result.stderr
    assert not (tmp_path / "run.jsonl").exists()


@pytest.fixture(scope="module")
def nasbench_table_text(tmp_path_factory):
    table_path = tmp_path_factory.mktemp("dump") / "table.json"
    run_cli("dump-table", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
            "--out", str(table_path))
    return table_path.read_text()


@pytest.mark.parametrize("fields", [
    {"k": 1.5},
    {"distinct": "no"},
    {"kind": "float", "min": 0.0, "max": 10 ** 400},
    {"subspaces": [{}, {}]},
    {"subspaces": [{"a": 1}, {"a": 1}]},
    {"rewards": []},
])
def test_search_table_with_malformed_spec_is_runtime_error(tmp_path, nasbench_table_text, fields):
    """`fields` replace those of the first point, or of the table for `rewards`."""
    doc = json.loads(nasbench_table_text)
    (doc if "rewards" in fields else doc["spec"]["points"][0]).update(fields)
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(doc))
    result = search_table(tmp_path, table_path)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "run.jsonl").exists()


def write_table(tmp_path, key, reward):
    table_path = tmp_path / "table.json"
    run_cli("dump-table", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
            "--out", str(table_path))
    doc = json.loads(table_path.read_text())
    doc["rewards"][key] = reward
    table_path.write_text(json.dumps(doc))  # non-finite values as bare tokens
    return table_path


def search_table(tmp_path, table_path):
    return run_cli("search", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
                   "--oracle", "table", "--table", str(table_path), "--algo",
                   "exhaustive", "--flow", "joint", "--trials", "8", "--seed", "0",
                   "--out", str(tmp_path / "run.jsonl"))


def assert_bad_reward_error(result):
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "'0|1|0'" in result.stderr
    assert "Traceback" not in result.stderr


def test_search_nan_reward_is_runtime_error(tmp_path):
    assert_bad_reward_error(search_table(tmp_path, write_table(tmp_path, "0|1|0", float("nan"))))


def test_search_positive_infinite_reward_is_runtime_error(tmp_path):
    assert_bad_reward_error(search_table(tmp_path, write_table(tmp_path, "0|1|0", float("inf"))))


@pytest.mark.parametrize("reward", [True, "0.5", 10 ** 400])
def test_search_reward_that_is_not_a_json_number_is_runtime_error(tmp_path, nasbench_table_text,
                                                                    reward):
    doc = json.loads(nasbench_table_text)
    doc["rewards"]["0|1|0"] = reward
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(doc))
    result = search_table(tmp_path, table_path)
    assert_bad_reward_error(result)
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "run.jsonl").exists()


def test_search_infeasible_reward_is_logged_as_null(tmp_path):
    result = search_table(tmp_path, write_table(tmp_path, "0|0|0", float("-inf")))
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "run.jsonl").read_text().splitlines()
    records = [strict_json(line) for line in lines]
    assert records[0]["dna"] == "0|0|0"
    assert records[0]["reward"] is None and records[0]["best_so_far"] is None
    assert all(isinstance(r["reward"], float) for r in records[1:])
    summary = strict_json((tmp_path / "run.summary.json").read_text())
    assert summary["best_reward"] == max(r["reward"] for r in records[1:])
    printed = strict_json(result.stdout)
    assert printed["best_reward"] == summary["best_reward"]


def test_search_separate_flow(tmp_path):
    result = run_cli("search", "--builtin", "nasbench", "--nodes", "3", "--ops", "3",
                     "--oracle", "synthetic", "--algo", "random", "--flow", "separate",
                     "--trials", "6", "--phase2-trials", "4", "--partition", "op",
                     "--seed", "2", "--out", str(tmp_path / "sep.jsonl"))
    assert result.returncode == 0
    summary = json.loads(result.stdout)
    assert summary["oracle_calls"] == 10
    lines = (tmp_path / "sep.jsonl").read_text().splitlines()
    assert len(lines) == 10


def test_search_separate_flow_with_pivot_file(tmp_path):
    pivot = tmp_path / "pivot.json"
    pivot.write_text("[[2,1,0],[1,1,0]]")
    args = ("search", "--builtin", "nasbench", "--nodes", "3", "--ops", "3",
            "--oracle", "synthetic", "--algo", "random", "--flow", "separate",
            "--trials", "4", "--phase2-trials", "3", "--partition", "op", "--seed", "2",
            "--pivot", str(pivot), "--out", str(tmp_path / "sep.jsonl"))
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in (tmp_path / "sep.jsonl").read_text().splitlines()]
    assert len(records) == 7
    assert all(record["dna"].endswith("|1|1|0") for record in records[:4])  # pivot's edges

    pivot.write_text("[[2,1,7],[1,1,0]]")  # 7 is no op of the space
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_worker_error_prints_the_same_error_line(tmp_path, jobs):
    """An error raised in a ``--jobs`` worker crosses back to the parent whole,
    so the run ends as under ``--jobs 1``: one ``error:`` line, exit 1."""
    pivot = tmp_path / "bad.json"
    pivot.write_text("[[9,9,9],[0,0,0]]")
    result = run_cli("search", "--builtin", "nasbench", "--nodes", "3", "--ops", "2",
                     "--oracle", "synthetic", "--flow", "separate", "--partition", "op",
                     "--pivot", str(pivot), "--trials", "3", "--phase2-trials", "3",
                     "--repeat", "2", "--jobs", jobs)
    assert result.returncode == 1
    assert result.stderr == ("error: decision at '<infer>': "
                             "program does not match the search space\n")
    assert result.stdout == ""


def test_every_error_that_carries_fields_survives_pickling():
    """Type, fields and text of a pickled copy, as a worker's error comes back."""
    with pytest.raises(errors.ConstraintViolation) as refused:
        schema.ListOf(schema.Int(max=3)).check(ss.to_symbolic([1, 9]), "xs")
    with pytest.raises(errors.BadPoint) as bad_hints:
        hyper.intv(0, 1, hints=7)
    with pytest.raises(errors.EmptyCandidates) as empty:
        hyper.oneof([])
    with pytest.raises(errors.BadRange) as bad_range:
        hyper.intv(3, 1)
    with pytest.raises(errors.KTooLarge) as too_many:
        hyper.manyof(3, [1, 2])
    fields = {
        errors.ConstraintViolation: ("path", "spec", "value", "reason"),
        errors.BadPoint: ("label", "detail"),
        errors.NonconformingDNA: ("point_id", "reason"),
        errors.DecisionStreamMismatch: ("call_index", "reason"),
    }
    instances = [
        refused.value,
        errors.ConstraintViolation("p", schema.Int(), ss.to_symbolic("v")),
        bad_hints.value, empty.value, bad_range.value, too_many.value,
        errors.NonconformingDNA("<infer>", "program does not match the search space"),
        errors.DecisionStreamMismatch(3, "more decisions requested than registered"),
    ]
    assert [str(instances[i]) for i in (1, 6, 7)] == [
        "value at 'p' violates Int(min=None, max=None): 'v'",
        "decision at '<infer>': program does not match the search space",
        "eager call #3: more decisions requested than registered"]
    carrying = {cls for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, tuple(fields))}
    assert carrying == {type(error) for error in instances}
    for error in instances:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and str(copy) == str(error)
        names = next(names for cls, names in fields.items() if isinstance(error, cls))
        for name in names:
            kept, made = getattr(copy, name), getattr(error, name)
            assert (type(kept), repr(kept)) == (type(made), repr(made)), (error, name)


def test_a_refusal_inside_a_tree_that_cannot_be_pickled_survives_pickling():
    """A refused node pickles without its ancestors, so a refusal inside a
    tree whose functor's `impl` is a lambda crosses a process boundary."""
    f_type = ss.TypeDef("F", [ss.Param("x", schema.Int())], impl=lambda x: x)
    g_type = ss.TypeDef("G", [ss.Param("f", schema.ObjectOf("F")), ss.Param("n", schema.Int(min=0))])
    with pytest.raises(errors.ConstraintViolation) as refused:
        ss.rebind(g_type(f=f_type(x=1), n=1), {"n": -1})
    copy = pickle.loads(pickle.dumps(refused.value))
    assert type(copy) is errors.ConstraintViolation and str(copy) == str(refused.value)
    assert copy.path == "n" and copy.value == -1 and ss.parent_of(copy.value) is None


def test_search_hybrid_flow(tmp_path):
    result = run_cli("search", "--builtin", "nasbench", "--nodes", "3", "--ops", "3",
                     "--oracle", "synthetic", "--algo", "regevo", "--flow", "hybrid",
                     "--trials", "3", "--inner-trials", "4", "--phase2-trials", "5",
                     "--partition", "op", "--population", "4", "--tournament", "2",
                     "--seed", "0")
    assert result.returncode == 0
    summary = json.loads(result.stdout)
    assert summary["oracle_calls"] == 3 * 4 + 5


NAS_SEARCH = ("search", "--builtin", "nasbench", "--nodes", "3", "--ops", "3",
              "--oracle", "synthetic", "--seed", "0")


@pytest.mark.parametrize("flags, message", [
    (("--trials", "-3"), "--trials"),
    (("--flow", "separate", "--partition", "op", "--trials", "0",
      "--phase2-trials", "4"), "--trials"),
    (("--flow", "factorized", "--partition", "op", "--trials", "2",
      "--inner-trials", "-1"), "--inner-trials"),
    (("--flow", "hybrid", "--partition", "op", "--trials", "2", "--inner-trials", "2",
      "--phase2-trials", "-5"), "--phase2-trials"),
    (("--trials", "5", "--population", "0"), "--population"),
    (("--trials", "5", "--tournament", "30"), "--tournament"),
    (("--trials", "5", "--tournament", "0"), "--tournament"),
])
def test_search_bad_budget_and_size_flags_are_usage_errors(tmp_path, flags, message):
    log = tmp_path / "log.jsonl"
    result = run_cli(*NAS_SEARCH, *flags, "--out", str(log))
    assert result.returncode == 2
    assert f"error: {message} must be" in result.stderr
    assert "Traceback" not in result.stderr
    assert not log.exists()


@pytest.mark.parametrize("document", [
    '{"_hyper":"intv","min":1.5,"max":3}',
    '{"_hyper":"oneof","candidates":5}',
    '{"_hyper":"floatv","min":0,"max":"x"}',
    '{"_hyper":"floatv","min":0,"max":1e400}',
    '{"_hyper":"intv","min":1,"max":3,"step":2}',
    '{"_hyper":"oneof","candidates":[1,2],"k":2}',
    # Numbers the JSON parser itself cannot hold: a float that overflows to
    # inf, and an int with more digits than int() reads.
    pytest.param("[1e400]", id="float-overflow"),
    pytest.param('{"_hyper":"intv","min":0,"max":1' + "0" * sys.get_int_max_str_digits() + "}",
                 id="int-over-the-digit-limit"),
])
def test_malformed_hyper_document_is_runtime_error(tmp_path, document):
    space_file = tmp_path / "space.json"
    space_file.write_text(document)
    result = run_cli("inspect", "--space", str(space_file))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("flag", ["--space", "--pivot"])
def test_a_file_that_is_not_utf8_is_a_runtime_error_naming_it(tmp_path, flag):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe[\x001\x00]\x00")
    if flag == "--space":
        args = ("inspect", "--space", str(bad))
    else:
        args = ("search", "--builtin", "nasbench", "--nodes", "3", "--ops", "3",
                "--oracle", "synthetic", "--flow", "separate", "--partition", "op",
                "--trials", "2", "--phase2-trials", "2", "--pivot", str(bad))
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {bad} is not UTF-8 text")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("broken", ["space", "pivot"])
def test_a_refused_space_or_pivot_file_is_named_in_the_error(tmp_path, capsys, broken):
    """With both ``--space`` and ``--pivot`` given, the one error line says
    which file's contents were refused."""
    space = ss.build_nasbench_space(3, 3)
    files = {"space": tmp_path / "space.json", "pivot": tmp_path / "pivot.json"}
    files["space"].write_text(ss.serialize(space))
    files["pivot"].write_text(ss.serialize(ss.materialize(space, ss.minimal_dna(ss.abstract_search_space(space)))))
    table = tmp_path / "table.json"
    assert cli.main(["dump-table", "--builtin", "nasbench", "--nodes", "3", "--ops", "3", "--out", str(table)]) == 0
    args = ["search", "--space", str(files["space"]), "--oracle", "table", "--table", str(table),
            "--flow", "separate", "--partition", "op", "--trials", "2", "--phase2-trials", "2",
            "--pivot", str(files["pivot"])]
    assert cli.main(args) == 0
    capsys.readouterr()
    files[broken].write_text("")
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {files[broken]}: invalid JSON: Expecting value: line 1 column 1 (char 0)\n"
    assert captured.out == ""


@pytest.mark.parametrize("depth", [900, 3000])
def test_deeply_nested_space_is_runtime_error(tmp_path, depth):
    space_file = tmp_path / "deep.json"
    space_file.write_text("[" * depth + "1" + "]" * depth)
    for command in (("inspect",),
                    ("search", "--oracle", "table", "--table", str(tmp_path / "t.json"),
                     "--trials", "1")):
        result = run_cli(*command, "--space", str(space_file))
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
