"""Command-line interface: outputs, determinism and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import strict_json

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


def test_search_repeat_runs(tmp_path):
    result = run_cli("search", "--builtin", "nasbench", "--nodes", "2", "--ops", "2",
                     "--oracle", "synthetic", "--algo", "random", "--flow", "joint",
                     "--trials", "5", "--seed", "3", "--repeat", "3", "--jobs", "2",
                     "--out", str(tmp_path / "r.jsonl"))
    assert result.returncode == 0
    summaries = [json.loads(line) for line in result.stdout.splitlines()]
    assert [s["run_index"] for s in summaries] == [0, 1, 2]
    assert {s["seed"] for s in summaries} == {3, 4, 5}
    for i in range(3):
        assert (tmp_path / f"r.{i}.jsonl").exists()
        assert (tmp_path / f"r.{i}.summary.json").exists()


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
])
def test_malformed_hyper_document_is_runtime_error(tmp_path, document):
    space_file = tmp_path / "space.json"
    space_file.write_text(document)
    result = run_cli("inspect", "--space", str(space_file))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


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
