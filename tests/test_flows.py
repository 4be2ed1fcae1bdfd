"""Sampling loop semantics, flow compositions and budget accounting."""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import math
import re
import sys
import tracemalloc

import pytest

import symsearch as ss
from conftest import strict_json
from symsearch import algorithms, cli, decisions
from symsearch.algorithms import Exhaustive, RandomSearch, RegularizedEvolution, SearchAlgorithm
from symsearch.decisions import (DNA, Choice, abstract_search_space, decode_dna, enumerate_dnas,
                                 minimal_dna)
from symsearch.errors import (
    DoubleFeedback,
    EmptyRewards,
    EmptySelection,
    FeedbackSkipped,
    InvalidReward,
    NonconformingDNA,
    UnsupportedSpace,
)
from symsearch.flows import (
    AGGREGATORS,
    FlowReport,
    SearchLoop,
    TrialRecord,
    _json_reward,
    run_factorized,
    run_hybrid,
    run_joint,
    run_separate,
    sample,
    top5_average,
)
from symsearch.hyper import oneof, permutate
from symsearch.materialize import materialize
from symsearch.oracles import (
    OP_HINT,
    SyntheticNASOracle,
    build_nasbench_space,
    eval_oracle,
)


@pytest.fixture()
def bench():
    space = build_nasbench_space(3, 3)
    spec = abstract_search_space(space)
    oracle = SyntheticNASOracle(3, 3, seed=7)
    reward = lambda child, dna: eval_oracle(oracle, dna, spec)
    return space, spec, oracle, reward


# The package's ``materialize`` attribute is the function of that name.
materialize_module = importlib.import_module("symsearch.materialize")


def op_selector(point):
    return point.hints == OP_HINT


# -- sample -----------------------------------------------------------------------

def test_sample_joint_yields_deterministic_programs(bench):
    space, spec, oracle, reward = bench
    count = 0
    for child, feedback in sample(space, RegularizedEvolution(5, 2, seed=0), budget=30):
        assert ss.is_deterministic(child)
        feedback(reward(child, feedback.dna))
        count += 1
    assert count == 30


def test_sample_partitioned_yields_subspaces(bench):
    space, spec, oracle, reward = bench
    for sub_space, feedback in sample(space, RandomSearch(seed=1),
                                      partition=op_selector, budget=5):
        remaining = abstract_search_space(sub_space)
        assert not remaining.is_empty
        assert all(p.hints == "edge" for p in remaining.points)
        feedback(0.0)


def test_sample_exhaustive_stops_at_space_end():
    space = permutate([1, 2, 3])
    children = []
    for child, feedback in sample(space, Exhaustive(), budget=10):
        children.append(child)
        feedback(0.0)
    assert len(children) == 6


def test_sample_double_feedback_raises(bench):
    space, *_ = bench
    stream = sample(space, RandomSearch(seed=0), budget=2)
    child, feedback = next(stream)
    feedback(1.0)
    with pytest.raises(DoubleFeedback):
        feedback(1.0)


def test_sample_strict_mode_rejects_skips(bench):
    space, *_ = bench
    stream = sample(space, RandomSearch(seed=0), budget=3)
    next(stream)
    with pytest.raises(FeedbackSkipped):
        next(stream)
    # the last trial of a budget is settled too, as the last of a space is
    stream = sample(oneof([1, 2, 3]), RandomSearch(seed=0), budget=2)
    next(stream)[1](0.0)
    next(stream)
    with pytest.raises(FeedbackSkipped):
        next(stream)
    with pytest.raises(FeedbackSkipped):
        for child, feedback in sample(oneof([1, 2, 3]), Exhaustive(), budget=5):
            pass


def test_sample_lenient_mode_feeds_neg_inf(bench):
    space, *_ = bench
    algo = RegularizedEvolution(2, 1, seed=0)
    stream = sample(space, algo, budget=3, strict=False)
    next(stream)
    next(stream)  # the skipped trial silently becomes reward -inf
    assert [entry[2] for entry in algo.population] == [float("-inf")]
    algo = RegularizedEvolution(5, 1, seed=0)
    assert len(list(sample(space, algo, budget=3, strict=False))) == 3
    assert [entry[2] for entry in algo.population] == [float("-inf")] * 3


@pytest.mark.parametrize("bad", ["nan", "0.5", True, float("inf"), float("nan")],
                         ids=["nan-text", "text", "bool", "plus-inf", "nan"])
def test_every_feedback_route_refuses_a_reward_the_rule_refuses(bench, bad):
    """The handle, ``feedback`` and ``seed_feedback`` hold rewards to the
    one reward rule, naming the DNA; a refused reward changes nothing, so
    no NaN reaches the population."""
    space, spec, *_ = bench
    algo = RegularizedEvolution(4, 1, seed=0)
    child, handle = next(sample(space, algo, budget=1))
    with pytest.raises(InvalidReward, match=rf"^the reward for DNA '{re.escape(handle.dna_text)}' "):
        handle(bad)
    assert not handle.used
    handle(0.25)
    dna = algo.propose()
    text = ss.encode_dna(dna, spec)
    with pytest.raises(InvalidReward, match=rf"^the reward for DNA '{re.escape(text)}' "):
        algo.feedback(dna, bad)
    algo.feedback(dna, 0.5)  # the refused reward left the proposal outstanding
    with pytest.raises(InvalidReward, match=rf"^the reward for DNA '{re.escape(text)}' "):
        algo.seed_feedback(dna, bad)
    algo.seed_feedback(dna, -float("inf"))
    assert [entry[2] for entry in algo.population] == [0.25, 0.5, -float("inf")]


def test_sample_empty_partition_raises(bench):
    space, *_ = bench
    with pytest.raises(EmptySelection):
        next(sample(space, RandomSearch(seed=0), partition=lambda p: False, budget=1))


# -- budget accounting ----------------------------------------------------------------

def test_budget_joint(bench):
    space, spec, oracle, reward = bench
    report = run_joint(space, RandomSearch(seed=0), reward, trials=17)
    assert report.oracle_calls == 17


def test_budget_factorized(bench):
    space, spec, oracle, reward = bench
    report = run_factorized(
        space, op_selector,
        SearchLoop(lambda s: RandomSearch(seed=s), 6, seed=0),
        SearchLoop(lambda s: RandomSearch(seed=s), 5, seed=0),
        reward)
    assert report.oracle_calls == 30
    assert report.budgets == {"outer_trials": 6, "inner_trials": 5}


def test_budget_hybrid(bench):
    space, spec, oracle, reward = bench
    report = run_hybrid(
        space, op_selector,
        SearchLoop(lambda s: RegularizedEvolution(3, 2, seed=s), 4, seed=0),
        SearchLoop(lambda s: RegularizedEvolution(3, 2, seed=s), 5, seed=0),
        7, reward)
    assert report.oracle_calls == 4 * 5 + 7


def test_budget_separate(bench):
    space, spec, oracle, reward = bench
    pivot = materialize(space, minimal_dna(spec))
    report = run_separate(
        space, op_selector, pivot,
        SearchLoop(lambda s: RandomSearch(seed=s), 8, seed=0),
        SearchLoop(lambda s: RandomSearch(seed=s), 5, seed=1),
        reward)
    assert report.oracle_calls == 13


# -- flow behaviour ----------------------------------------------------------------------

def test_best_so_far_non_decreasing(bench):
    space, spec, oracle, reward = bench
    reports = [
        run_joint(space, RandomSearch(seed=3), reward, trials=40),
        run_factorized(space, op_selector,
                       SearchLoop(lambda s: RandomSearch(seed=s), 5, seed=3),
                       SearchLoop(lambda s: RandomSearch(seed=s), 4, seed=3), reward),
        run_hybrid(space, op_selector,
                   SearchLoop(lambda s: RegularizedEvolution(3, 2, seed=s), 3, seed=3),
                   SearchLoop(lambda s: RegularizedEvolution(3, 2, seed=s), 4, seed=3),
                   6, reward),
    ]
    for report in reports:
        values = [record.best_so_far for record in report.records]
        assert values == sorted(values)
        assert values[-1] == max(record.reward for record in report.records)


def test_joint_exhaustive_equals_enumerate_argmax(bench):
    space, spec, oracle, reward = bench
    report = run_joint(space, Exhaustive(), reward, trials=500)
    assert report.oracle_calls == 216
    best_index, best = None, None
    for i, dna in enumerate(enumerate_dnas(spec)):
        value = eval_oracle(oracle, dna, spec)
        if best is None or value > best:
            best_index, best = i, value
    assert report.best_reward == best
    assert report.records[best_index].reward == best
    # tie-breaking: the recorded best dna is the first in enumeration order
    firsts = [r.trial_index for r in report.records if r.reward == best]
    assert report.best_dna == report.records[firsts[0]].dna


def test_factorized_fresh_inner_algorithm_each_outer(bench):
    space, spec, oracle, reward = bench
    built = []

    def make_inner(seed):
        algo = RegularizedEvolution(2, 1, seed=seed)
        built.append(algo)
        return algo

    run_factorized(space, op_selector,
                   SearchLoop(lambda s: RandomSearch(seed=s), 3, seed=0),
                   SearchLoop(make_inner, 4, seed=0),
                   reward)
    assert len(built) == 3
    assert len({id(a) for a in built}) == 3


def test_hybrid_resumes_best_population(bench):
    space, spec, oracle, reward = bench
    inner_instances = []

    def make_inner(seed):
        algo = RegularizedEvolution(3, 2, seed=seed)
        inner_instances.append(algo)
        return algo

    phase1_populations = {}

    class SnoopingOracle:
        def __call__(self, child, dna):
            return reward(child, dna)

    report = run_hybrid(space, op_selector,
                        SearchLoop(lambda s: RandomSearch(seed=s), 3, seed=5),
                        SearchLoop(make_inner, 4, seed=5),
                        6, SnoopingOracle())
    assert report.oracle_calls == 18
    # exactly one inner algorithm kept receiving feedback after phase 1
    resumed = [a for a in inner_instances if a._feedback_count > 4]
    assert len(resumed) == 1
    assert resumed[0]._feedback_count == 10


def test_hybrid_phase2_best_at_least_handoff(bench):
    space, spec, oracle, reward = bench
    for seed in range(6):
        report = run_hybrid(space, op_selector,
                            SearchLoop(lambda s: RegularizedEvolution(3, 2, seed=s), 3, seed=seed),
                            SearchLoop(lambda s: RegularizedEvolution(3, 2, seed=s), 4, seed=seed),
                            8, reward)
        handoff = report.records[3 * 4 - 1].best_so_far
        for record in report.records[3 * 4:]:
            assert record.best_so_far >= handoff


def test_hybrid_zero_phase2_equals_factorized(bench):
    space, spec, oracle, reward = bench
    hybrid = run_hybrid(space, op_selector,
                        SearchLoop(lambda s: RandomSearch(seed=s), 3, seed=1),
                        SearchLoop(lambda s: RandomSearch(seed=s), 4, seed=1),
                        0, reward)
    factorized = run_factorized(space, op_selector,
                                SearchLoop(lambda s: RandomSearch(seed=s), 3, seed=1),
                                SearchLoop(lambda s: RandomSearch(seed=s), 4, seed=1),
                                reward)
    assert [r.dna for r in hybrid.records] == [r.dna for r in factorized.records]
    assert [r.reward for r in hybrid.records] == [r.reward for r in factorized.records]


def test_separate_phases_fix_each_other(bench, types):
    space, spec, oracle, reward = bench
    pivot = materialize(space, minimal_dna(spec))
    seen_children = []

    def snoop(child, dna):
        seen_children.append(child)
        return reward(child, dna)

    report = run_separate(space, op_selector, pivot,
                          SearchLoop(lambda s: RandomSearch(seed=s), 4, seed=0),
                          SearchLoop(lambda s: RandomSearch(seed=s), 3, seed=1),
                          snoop)
    # phase A children share the pivot's edge settings
    pivot_edges = pivot[1]
    for child in seen_children[:4]:
        assert ss.equal(child[1], pivot_edges)
    # phase B children share the best phase-A op settings
    best_a = max(report.records[:4], key=lambda r: r.reward)
    winners = [c for c, r in zip(seen_children[:4], report.records[:4])
               if r.reward == best_a.reward]
    for child in seen_children[4:]:
        assert any(ss.equal(child[0], w[0]) for w in winners)


def test_separate_selector_all_runs_single_joint_phase(bench):
    space, spec, oracle, reward = bench
    pivot = materialize(space, minimal_dna(spec))
    report = run_separate(space, lambda p: True, pivot,
                          SearchLoop(lambda s: RandomSearch(seed=s), 6, seed=0),
                          SearchLoop(lambda s: RandomSearch(seed=s), 9, seed=1),
                          reward)
    assert report.oracle_calls == 6  # phase B has nothing left to optimize
    joint = run_joint(space, RandomSearch(seed=0), reward, trials=6)
    assert [r.reward for r in report.records] == [r.reward for r in joint.records]


def test_separate_rejects_cross_nested_partition(types):
    space = oneof([types.Conv(oneof([2, 4], hints="inner"), 3), types.Identity()],
                  hints="outer")
    spec = abstract_search_space(space)
    pivot = materialize(space, minimal_dna(spec))
    with pytest.raises(UnsupportedSpace):
        run_separate(space, lambda p: p.hints == "outer", pivot,
                     SearchLoop(lambda s: RandomSearch(seed=s), 2, seed=0),
                     SearchLoop(lambda s: RandomSearch(seed=s), 2, seed=0),
                     lambda child, dna: 0.0)


def test_separate_phase_a_fills_only_the_selected_top_level_points():
    """Phase A splices each selection into the pivot's text; a selected
    point nested under a complement categorical keeps the pivot's value."""
    space = ss.Sequence([oneof([ss.Sequence([ss.intv(0, 3, hints="a")]), 7], hints="a"),
                         oneof([ss.Sequence([ss.intv(0, 2, hints="a")]), 5], hints="b"),
                         ss.intv(0, 4, hints="a")])
    spec = abstract_search_space(space)
    pivot = DNA([[Choice(0, [0])], [Choice(0, [2])], 0])
    report = run_separate(spec, lambda p: p.hints == "a", pivot,
                          SearchLoop(lambda s: RandomSearch(seed=s), 8, seed=0),
                          SearchLoop(lambda s: RandomSearch(seed=s), 0, seed=0),
                          lambda child, dna: 0.0)
    texts = [record.dna for record in report.records]
    assert len(texts) == 8 and len(set(texts)) > 1
    for text in texts:
        assert decode_dna(text, spec).decisions[1] == pivot.decisions[1]  # canonical, too


def test_separate_empty_phase_a_raises(bench):
    space, spec, oracle, reward = bench
    pivot = materialize(space, minimal_dna(spec))
    with pytest.raises(EmptyRewards):
        run_separate(space, op_selector, pivot,
                     SearchLoop(lambda s: RandomSearch(seed=s), 0, seed=0),
                     SearchLoop(lambda s: RandomSearch(seed=s), 3, seed=1),
                     reward)


def test_nan_reward_raises_naming_the_dna(bench):
    space, spec, oracle, reward = bench
    rewards = iter([0.5, float("-inf"), float("nan"), 0.7])
    seen = []

    def flaky(child, dna):
        seen.append(ss.encode_dna(dna, spec))
        return next(rewards)

    with pytest.raises(InvalidReward, match="NaN") as caught:
        run_joint(space, RandomSearch(seed=0), flaky, 4, seed=0)
    assert len(seen) == 3  # -inf is a legal reward; the NaN trial stops the run
    assert repr(seen[-1]) in str(caught.value)


@pytest.mark.parametrize("bad", [None, "high", float("inf")])
def test_non_numeric_and_positive_infinite_rewards_raise(bench, bad):
    space, spec, oracle, reward = bench
    rewards = iter([0.5, bad])
    seen = []

    def flaky(child, dna):
        seen.append(ss.encode_dna(dna, spec))
        return next(rewards)

    with pytest.raises(InvalidReward) as caught:
        run_joint(space, RandomSearch(seed=0), flaky, 3, seed=0)
    assert len(seen) == 2
    assert repr(bad) in str(caught.value) and repr(seen[-1]) in str(caught.value)


@pytest.mark.parametrize("bad", ["0.5", True, b"1"], ids=["text", "bool", "bytes"])
def test_text_bool_and_bytes_rewards_raise_in_every_route(bench, bad):
    """The one reward rule wants a real number; ``float()`` would take each of
    these.  An oracle's and an eager program's value are checked alike."""
    space, *_ = bench
    with pytest.raises(InvalidReward, match=f"must be a number, got {re.escape(repr(bad))}$"):
        run_joint(space, RandomSearch(seed=0), lambda child, dna: bad, 2, seed=0)

    def program():
        ss.eager_oneof([0, 1])
        return bad

    spec, reward = ss.eager_problem(program)
    with pytest.raises(InvalidReward, match=f"must be a number, got {re.escape(repr(bad))}$"):
        run_joint(spec, RandomSearch(seed=0), reward, 2, seed=0)


def test_minus_infinity_is_written_as_null(tmp_path, bench):
    space, *_ = bench

    def write(rewards):
        values = iter(rewards)
        report = run_joint(space, RandomSearch(seed=0), lambda child, dna: next(values),
                           len(rewards), seed=0)
        report.write_jsonl(tmp_path / "run.jsonl")
        report.write_summary(tmp_path / "run.summary.json")
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        return ([strict_json(line) for line in lines],
                strict_json((tmp_path / "run.summary.json").read_text()))

    records, summary = write([float("-inf"), 0.5, float("-inf")])
    assert [(r["reward"], r["best_so_far"]) for r in records] == \
        [(None, None), (0.5, 0.5), (None, 0.5)]
    assert summary["best_reward"] == 0.5
    records, summary = write([float("-inf")] * 2)
    assert summary["best_reward"] is None and summary["best_dna"] == records[0]["dna"]


class Nonconforming(SearchAlgorithm):
    """Proposes a fixed DNA whatever the space."""

    def __init__(self, dna):
        super().__init__()
        self.dna = dna

    def _propose(self):
        return self.dna


def test_joint_checks_the_proposal_before_the_oracle(bench):
    space, *_ = bench
    calls = []
    with pytest.raises(NonconformingDNA):
        run_joint(space, Nonconforming(DNA([[Choice(99)]])),
                  lambda child, dna: calls.append(dna) or 0.0, 3)
    assert calls == []


def test_eager_checks_the_proposal_before_the_program():
    runs = []

    def program():
        runs.append(None)
        return float(ss.eager_intv(1, 5))

    with pytest.raises(NonconformingDNA):
        ss.run_eager(program, Nonconforming(DNA([99])), 3)
    assert len(runs) == 1  # the collection pass only


def count_calls(monkeypatch, name, module=decisions):
    """Record the result of every call to ``<module>.<name>``, under every
    module binding of the function."""
    original = getattr(module, name)
    seen = []

    def counted(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    for module in list(sys.modules.values()):
        if module.__name__.startswith("symsearch") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return seen


class EncodesInFull(RegularizedEvolution):
    """Regularized evolution proposing through ``_propose``, so that every
    proposal, mutations included, is encoded in full."""

    _proposal = SearchAlgorithm._proposal

    def _propose(self):
        return RegularizedEvolution._proposal(self)[0]


def test_joint_encodes_each_trial_once_and_never_validates(monkeypatch, bench):
    """No proposal is encoded: a warm-up proposal is written as it is drawn
    and a mutation splices its parent's text, which gives the texts of full
    encoding."""
    space, spec, oracle, reward = bench
    expected = run_joint(space, EncodesInFull(4, 2, seed=0), reward, 12, seed=0)
    encoded = count_calls(monkeypatch, "encode_dna")
    validated = count_calls(monkeypatch, "validate_dna")
    sampled = count_calls(monkeypatch, "random_dna")
    report = run_joint(space, RegularizedEvolution(4, 2, seed=0), reward, 12, seed=0)
    assert validated == []
    assert encoded == []
    assert [ss.encode_dna(dna, spec) for dna in sampled] == \
        [record.dna for record in report.records[:4]]
    assert [record.dna for record in report.records] == \
        [record.dna for record in expected.records]


def test_joint_over_a_space_builds_each_child_once(monkeypatch, bench):
    space, spec, oracle, reward = bench
    built = count_calls(monkeypatch, "materialize_prepared", materialize_module)
    report = run_joint(space, RegularizedEvolution(4, 2, seed=0), reward, 12, seed=0)
    assert len(built) == len(report.records) == 12
    assert all(ss.is_deterministic(child) for child in built)


def test_merged_flows_encode_once_per_trial(monkeypatch, bench):
    space, spec, oracle, reward = bench
    pivot = materialize(space, minimal_dna(spec))
    random_loop = lambda trials: SearchLoop(lambda s: RandomSearch(seed=s), trials, seed=0)
    encoded = count_calls(monkeypatch, "encode_dna")
    validated = count_calls(monkeypatch, "validate_dna")
    sampled = count_calls(monkeypatch, "random_dna")
    separate = run_separate(space, op_selector, pivot, random_loop(5), random_loop(4), reward)
    assert len(sampled) == separate.oracle_calls
    del sampled[:]
    hybrid = run_hybrid(space, op_selector, random_loop(3), random_loop(4), 5, reward)
    assert hybrid.oracle_calls == 3 * 4 + 5
    assert len(sampled) == hybrid.oracle_calls + 3  # plus each outer proposal
    assert encoded == [] and validated == []


@pytest.mark.parametrize("flow", ["factorized", "hybrid"])
def test_selector_calls_do_not_grow_with_the_inner_budget(bench, flow):
    """Each outer trial compiles its merge once, so the inner trials call
    the selector no more."""
    space, spec, oracle, reward = bench

    def selector_calls(inner_trials):
        calls = []

        def selector(point):
            calls.append(point)
            return op_selector(point)

        loop = lambda trials: SearchLoop(lambda s: RandomSearch(seed=s), trials, seed=0)
        for problem in (space, spec):
            if flow == "factorized":
                run_factorized(problem, selector, loop(3), loop(inner_trials), reward)
            else:
                run_hybrid(problem, selector, loop(3), loop(inner_trials), 5, reward)
        return len(calls)

    assert selector_calls(4) == selector_calls(8)


def test_each_reward_is_checked_once(monkeypatch, bench):
    """The trial step checks each oracle reward and the outer loop each
    aggregate, once, and feeds the algorithm's hook directly."""
    space, spec, oracle, reward = bench
    checked = count_calls(monkeypatch, "check_reward", algorithms)
    run_joint(space, RegularizedEvolution(4, 2, seed=0), reward, 10)
    assert len(checked) == 10
    del checked[:]
    loop = lambda trials: SearchLoop(lambda s: RandomSearch(seed=s), trials, seed=0)
    run_factorized(space, op_selector, loop(3), loop(4), reward)
    assert len(checked) == 3 * 4 + 3


@pytest.mark.parametrize("reward, op", [(lambda child, dna: 0.0, 0),
                                        (lambda child, dna: float(child["a"] == 1), 1),
                                        (lambda child, dna: float(child["a"] != 0), 1)],
                         ids=["constant", "one", "tie"])
def test_hybrid_resumes_the_earliest_highest_aggregate(reward, op):
    space = {"a": oneof([0, 1, 2], hints="op"), "b": oneof([0, 1, 2, 3], hints="edge")}
    report = run_hybrid(space, op_selector, SearchLoop(lambda s: Exhaustive(), 3),
                        SearchLoop(lambda s: RandomSearch(seed=s), 2), 3, reward)
    phase2 = report.records[3 * 2:]
    assert len(phase2) == 3
    assert {record.dna.split("|")[0] for record in phase2} == {str(op)}


def test_factorized_overflowing_aggregate_names_the_outer_dna():
    space = {"a": oneof([0, 1, 2], hints="op"), "b": oneof([0, 1, 2, 3], hints="edge")}
    loop = SearchLoop(lambda s: Exhaustive(), 2)
    with pytest.raises(InvalidReward, match=r"^the reward for DNA '0' is NaN or \+inf"):
        run_factorized(space, op_selector, loop, loop, lambda child, dna: 1e308,
                       aggregator=AGGREGATORS["mean"])


@pytest.mark.parametrize("over", ["space", "spec"])
@pytest.mark.parametrize("flow", ["joint", "separate", "factorized", "hybrid"])
def test_each_reward_call_makes_one_record_in_call_order(bench, flow, over):
    """A reward wrapper that times each call, as in the README's recipe, can
    pair its i-th time with the i-th record."""
    space, spec, oracle, reward = bench
    problem = space if over == "space" else spec
    calls = []

    def recording(child, dna):
        calls.append(ss.encode_dna(dna, spec))
        return reward(child, dna)

    loop = lambda trials, seed=0: SearchLoop(lambda s: RegularizedEvolution(3, 2, seed=s),
                                             trials, seed=seed)
    if flow == "joint":
        report = run_joint(problem, RegularizedEvolution(3, 2, seed=0), recording, 8)
    elif flow == "separate":
        report = run_separate(problem, op_selector, minimal_dna(spec), loop(5), loop(4, 1),
                              recording)
    elif flow == "factorized":
        report = run_factorized(problem, op_selector, loop(3), loop(4), recording)
    else:
        report = run_hybrid(problem, op_selector, loop(3), loop(4), 5, recording)
    assert len(calls) > 0
    assert calls == [record.dna for record in report.records]


CLI_FLOWS = {
    "joint": ["--flow", "joint", "--trials", "12"],
    "separate": ["--flow", "separate", "--partition", "op", "--trials", "5",
                 "--phase2-trials", "4"],
    "factorized": ["--flow", "factorized", "--partition", "op", "--trials", "3",
                   "--inner-trials", "4"],
    "hybrid": ["--flow", "hybrid", "--partition", "op", "--trials", "3",
               "--inner-trials", "4", "--phase2-trials", "5"],
}


@pytest.mark.parametrize("flow", sorted(CLI_FLOWS))
def test_cli_search_builds_no_child_and_extracts_once(monkeypatch, flow):
    built = count_calls(monkeypatch, "materialize_prepared", materialize_module)
    partial = count_calls(monkeypatch, "materialize_partial_prepared", materialize_module)
    extracted = count_calls(monkeypatch, "abstract_search_space")
    encoded = count_calls(monkeypatch, "encode_dna")
    sampled = count_calls(monkeypatch, "random_dna")
    mutated = count_calls(monkeypatch, "mutate", algorithms)
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert cli.main(["search", "--builtin", "nasbench", "--nodes", "3", "--ops", "3",
                         "--oracle", "synthetic", "--algo", "regevo", "--population", "4",
                         "--tournament", "2", *CLI_FLOWS[flow]]) == 0
    oracle_calls = json.loads(printed.getvalue())["oracle_calls"]
    assert oracle_calls > 0
    assert built == [] and partial == []
    assert len(extracted) == 1
    outer_proposals = 3 if flow in ("factorized", "hybrid") else 0
    pivot_check = 1 if flow == "separate" else 0  # the default pivot DNA is checked once
    assert (len(mutated) > 0) == (flow != "factorized")
    assert len(sampled) == oracle_calls + outer_proposals - len(mutated)
    assert len(encoded) == pivot_check


def test_separate_over_a_spec_needs_a_dna_pivot(bench):
    space, spec, oracle, reward = bench
    loop = SearchLoop(lambda s: RandomSearch(seed=s), 2, seed=0)
    with pytest.raises(UnsupportedSpace):
        run_separate(spec, op_selector, materialize(space, minimal_dna(spec)), loop, loop,
                     reward)
    with pytest.raises(NonconformingDNA):
        run_separate(spec, op_selector, DNA([]), loop, loop, reward)


# -- memory ---------------------------------------------------------------------------

MEMORY_FLOWS = {  # 5,000 trials each on nasbench 5x3
    "joint": lambda spec, make, reward: run_joint(spec, make(0), reward, 5000, seed=0),
    "separate": lambda spec, make, reward: run_separate(
        spec, op_selector, minimal_dna(spec), SearchLoop(make, 2500),
        SearchLoop(make, 2500, seed=1), reward),
    "factorized": lambda spec, make, reward: run_factorized(
        spec, op_selector, SearchLoop(make, 50), SearchLoop(make, 100), reward),
    "hybrid": lambda spec, make, reward: run_hybrid(
        spec, op_selector, SearchLoop(make, 10), SearchLoop(make, 50), 4500, reward),
}


@pytest.mark.parametrize("flow", sorted(MEMORY_FLOWS))
def test_a_run_holds_its_records_and_no_other_per_trial_state(flow):
    """A run's traced peak is less than a fifth above what it still holds
    once it returns (its records): no trial leaves anything else behind
    until the run ends."""
    space = build_nasbench_space(5, 3)
    spec = abstract_search_space(space)
    oracle = SyntheticNASOracle(5, 3, seed=0)
    reward = lambda child, dna: eval_oracle(oracle, dna, spec)
    make = lambda seed: RegularizedEvolution(25, 5, seed=seed)
    tracemalloc.start()
    try:
        report = MEMORY_FLOWS[flow](spec, make, reward)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.oracle_calls == 5000
    assert peak < 1.2 * held, f"peak {peak} bytes against {held} held"


# -- aggregation -----------------------------------------------------------------------

def test_top5_average_examples():
    assert top5_average([1, 2, 3, 4, 5, 6, 7]) == 5.0
    assert top5_average([0.5]) == 0.5
    with pytest.raises(EmptyRewards):
        top5_average([])


def test_top5_average_matches_sort_oracle():
    import random as _random

    rng = _random.Random(4)
    for _ in range(50):
        rewards = [rng.random() for _ in range(20)]
        expected = sum(sorted(rewards, reverse=True)[:5]) / 5
        assert top5_average(rewards) == pytest.approx(expected, abs=0)


def test_factorized_outer_reward_is_aggregated(bench):
    """The outer algorithm is fed each outer trial's aggregate of its inner
    rewards, by ``top5_average`` unless another aggregator is given; no
    aggregate is defined on no rewards."""
    space, spec, oracle, reward = bench
    for name in (None, *sorted(AGGREGATORS)):
        outer_algo = RegularizedEvolution(2, 1, seed=0)
        captured, inner_rewards = [], []
        original = outer_algo._feedback  # the loop feeds the algorithm's hook directly

        def spy(dna, text, value):
            captured.append(value)
            return original(dna, text, value)

        def tracking(child, dna):
            inner_rewards.append(reward(child, dna))
            return inner_rewards[-1]

        outer_algo._feedback = spy
        chosen = {} if name is None else {"aggregator": AGGREGATORS[name]}
        run_factorized(space, op_selector,
                       SearchLoop(lambda s: outer_algo, 2, seed=0),
                       SearchLoop(lambda s: RandomSearch(seed=s), 7, seed=0),
                       tracking, **chosen)
        aggregate = chosen.get("aggregator", top5_average)
        assert captured == [aggregate(inner_rewards[:7]), aggregate(inner_rewards[7:])], name
        with pytest.raises(EmptyRewards, match="^no rewards to aggregate$"):
            aggregate([])


# -- report serialization -----------------------------------------------------------------

def test_log_lines_are_the_compact_json_of_each_record(tmp_path, bench):
    """Every flow's log, null rewards and inner indices included, is the
    compact strict JSON of each record's ``to_json_obj``; a caller-set
    ``wall_ms`` is written as the encoder writes it, and NaN is refused."""
    space, spec, oracle, reward = bench
    rewards = iter(range(10 ** 6))
    sometimes_infeasible = lambda child, dna: (float("-inf") if next(rewards) % 3 == 0
                                              else reward(child, dna))
    loop = lambda trials: SearchLoop(lambda s: RandomSearch(seed=s), trials, seed=0)
    pivot = materialize(space, minimal_dna(spec))
    reports = [
        run_joint(space, RandomSearch(seed=0), sometimes_infeasible, 6, seed=0),
        run_separate(space, op_selector, pivot, loop(3), loop(3), sometimes_infeasible),
        run_factorized(spec, op_selector, loop(2), loop(3), sometimes_infeasible),
        run_hybrid(space, op_selector, loop(2), loop(3), 3, sometimes_infeasible),
        run_joint(space, RandomSearch(seed=0), lambda child, dna: float("-inf"), 2),
    ]
    encoded = lambda record: json.dumps(record.to_json_obj(), separators=(",", ":"),
                                        allow_nan=False)
    log = tmp_path / "run.jsonl"
    for report in reports:
        report.write_jsonl(log)
        assert log.read_bytes() == "".join(encoded(r) + "\n" for r in report.records).encode()
    records = [record for report in reports for record in report.records]
    assert any(record.reward == float("-inf") for record in records)
    assert any(record.inner_index is not None for record in records)

    report = reports[0]
    report.write_jsonl(log)
    line = log.read_text().splitlines()[0]
    report.records[0].note = "not a field"  # a line holds the declared fields only
    report.write_jsonl(log)
    assert log.read_text().splitlines()[0] == line
    del report.records[0].note
    for wall_ms in (7, 2.5, True, 10 ** 20, -0.0, 1e-7):
        report.records[0].wall_ms = wall_ms
        report.write_jsonl(log)
        first = log.read_text().splitlines()[0]
        assert first == encoded(report.records[0])
        assert first.endswith(f',"wall_ms":{json.dumps(wall_ms)}}}')
    for wall_ms in (float("nan"), float("inf")):
        report.records[0].wall_ms = wall_ms
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.write_jsonl(log)


def test_jsonl_and_summary_roundtrip(tmp_path, bench):
    space, spec, oracle, reward = bench
    report = run_joint(space, RandomSearch(seed=2), reward, trials=5, seed=2)
    log = tmp_path / "run.jsonl"
    report.write_jsonl(log)
    report.write_summary(log.with_suffix(".summary.json"))
    lines = log.read_text().splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert set(first) == {"trial_index", "outer_index", "inner_index", "dna",
                          "reward", "best_so_far", "wall_ms"}
    assert first["wall_ms"] == 0  # the flows keep no clock, so the log is reproducible
    summary = json.loads(log.with_suffix(".summary.json").read_text())
    assert summary["oracle_calls"] == 5
    assert summary["best_reward"] == report.best_reward


class CountingRecords(list):
    """A records list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize("rewards, best", [([1.0, 3.0, 0.5, 3.0], ("dna1", 3.0)),
                                           ([-math.inf] * 3, ("dna0", None)),
                                           ([], (None, None))],
                         ids=["tie", "infeasible", "empty"])
def test_summary_scans_the_records_once_for_the_same_values(tmp_path, rewards, best):
    """A tie goes to the first record, an all-infeasible best is null and an
    empty report has no best."""
    records = CountingRecords(TrialRecord(i, i, None, f"dna{i}", reward, max(rewards[:i + 1]))
                              for i, reward in enumerate(rewards))
    report = FlowReport("joint", {"trials": 4}, 0, records)
    summary = report.summary_dict()
    assert records.walks == 1
    assert summary["best_dna"] == report.best_dna
    assert summary["best_reward"] == _json_reward(report.best_reward)
    assert (summary["best_dna"], summary["best_reward"]) == best
    path = tmp_path / "run.summary.json"
    report.write_summary(path)
    assert path.read_text(encoding="utf-8") == json.dumps(
        summary, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("budgets", [{}, {"trials": 4}, {"outer_trials": 2, "inner_trials": 3,
                                                          "phase2_trials": 5}])
@pytest.mark.parametrize("seed", [None, 0, 2 ** 70])
@pytest.mark.parametrize("dna, rewards", [
    (None, []),
    ("0|1", [0.5, 2.5e-310, 1e300]),
    ("a\"b\\c\nd\té\x01", [-0.0]),
    ("3", [-math.inf, -math.inf]),
], ids=["empty", "numbers", "escaped-text", "infeasible"])
def test_a_summary_is_written_as_json_dump_writes_it_and_leaves_no_cycle(tmp_path, budgets, seed,
                                                                         dna, rewards):
    """`write_summary` writes what ``json.dump(..., indent=2, sort_keys=True,
    allow_nan=False)`` and a newline write, for a null seed, a best DNA text
    that needs escaping and a best reward written as null, with no
    reference cycle left for the collector."""
    records = [TrialRecord(i, i, None, dna, reward, max(rewards[:i + 1]))
               for i, reward in enumerate(rewards)]
    report = FlowReport("joint", budgets, seed, records)
    expected = io.StringIO()
    json.dump(report.summary_dict(), expected, indent=2, sort_keys=True, allow_nan=False)
    path = tmp_path / "run.summary.json"
    gc.collect()
    gc.disable()
    try:
        report.write_summary(path)
    finally:
        gc.enable()
    assert gc.collect() == 0
    assert path.read_text(encoding="utf-8") == expected.getvalue() + "\n"
