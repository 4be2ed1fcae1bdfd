"""Define-by-run decision collection and apply-mode execution."""

from __future__ import annotations

import math

import pytest

import symsearch as ss
from symsearch.algorithms import Exhaustive, RandomSearch
from symsearch.decisions import abstract_search_space, isomorphic
from symsearch.eager import (
    EagerContext,
    eager_floatv,
    eager_intv,
    eager_oneof,
    eager_problem,
    run_eager,
)
from symsearch.errors import DecisionStreamMismatch, InvalidReward
from symsearch.hyper import floatv, intv, oneof


def test_collection_pass_returns_defaults():
    ctx = EagerContext()
    with ctx:
        ctx.begin_collect()
        assert eager_oneof([1, 2]) == 1
        assert eager_oneof([3, 4]) == 3
        assert eager_intv(2, 9) == 2
        assert eager_floatv(0.5, 1.5) == 0.5
        ctx.end_run()
    spec = ctx.spec()
    assert [p.kind for p in spec.points] == ["categorical", "categorical", "int", "float"]


def test_two_independent_choices_make_four_programs():
    report = run_eager(lambda: eager_oneof([1, 2]) + eager_oneof([3, 4]),
                       Exhaustive(), budget=10)
    assert report.oracle_calls == 4
    assert report.best_reward == 6


def test_nested_thunk_makes_conditional_space():
    program = lambda: eager_oneof([lambda: eager_oneof([1, 2]), 10])
    report = run_eager(program, Exhaustive(), budget=10)
    assert report.oracle_calls == 3  # {1, 2, 10}
    assert report.best_reward == 10


def test_nested_differs_from_flat():
    nested = EagerContext()
    with nested:
        nested.begin_collect()
        eager_oneof([lambda: eager_oneof([1, 2]), 1])
        nested.end_run()
    flat = EagerContext()
    with flat:
        flat.begin_collect()
        eager_oneof([1, 2]) + eager_oneof([3, 4])
        flat.end_run()
    assert len(nested.spec().points) == 1
    assert len(flat.spec().points) == 2
    assert not isomorphic(nested.spec(), flat.spec())


def test_extra_decision_in_apply_raises():
    flaky = {"count": 0}

    def program():
        flaky["count"] += 1
        value = eager_oneof([1, 2])
        if flaky["count"] > 1:
            value += eager_oneof([5, 6])  # appears only after collection
        return value

    with pytest.raises(DecisionStreamMismatch):
        run_eager(program, RandomSearch(seed=0), budget=3)


def test_changed_range_in_apply_raises():
    flaky = {"count": 0}

    def program():
        flaky["count"] += 1
        return eager_intv(0, 3 if flaky["count"] == 1 else 4)

    with pytest.raises(DecisionStreamMismatch):
        run_eager(program, RandomSearch(seed=0), budget=3)


def test_under_consumption_raises():
    flaky = {"count": 0}

    def program():
        flaky["count"] += 1
        if flaky["count"] == 1:
            return eager_oneof([1, 2]) + eager_oneof([3, 4])
        return eager_oneof([1, 2])

    with pytest.raises(DecisionStreamMismatch):
        run_eager(program, RandomSearch(seed=0), budget=3)


def test_eager_calls_outside_context_rejected():
    with pytest.raises(RuntimeError, match="eager_problem"):
        eager_oneof([1, 2])


def test_eager_spec_isomorphic_to_declarative():
    def program():
        width = eager_oneof([8, 16, 32])
        depth = eager_intv(1, 4)
        rate = eager_floatv(0.0, 1.0)
        branch = eager_oneof([lambda: eager_oneof([0, 1]), 7])
        return width + depth + rate + (branch if isinstance(branch, int) else 0)

    ctx = EagerContext()
    with ctx:
        ctx.begin_collect()
        program()
        ctx.end_run()

    declarative = ss.Sequence([
        oneof([8, 16, 32]),
        intv(1, 4),
        floatv(0.0, 1.0),
        oneof([oneof([0, 1]), 7]),
    ])
    assert isomorphic(ctx.spec(), abstract_search_space(declarative))


def test_run_eager_reports_and_feedback():
    rewards = []

    def program():
        value = eager_oneof([2, 5]) * eager_intv(1, 3)
        rewards.append(value)
        return value

    report = run_eager(program, RandomSearch(seed=4), budget=20, seed=4)
    assert report.oracle_calls == 20
    assert report.flow == "eager"
    # the collection run's reward is excluded from the report
    assert [r.reward for r in report.records] == rewards[1:]
    values = [r.best_so_far for r in report.records]
    assert values == sorted(values)


def test_only_chosen_thunk_executes_in_apply():
    executions = {"left": 0, "right": 0}

    def left():
        executions["left"] += 1
        return eager_oneof([1, 2])

    def right():
        executions["right"] += 1
        return 10

    report = run_eager(lambda: eager_oneof([left, right]), Exhaustive(), budget=10)
    assert report.oracle_calls == 3
    # collection runs both branches once; apply runs only the chosen one
    assert executions == {"left": 1 + 2, "right": 1 + 1}


@pytest.mark.parametrize("value", [None, "abc", math.nan, math.inf],
                         ids=["none", "text", "nan", "inf"])
def test_a_reward_that_is_not_a_number_raises_invalid_reward(value):
    """Neither the collection pass's value nor a good trial's is refused."""
    def program():
        pick = eager_oneof([0, 1])
        eager_intv(2, 2)
        return value if pick else 0.0

    with pytest.raises(InvalidReward, match=r"oracle returned .* for DNA '1\|2'"):
        run_eager(program, Exhaustive(), budget=4)


def test_eager_problem_runs_the_factorized_flow():
    """The factorized flow over an eager program's (spec, reward): a * b
    trials, each re-running the program with the merged full-space DNA."""
    seen = []

    def program():
        op = eager_oneof([lambda: ("conv", eager_intv(1, 3)), lambda: ("dense", eager_intv(4, 6))],
                         hints="op")
        rate = eager_floatv(0.0, 1.0)
        seen.append((op, rate))
        return op[1] + rate

    spec, reward = eager_problem(program)
    assert len(seen) == 1  # the collection pass runs once, in eager_problem
    select = lambda point: point.hints == "op"
    loop = lambda trials: ss.SearchLoop(lambda seed: ss.RegularizedEvolution(2, 1, seed=seed),
                                        trials)
    report = ss.run_factorized(spec, select, loop(3), loop(4), reward)
    assert report.oracle_calls == 3 * 4 == len(seen) - 1
    assert [record.reward for record in report.records] == [op[1] + rate
                                                           for op, rate in seen[1:]]
    for record, (op, rate) in zip(report.records, seen[1:]):
        index = record.dna.split("|")[0]
        assert op[0] == ("conv", "dense")[int(index)]
        assert record.dna == f"{index}|{op[1]}|{rate!r}"
