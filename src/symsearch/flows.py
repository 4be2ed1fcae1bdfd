"""Search flows: the sampling loop and its for-loop compositions.

``sample`` is the public loop: the algorithm proposes an abstract child
program over the (optionally partitioned) space, the space materializes it,
and the yielded feedback handle forwards the measured reward back to the
algorithm.  The four drivers compose such loops over decision specs, a
sub-space being the spec conditioned on a selection (``condition_spec``):

* joint      - one loop over the whole space; n trials, n oracle calls.
* separate   - optimize the selected part against a fixed pivot, then the
               complement against the best selection; a + b calls.
* factorized - outer loop proposes sub-spaces, a fresh inner algorithm
               optimizes each one; the outer reward aggregates the inner
               rewards (top-5 average by default); a * b calls.
* hybrid     - factorized phase, then resume the best sub-space with its
               retained inner algorithm state; a * b + c calls.

Every driver runs its trials through one trial step, ``_run_trials``.
Reward functions are called as ``oracle(child, dna)`` with the trial's
full-space DNA, so tabular oracles keyed by canonical text work in every
flow.  Given a symbolic space, a driver builds each child once, from the
root space with that DNA; given a ``DecisionSpec`` (the CLI's problem, or
``eager.eager_problem``'s), it builds none and calls ``oracle(None, dna)``.
The separate flow's pivot may be a full-space DNA, and must be one over a spec.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator

from .decisions import (
    DNA,
    DecisionSpec,
    Selector,
    _merge_plan,
    _split_points,
    abstract_search_space,
    filter_spec,
    validate_dna,
)
from .errors import (
    DoubleFeedback,
    EmptyRewards,
    EmptySelection,
    ExhaustedSpace,
    FeedbackSkipped,
    InvalidReward,
    UnsupportedSpace,
)
from .materialize import infer_dna, materialize_prepared, materialize_partial_prepared
from .algorithms import SearchAlgorithm, check_reward, reward_for
from .prng import derive_seed
from .values import SymbolicValue, to_symbolic

RewardFn = Callable[[SymbolicValue, DNA], float]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class TrialRecord:
    trial_index: int
    outer_index: int
    inner_index: int | None
    dna: str
    reward: float
    best_so_far: float
    wall_ms: int = 0  # the flows keep no clock; a caller that times its reward sets it

    def to_json_obj(self) -> dict:
        return {**vars(self), "reward": _json_reward(self.reward),  # declaration order
                "best_so_far": _json_reward(self.best_so_far)}


def _json_reward(reward: float | None) -> float | None:
    """-inf, the "infeasible" reward, is written as JSON null."""
    return None if reward == -math.inf else reward


def _json_number(value) -> str:
    """A record's number, or None, as ``json.dumps(value, allow_nan=False)``
    writes it: ``repr`` for a plain int or finite float, so only another
    value (a bool, NaN) meets the encoder."""
    if value is None:
        return "null"
    if type(value) is int or type(value) is float and -math.inf < value < math.inf:
        return repr(value)
    return json.dumps(value, allow_nan=False)


@dataclass
class FlowReport:
    flow: str
    budgets: dict
    seed: int | None
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def oracle_calls(self) -> int:
        return len(self.records)

    @property
    def best_record(self) -> TrialRecord | None:
        """The first record with the highest reward."""
        return max(self.records, key=lambda record: record.reward, default=None)

    @property
    def best_reward(self) -> float | None:
        best = self.best_record
        return None if best is None else best.reward

    @property
    def best_dna(self) -> str | None:
        best = self.best_record
        return None if best is None else best.dna

    def summary_dict(self) -> dict:
        return {
            "flow": self.flow,
            "budgets": self.budgets,
            "seed": self.seed,
            "oracle_calls": self.oracle_calls,
            "best_dna": self.best_dna,
            "best_reward": _json_reward(self.best_reward),
        }

    def write_jsonl(self, path) -> None:
        with open(Path(path), "w", encoding="utf-8") as handle:
            for record in self.records:  # to_json_obj's line, made without the dict
                handle.write(
                    f'{{"trial_index":{_json_number(record.trial_index)},'
                    f'"outer_index":{_json_number(record.outer_index)},'
                    f'"inner_index":{_json_number(record.inner_index)},'
                    f'"dna":{encode_basestring_ascii(record.dna)},'
                    f'"reward":{_json_number(_json_reward(record.reward))},'
                    f'"best_so_far":{_json_number(_json_reward(record.best_so_far))},'
                    f'"wall_ms":{_json_number(record.wall_ms)}}}\n')

    def write_summary(self, path) -> None:
        with open(Path(path), "w", encoding="utf-8") as handle:
            json.dump(self.summary_dict(), handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")


# ---------------------------------------------------------------------------
# The sampling loop and the trial step
# ---------------------------------------------------------------------------

class Feedback:
    """Single-use reward channel bound to one proposed DNA and its canonical
    text.  It feeds the algorithm's ``_feedback`` hook a reward the reward
    rule accepts; being single-use, it does the proposal bookkeeping."""

    def __init__(self, algorithm: SearchAlgorithm, dna: DNA, dna_text: str):
        self._algorithm = algorithm
        self.dna = dna
        self.dna_text = dna_text
        self.used = False

    def __call__(self, reward: float) -> None:
        if self.used:
            raise DoubleFeedback(f"reward for DNA {self.dna_text!r} already delivered")
        self._algorithm._feedback(self.dna, self.dna_text, reward_for(self.dna_text, reward))
        self.used = True


def sample(space, algorithm: SearchAlgorithm, partition: Selector | None = None,
           budget: int | None = None,
           strict: bool = True) -> Iterator[tuple[SymbolicValue, Feedback]]:
    """Yield (child, feedback) pairs until the budget or the space runs out.

    Without a partition every child is a concrete program; with one, each
    child is the sub-space left after materializing the selected decision
    points.  In strict mode advancing past an un-fed trial, the last one
    included, raises FeedbackSkipped; in lenient mode the skipped trial is
    treated as infeasible and fed reward -inf.
    """
    space = to_symbolic(space)
    spec = abstract_search_space(space)
    view = spec if partition is None else _selection(spec, partition)
    for dna, text in _proposals(algorithm.setup(view), budget):
        if partition is None:
            child = materialize_prepared(space, spec, dna)
        else:
            child = materialize_partial_prepared(space, spec, dna, partition)
        handle = Feedback(algorithm, dna, text)
        yield child, handle
        if not handle.used:
            if strict:
                raise FeedbackSkipped(f"trial for DNA {text!r} received no reward")
            handle(float("-inf"))


def _proposals(algorithm: SearchAlgorithm, budget: int | None) -> Iterator[tuple[DNA, str]]:
    """The algorithm's ``_proposal`` pairs of DNA and checked text, until
    the budget or the space runs out."""
    produced = 0
    while budget is None or produced < budget:
        try:
            proposal = algorithm._proposal()
        except ExhaustedSpace:
            return
        produced += 1
        yield proposal


def _run_trials(report: FlowReport, algorithm: SearchAlgorithm, budget: int, oracle: RewardFn,
                build: Callable[[DNA], SymbolicValue] | None = None,
                merge: Callable[[DNA, str], tuple[DNA, str]] | None = None,
                outer_index: int | None = None, offset: int = 0) -> list[tuple[DNA, float]]:
    """The trial step of every flow, over the set-up `algorithm`'s proposals.

    For each proposal: map the loop DNA and its text to the full-space DNA
    and its canonical text with ``merge(dna, text)`` (without ``merge`` the
    proposal's DNA and text serve as they are), build its child if there is
    a ``build``, call the oracle once, feed the reward back and append a
    TrialRecord with the running best.  A reward that :func:`check_reward`
    refuses raises InvalidReward naming the trial's DNA.  Trials are
    numbered ``offset + i``, or as inner trials ``i`` of ``outer_index``.
    Returns the (loop DNA, reward) pairs.
    """
    records = report.records
    best = records[-1].best_so_far if records else float("-inf")
    results = []
    for index, (dna, dna_text) in enumerate(_proposals(algorithm, budget)):
        full, text = (dna, dna_text) if merge is None else merge(dna, dna_text)
        child = None if build is None else build(full)
        reward = oracle(child, full)
        try:
            reward = check_reward(reward)
        except InvalidReward as exc:
            raise InvalidReward(f"oracle returned {reward!r} for DNA {text!r}; the reward "
                                f"{exc}") from None
        algorithm._feedback(dna, dna_text, reward)
        best = max(best, reward)
        records.append(TrialRecord(
            trial_index=len(records),
            outer_index=offset + index if outer_index is None else outer_index,
            inner_index=None if outer_index is None else index,
            dna=text,
            reward=reward,
            best_so_far=best,
        ))
        results.append((dna, reward))
    return results


# ---------------------------------------------------------------------------
# Aggregators
# ---------------------------------------------------------------------------

def mean_reward(rewards: list[float]) -> float:
    if not rewards:
        raise EmptyRewards("no rewards to aggregate")
    return sum(rewards) / len(rewards)


def top5_average(rewards: list[float]) -> float:
    """Mean of the five largest rewards (fewer when fewer exist)."""
    return mean_reward(heapq.nlargest(5, rewards))


def max_reward(rewards: list[float]) -> float:
    if not rewards:
        raise EmptyRewards("no rewards to aggregate")
    return max(rewards)


AGGREGATORS = {"top5": top5_average, "mean": mean_reward, "max": max_reward}


# ---------------------------------------------------------------------------
# Flow drivers
# ---------------------------------------------------------------------------

@dataclass
class SearchLoop:
    """One loop's configuration: an algorithm factory (seed -> algorithm),
    a trial budget and the base seed."""

    make: Callable[[int], SearchAlgorithm]
    trials: int
    seed: int = 0

    def build(self, index: int | None = None) -> SearchAlgorithm:
        seed = self.seed if index is None else derive_seed(self.seed, index)
        return self.make(seed)


def run_joint(space, algorithm: SearchAlgorithm, oracle: RewardFn, trials: int,
              seed: int | None = None) -> FlowReport:
    """Optimize the whole space in a single loop."""
    spec, build = _problem(space)
    report = FlowReport("joint", {"trials": trials}, seed)
    _run_trials(report, algorithm.setup(spec), trials, oracle, build)
    return report


def run_separate(space, selector: Selector, pivot, phase_a: SearchLoop,
                 phase_b: SearchLoop, oracle: RewardFn) -> FlowReport:
    """Optimize the selected points against a fixed pivot, then fix them to
    the phase-A best and optimize the complement.

    The pivot is a concrete child program of the space, or its full-space
    DNA (the only form accepted when `space` is a DecisionSpec); its
    decisions fix the complement during phase A.  Selected and complement
    points must form disjoint top-level groups (no point of one group nested
    inside the other).
    """
    spec, build = _problem(space)
    fspec = _selection(spec, selector)
    if fspec.points != [point for point in spec.points if selector(point)]:
        raise UnsupportedSpace("separate flow requires every point nested under a selected "
                               "point to be selected too")
    if isinstance(pivot, DNA):
        validate_dna(pivot, spec)
    elif build is None:
        raise UnsupportedSpace("over a decision spec the pivot must be a full-space DNA")
    else:
        pivot = infer_dna(space, pivot)
    pivot_complement = DNA(_split_points(spec.points, pivot.decisions, selector)[1])

    budgets = {"phase_a_trials": phase_a.trials, "phase_b_trials": phase_b.trials}
    report = FlowReport("separate", budgets, phase_a.seed)
    # Phase A's selection changes every trial, so its plan swaps the roles:
    # the pivot's complement is fixed and the holes are `fspec`'s points.  A
    # selected point nested under a complement categorical is not one of
    # them, so it stays fixed with its categorical.
    ids = {point.id for point in fspec.points}
    _, merge = _merge_plan(spec, lambda point: point.id not in ids, pivot_complement)
    results = _run_trials(report, phase_a.build().setup(fspec), phase_a.trials, oracle, build,
                          merge)
    if not results:
        raise EmptyRewards("phase A ran no trials, so there is no best selection to fix")
    best_selected = max(results, key=lambda result: result[1])[0]

    rest, merge = _merge_plan(spec, selector, best_selected)
    if rest.is_empty:
        return report  # the selection covered everything
    _run_trials(report, phase_b.build().setup(rest), phase_b.trials, oracle, build, merge,
                offset=phase_a.trials)
    return report


def run_factorized(space, selector: Selector, outer: SearchLoop, inner: SearchLoop,
                   oracle: RewardFn, aggregator=top5_average) -> FlowReport:
    """Outer loop over sub-spaces, fresh inner algorithm per outer trial."""
    return _factorized(space, selector, outer, inner, oracle, aggregator)


def run_hybrid(space, selector: Selector, outer: SearchLoop, inner: SearchLoop,
               phase2_trials: int, oracle: RewardFn, aggregator=top5_average) -> FlowReport:
    """Factorized phase, then resume the best sub-space with its retained
    inner algorithm (population, bookkeeping and rng carry over)."""
    return _factorized(space, selector, outer, inner, oracle, aggregator, phase2_trials)


def _factorized(space, selector, outer, inner, oracle, aggregator, phase2_trials=None):
    """The factorized flow; with ``phase2_trials`` it is the hybrid flow."""
    spec, build = _problem(space)
    fspec = _selection(spec, selector)
    budgets = {"outer_trials": outer.trials, "inner_trials": inner.trials}
    if phase2_trials is not None:
        budgets["phase2_trials"] = phase2_trials
    report = FlowReport("factorized" if phase2_trials is None else "hybrid",
                        budgets, outer.seed)
    outer_algorithm = outer.build().setup(fspec)
    best = None  # (aggregate, merge, inner algorithm); the earliest wins a tie
    for outer_index, (dna, text) in enumerate(_proposals(outer_algorithm, outer.trials)):
        sub_spec, merge = _merge_plan(spec, selector, dna)
        inner_algorithm = inner.build(outer_index).setup(sub_spec)
        results = _run_trials(report, inner_algorithm, inner.trials, oracle, build, merge,
                              outer_index=outer_index)
        aggregate = reward_for(text, aggregator([reward for _, reward in results]))
        outer_algorithm._feedback(dna, text, aggregate)
        if best is None or aggregate > best[0]:
            best = (aggregate, merge, inner_algorithm)

    if phase2_trials is not None and best is not None:
        _run_trials(report, best[2], phase2_trials, oracle, build, best[1], offset=outer.trials)
    return report


def _problem(space) -> tuple[DecisionSpec, Callable[[DNA], SymbolicValue] | None]:
    """A search problem: its decision spec and the builder that makes a
    child from a full-space DNA.  A spec has no builder."""
    if isinstance(space, DecisionSpec):
        return space, None
    space = to_symbolic(space)
    spec = abstract_search_space(space)
    return spec, lambda dna: materialize_prepared(space, spec, dna)


def _selection(spec: DecisionSpec, selector: Selector) -> DecisionSpec:
    view = filter_spec(spec, selector)
    if view.is_empty:
        raise EmptySelection("partition selector matched no decision points")
    return view

