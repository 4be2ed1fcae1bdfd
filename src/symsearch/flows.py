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
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from .decisions import (
    DNA,
    DecisionSpec,
    Selector,
    abstract_search_space,
    condition_spec,
    filter_spec,
    merge_dna,
    split_dna,
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
from .algorithms import SearchAlgorithm
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
    wall_ms: int

    def to_json_obj(self) -> dict:
        return {**vars(self), "reward": _json_reward(self.reward),  # declaration order
                "best_so_far": _json_reward(self.best_so_far)}


def _json_reward(reward: float | None) -> float | None:
    """-inf, the "infeasible" reward, is written as JSON null."""
    return None if reward == -math.inf else reward


# One compact encoder for every log line; json.dumps would build one per call.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


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
            for record in self.records:
                handle.write(_LINE_ENCODER.encode(record.to_json_obj()))
                handle.write("\n")

    def write_summary(self, path) -> None:
        with open(Path(path), "w", encoding="utf-8") as handle:
            json.dump(self.summary_dict(), handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")


# ---------------------------------------------------------------------------
# The sampling loop and the trial step
# ---------------------------------------------------------------------------

class Feedback:
    """Single-use reward channel bound to one proposed DNA and its canonical
    text.  It feeds the algorithm's ``_feedback`` hook; being single-use, it
    does the proposal bookkeeping of ``SearchAlgorithm.feedback``."""

    def __init__(self, algorithm: SearchAlgorithm, dna: DNA, dna_text: str):
        self._algorithm = algorithm
        self.dna = dna
        self.dna_text = dna_text
        self.used = False

    def __call__(self, reward: float) -> None:
        if self.used:
            raise DoubleFeedback(f"reward for DNA {self.dna_text!r} already delivered")
        self._algorithm._feedback(self.dna, self.dna_text, float(reward))
        self.used = True


def sample(space, algorithm: SearchAlgorithm, partition: Selector | None = None,
           budget: int | None = None,
           strict: bool = True) -> Iterator[tuple[SymbolicValue, Feedback]]:
    """Yield (child, feedback) pairs until the budget or the space runs out.

    Without a partition every child is a concrete program; with one, each
    child is the sub-space left after materializing the selected decision
    points.  In strict mode advancing past an un-fed trial raises
    FeedbackSkipped; in lenient mode the skipped trial is treated as
    infeasible and fed reward -inf.
    """
    space = to_symbolic(space)
    spec = abstract_search_space(space)
    view = spec if partition is None else _selection(spec, partition)
    for handle in _loop(algorithm, view, budget, strict):
        if partition is None:
            child = materialize_prepared(space, spec, handle.dna)
        else:
            child = materialize_partial_prepared(space, spec, handle.dna, partition)
        yield child, handle


def _proposals(algorithm: SearchAlgorithm, budget: int | None,
               strict: bool) -> Iterator[Feedback]:
    """The proposal half of ``sample``: one feedback handle per DNA and
    checked text from the algorithm's ``_proposal``, after settling the
    previous handle if it was never fed."""
    produced = 0
    pending: Feedback | None = None
    while budget is None or produced < budget:
        if pending is not None and not pending.used:
            if strict:
                raise FeedbackSkipped(f"trial for DNA {pending.dna_text!r} received no reward")
            pending(float("-inf"))
        try:
            pending = Feedback(algorithm, *algorithm._proposal())
        except ExhaustedSpace:
            return
        produced += 1
        yield pending


def _run_trials(report: FlowReport, handles: Iterator[Feedback], oracle: RewardFn,
                timing: bool, build: Callable[[DNA], SymbolicValue] | None = None,
                merge: Callable[[DNA, list], DNA] | None = None,
                outer_index: int | None = None, offset: int = 0) -> list[tuple[DNA, float]]:
    """The trial step of every flow.

    For each feedback handle: map the loop DNA to the full-space DNA with
    ``merge(dna, tokens)``, which appends that DNA's canonical tokens to
    `tokens` (without ``merge`` the proposal's DNA and text serve as they
    are), build its child if there is a ``build``, call the oracle (timed
    alone), feed the reward back and append a TrialRecord with the running
    best.  A reward that is not a number, NaN or +inf raises InvalidReward;
    -inf is the legal "infeasible" reward.  Trials are numbered ``offset +
    i``, or as inner trials ``i`` of ``outer_index``.  Returns the (loop DNA,
    reward) pairs.
    """
    records = report.records
    best = records[-1].best_so_far if records else float("-inf")
    results = []
    for index, feedback in enumerate(handles):
        tokens = []
        full = feedback.dna if merge is None else merge(feedback.dna, tokens)
        text = feedback.dna_text if merge is None else "|".join(tokens)
        child = None if build is None else build(full)
        start = time.perf_counter() if timing else 0.0
        reward = oracle(child, full)
        wall_ms = int((time.perf_counter() - start) * 1000) if timing else 0
        reward = _checked_reward(reward, text)
        feedback(reward)
        best = max(best, reward)
        records.append(TrialRecord(
            trial_index=len(records),
            outer_index=offset + index if outer_index is None else outer_index,
            inner_index=None if outer_index is None else index,
            dna=text,
            reward=reward,
            best_so_far=best,
            wall_ms=wall_ms,
        ))
        results.append((feedback.dna, reward))
    return results


def _checked_reward(reward, text: str) -> float:
    try:
        value = float(reward)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if value != value or value == math.inf:
        raise InvalidReward(f"oracle returned {reward!r} for DNA {text!r}; "
                            "a reward must be a number other than NaN or +inf")
    return value


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
              seed: int | None = None, timing: bool = False) -> FlowReport:
    """Optimize the whole space in a single loop."""
    spec, build = _problem(space)
    report = FlowReport("joint", {"trials": trials}, seed)
    _run_trials(report, _loop(algorithm, spec, trials), oracle, timing, build)
    return report


def run_separate(space, selector: Selector, pivot, phase_a: SearchLoop,
                 phase_b: SearchLoop, oracle: RewardFn,
                 timing: bool = False) -> FlowReport:
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
    _, pivot_complement = split_dna(spec, pivot, selector)

    budgets = {"phase_a_trials": phase_a.trials, "phase_b_trials": phase_b.trials}
    report = FlowReport("separate", budgets, phase_a.seed)
    results = _run_trials(
        report, _loop(phase_a.build(), fspec, phase_a.trials), oracle, timing, build,
        lambda dna, tokens: merge_dna(spec, selector, dna, pivot_complement, tokens))
    if not results:
        raise EmptyRewards("phase A ran no trials, so there is no best selection to fix")
    best_selected = max(results, key=lambda result: result[1])[0]

    rest = condition_spec(spec, selector, best_selected)
    if rest.is_empty:
        return report  # the selection covered everything
    _run_trials(
        report, _loop(phase_b.build(), rest, phase_b.trials), oracle, timing, build,
        partial(merge_dna, spec, selector, best_selected), offset=phase_a.trials)
    return report


def run_factorized(space, selector: Selector, outer: SearchLoop, inner: SearchLoop,
                   oracle: RewardFn, aggregator=top5_average,
                   timing: bool = False) -> FlowReport:
    """Outer loop over sub-spaces, fresh inner algorithm per outer trial."""
    return _factorized(space, selector, outer, inner, oracle, aggregator, timing)


def run_hybrid(space, selector: Selector, outer: SearchLoop, inner: SearchLoop,
               phase2_trials: int, oracle: RewardFn, aggregator=top5_average,
               timing: bool = False) -> FlowReport:
    """Factorized phase, then resume the best sub-space with its retained
    inner algorithm (population, bookkeeping and rng carry over)."""
    return _factorized(space, selector, outer, inner, oracle, aggregator, timing,
                       phase2_trials)


def _factorized(space, selector, outer, inner, oracle, aggregator, timing,
                phase2_trials=None):
    """The factorized flow; with ``phase2_trials`` it is the hybrid flow."""
    spec, build = _problem(space)
    fspec = _selection(spec, selector)
    budgets = {"outer_trials": outer.trials, "inner_trials": inner.trials}
    if phase2_trials is not None:
        budgets["phase2_trials"] = phase2_trials
    report = FlowReport("factorized" if phase2_trials is None else "hybrid",
                        budgets, outer.seed)
    attempts = []
    for outer_index, outer_feedback in enumerate(_loop(outer.build(), fspec, outer.trials)):
        sub_spec = condition_spec(spec, selector, outer_feedback.dna)
        inner_algorithm = inner.build(outer_index)
        merge = partial(merge_dna, spec, selector, outer_feedback.dna)
        results = _run_trials(
            report, _loop(inner_algorithm, sub_spec, inner.trials), oracle, timing, build,
            merge, outer_index=outer_index)
        aggregate = aggregator([reward for _, reward in results])
        outer_feedback(aggregate)
        attempts.append((aggregate, -outer_index, sub_spec, merge, inner_algorithm))

    if phase2_trials is None or not attempts:
        return report
    _, _, sub_spec, merge, algorithm = max(attempts, key=lambda attempt: attempt[:2])
    _run_trials(report, _proposals(algorithm, phase2_trials, strict=True), oracle,
                timing, build, merge, offset=outer.trials)
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


def _loop(algorithm: SearchAlgorithm, view: DecisionSpec, budget: int | None,
          strict: bool = True) -> Iterator[Feedback]:
    """Set `algorithm` up on `view` and return its feedback handles."""
    algorithm.setup(view)
    return _proposals(algorithm, budget, strict)

