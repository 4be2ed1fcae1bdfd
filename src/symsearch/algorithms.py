"""Child-program-agnostic search algorithms.

Every algorithm follows the same contract: ``setup`` receives the abstract
search space, ``propose`` returns a conforming DNA, and ``feedback`` delivers
the measured reward for a previously proposed DNA.  Rewards for DNAs that
were never proposed are rejected unless explicitly injected with ``seed``.
Given the same seed and feedback sequence, the proposal stream is fully
deterministic.
"""

from __future__ import annotations

from collections import Counter, deque
from random import Random

from .decisions import (
    DNA,
    CategoricalPoint,
    Choice,
    DecisionSpec,
    FloatPoint,
    IntPoint,
    _emit,
    _encode_points,
    count_tuples,
    encode_dna,
    enumerate_dnas,
    random_decisions,
    random_dna,
    random_tuple,
)
from .errors import ExhaustedSpace, UnknownProposal, UnsupportedSpace


class SearchAlgorithm:
    """Base class implementing the setup/propose/feedback bookkeeping.

    The search loops call the ``_proposal`` and ``_feedback`` hooks directly:
    ``_proposal`` gives a DNA and its text checked against ``self.spec`` (by
    default, the encoding of what ``_propose`` returns), and both reach
    ``_feedback`` through a single-use handle.  ``propose`` and ``feedback``
    are the checked manual interface."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self.spec: DecisionSpec | None = None
        self.rng: Random | None = None
        self._outstanding: Counter = Counter()

    def setup(self, spec: DecisionSpec) -> "SearchAlgorithm":
        """Bind the algorithm to an abstract search space, resetting state."""
        self.spec = spec
        self.rng = Random(self._seed)
        self._outstanding = Counter()
        self._setup()
        return self

    def _setup(self) -> None:
        pass

    def propose(self) -> DNA:
        if self.spec is None:
            raise UnsupportedSpace("setup() must run before propose()")
        dna, text = self._proposal()
        self._outstanding[text] += 1
        return dna

    def _proposal(self) -> tuple[DNA, str]:
        dna = self._propose()
        return dna, encode_dna(dna, self.spec)

    def _propose(self) -> DNA:
        raise NotImplementedError

    def feedback(self, dna: DNA, reward: float) -> None:
        text = encode_dna(dna, self.spec)
        if self._outstanding[text] <= 0:
            raise UnknownProposal(f"DNA {text!r} was not proposed by this instance")
        self._outstanding[text] -= 1
        self._feedback(dna, text, float(reward))

    def seed_feedback(self, dna: DNA, reward: float) -> None:
        """Inject an externally evaluated DNA, bypassing the proposal check."""
        self._feedback(dna, encode_dna(dna, self.spec), float(reward))

    def _feedback(self, dna: DNA, text: str, reward: float) -> None:
        pass


class RandomSearch(SearchAlgorithm):
    """Uniform conforming samples; feedback is ignored."""

    def _propose(self) -> DNA:
        return random_dna(self.spec, self.rng)


class Exhaustive(SearchAlgorithm):
    """Canonical enumeration order; raises ExhaustedSpace after the last DNA.
    Continuous specs are unsupported."""

    def _setup(self) -> None:
        if self.spec.is_continuous:
            raise UnsupportedSpace("exhaustive search needs a finite space")
        self._stream = enumerate_dnas(self.spec)

    def _propose(self) -> DNA:
        try:
            return next(self._stream)
        except StopIteration:
            raise ExhaustedSpace("every DNA has been proposed") from None


class RegularizedEvolution(SearchAlgorithm):
    """Evolution with an aging population.

    The population is a FIFO queue of (sequence, DNA, reward, text) capped
    at ``population_size``; the oldest member is evicted first.  Until the
    population has warmed up, proposals are uniform random.  Afterwards a
    tournament of ``tournament_size`` members picks the parent (ties go to
    the earliest inserted) and a single decision point of it is mutated.
    """

    def __init__(self, population_size: int = 25, tournament_size: int = 5, seed: int = 0):
        super().__init__(seed)
        if population_size < 1:
            raise ValueError("population_size must be >= 1")
        if not 1 <= tournament_size <= population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        self.population_size = population_size
        self.tournament_size = tournament_size

    def _setup(self) -> None:
        self.population: deque = deque()
        self._feedback_count = 0
        self._insert_seq = 0

    def _proposal(self) -> tuple[DNA, str]:
        if self._feedback_count < self.population_size:
            dna = random_dna(self.spec, self.rng)
            return dna, encode_dna(dna, self.spec)
        contenders = self.rng.sample(list(self.population), self.tournament_size)
        _, parent, _, text = max(contenders, key=lambda entry: (entry[2], -entry[0]))
        tokens = text.split("|")
        child = mutate(parent, self.spec, self.rng, tokens=tokens)
        return child, text if child is parent else "|".join(tokens)

    def _feedback(self, dna: DNA, text: str, reward: float) -> None:
        self.population.append((self._insert_seq, dna, reward, text))
        self._insert_seq += 1
        self._feedback_count += 1
        while len(self.population) > self.population_size:
            self.population.popleft()


def mutate(dna: DNA, spec: DecisionSpec, rng: Random, exclude_current: bool = True,
           tokens: list | None = None) -> DNA:
    """Single-point mutation: resample one decision point chosen uniformly
    among the points active under the DNA's conditional path.

    With ``exclude_current`` the resample avoids the current value; a point
    whose feasible set is a singleton leaves the DNA unchanged.  When a
    categorical slot switches candidates, the child decisions for the new
    candidate are sampled fresh; slots keeping their candidate keep their
    child decisions.  The child shares the lists off the path to the site
    with `dna`; neither may change in place.  Given the canonical `tokens`
    of a conforming `dna`, the resampled decision is checked (NonconformingDNA
    names its point) and its tokens are spliced in place of the old ones.
    """
    total = _count_active(spec.points, dna.decisions)
    if not total:
        return dna
    _, decisions, _ = _mutated(spec.points, dna.decisions, rng.randrange(total), rng,
                               exclude_current, tokens, 0)
    return dna if decisions is None else DNA(decisions)


def _count_active(points, decisions) -> int:
    """The number of decisions active in this DNA."""
    total = len(points)
    for point, decision in zip(points, decisions):
        if isinstance(point, CategoricalPoint):
            for choice in decision:
                if subspace := point.subspaces[choice.index]:
                    total += _count_active(subspace, choice.children)
    return total


def _mutated(points, decisions, site, rng: Random, exclude: bool, tokens, at: int):
    """Walk `decisions` in pre-order to their `site`-th active decision and
    resample it, counting in `at` the `tokens` walked.  Returns ``(site less
    the decisions walked, None, at)`` when the site lies beyond them, else
    ``(-1, rebuilt, at)``: `rebuilt` copies only the lists on the path to the
    site, or is None if the resample kept it.  A new decision is checked and
    spliced into `tokens` unless they are None."""
    for i, (point, decision) in enumerate(zip(points, decisions)):
        if not site:
            new = _resample(point, decision, rng, exclude)
            if new is decision:
                return -1, None, at
            if tokens is not None:
                old, fresh = [], []
                _emit(point, decision, old)
                _encode_points([point], [new], fresh, None)
                tokens[at:at + len(old)] = fresh
            return -1, [*decisions[:i], new, *decisions[i + 1:]], at
        site -= 1
        if not isinstance(point, CategoricalPoint):
            at += 1
            continue
        for slot, choice in enumerate(decision):
            at += 1
            if subspace := point.subspaces[choice.index]:
                site, children, at = _mutated(subspace, choice.children, site, rng, exclude,
                                              tokens, at)
                if site < 0:
                    if children is None:
                        return -1, None, at
                    new = list(decision)
                    new[slot] = Choice(choice.index, children)
                    return -1, [*decisions[:i], new, *decisions[i + 1:]], at
    return site, None, at


def _resample(point, decision, rng: Random, exclude_current: bool):
    if isinstance(point, IntPoint):
        span = point.max - point.min + 1
        if not exclude_current:
            return rng.randint(point.min, point.max)
        if span == 1:
            return decision
        value = point.min + rng.randrange(span - 1)
        return value + 1 if value >= decision else value
    if isinstance(point, FloatPoint):
        if exclude_current and point.min == point.max:
            return decision
        while True:
            value = rng.uniform(point.min, point.max)
            if not exclude_current or value != decision:
                return value
    # Categorical: resample the whole index tuple.
    current = [c.index for c in decision]
    if exclude_current and count_tuples(point) == 1:
        return decision
    while True:
        indices = random_tuple(point, rng)
        if not exclude_current or indices != current:
            break
    return [decision[slot] if slot < len(decision) and decision[slot].index == index
            else Choice(index, random_decisions(point.subspaces[index], rng))
            for slot, index in enumerate(indices)]
