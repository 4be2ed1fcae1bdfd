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

    The search loops call the ``_propose`` and ``_feedback`` hooks directly:
    they encode (and so check) each proposal once and feed it through a
    single-use handle.  ``propose`` and ``feedback`` are the checked manual
    interface."""

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
        dna = self._propose()
        self._outstanding[encode_dna(dna, self.spec)] += 1
        return dna

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

    The population is a FIFO queue of (DNA, reward) capped at
    ``population_size``; the oldest member is evicted first.  Until the
    population has warmed up, proposals are uniform random.  Afterwards a
    tournament of ``tournament_size`` members picks the parent (ties go to
    the earliest inserted) and a single decision point is mutated.
    """

    def __init__(self, population_size: int = 25, tournament_size: int = 5,
                 seed: int = 0, resample_includes_current: bool = False):
        super().__init__(seed)
        if population_size < 1:
            raise ValueError("population_size must be >= 1")
        if not 1 <= tournament_size <= population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        self.population_size = population_size
        self.tournament_size = tournament_size
        self.resample_includes_current = resample_includes_current

    def _setup(self) -> None:
        self.population: deque = deque()
        self._feedback_count = 0
        self._insert_seq = 0

    def _propose(self) -> DNA:
        if self._feedback_count < self.population_size:
            return random_dna(self.spec, self.rng)
        contenders = self.rng.sample(list(self.population), self.tournament_size)
        parent = max(contenders, key=lambda entry: (entry[2], -entry[0]))
        return mutate(parent[1], self.spec, self.rng,
                      exclude_current=not self.resample_includes_current)

    def _feedback(self, dna: DNA, text: str, reward: float) -> None:
        self.population.append((self._insert_seq, dna, reward))
        self._insert_seq += 1
        self._feedback_count += 1
        while len(self.population) > self.population_size:
            self.population.popleft()


def mutate(dna: DNA, spec: DecisionSpec, rng: Random, exclude_current: bool = True) -> DNA:
    """Single-point mutation: resample one decision point chosen uniformly
    among the points active under the DNA's conditional path.

    With ``exclude_current`` the resample avoids the current value; a point
    whose feasible set is a singleton leaves the DNA unchanged.  When a
    categorical slot switches candidates, the child decisions for the new
    candidate are sampled fresh; slots keeping their candidate keep their
    child decisions.
    """
    sites = []
    _active_sites(spec.points, dna.decisions, (), sites)
    if not sites:
        return dna
    point, decision, location = sites[rng.randrange(len(sites))]
    new_decision = _resample(point, decision, rng, exclude_current)
    if new_decision is decision:
        return dna
    return DNA(_replace_at(spec.points, dna.decisions, location, new_decision))


def _active_sites(points, decisions, location, out):
    """Collect (point, decision, location) for every decision active in this
    DNA; location is a tuple of (point index, choice slot) hops."""
    for i, (point, decision) in enumerate(zip(points, decisions)):
        out.append((point, decision, location + ((i, None),)))
        if isinstance(point, CategoricalPoint):
            for slot, choice in enumerate(decision):
                _active_sites(point.subspaces[choice.index], choice.children,
                              location + ((i, slot),), out)


def _replace_at(points, decisions, location, new_decision):
    (index, slot), rest = location[0], location[1:]
    decisions = list(decisions)
    if not rest:
        decisions[index] = new_decision
        return decisions
    point = points[index]
    choices = list(decisions[index])
    choice = choices[slot]
    children = _replace_at(point.subspaces[choice.index], choice.children, rest, new_decision)
    choices[slot] = Choice(choice.index, children)
    decisions[index] = choices
    return decisions


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
    rebuilt = []
    for slot, index in enumerate(indices):
        if slot < len(decision) and decision[slot].index == index:
            rebuilt.append(decision[slot])
        else:
            rebuilt.append(Choice(index, random_decisions(point.subspaces[index], rng)))
    return rebuilt
