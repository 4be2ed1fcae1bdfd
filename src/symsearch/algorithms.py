"""Child-program-agnostic search algorithms.

Every algorithm follows the same contract: ``setup`` receives the abstract
search space, ``propose`` returns a conforming DNA, and ``feedback`` delivers
the measured reward for a previously proposed DNA.  Rewards for DNAs that
were never proposed are rejected unless explicitly injected with ``seed``.
Given the same seed and feedback sequence, the proposal stream is fully
deterministic.
"""

from __future__ import annotations

import math
import numbers
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
    _plan,
    encode_dna,
    enumerate_dnas,
    random_decisions,
    random_dna,
    random_tuple,
)
from .errors import BadSize, ExhaustedSpace, InvalidReward, UnknownProposal, UnsupportedSpace


class SearchAlgorithm:
    """Base class implementing the setup/propose/feedback bookkeeping.

    The search loops call the ``_proposal`` and ``_feedback`` hooks directly:
    ``_proposal`` gives a DNA conforming to ``self.spec`` and its canonical
    text (by default, the encoding of what ``_propose`` returns, which checks
    it); the trial step feeds ``_feedback`` a reward it checked.  ``sample``'s
    handle, ``feedback`` and ``seed_feedback`` are the checked routes."""

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

    def _setup_first(self, call: str) -> DecisionSpec:
        """The bound spec; before ``setup``, UnsupportedSpace naming `call`."""
        if self.spec is None:
            raise UnsupportedSpace(f"setup() must run before {call}()")
        return self.spec

    def propose(self) -> DNA:
        self._setup_first("propose")
        dna, text = self._proposal()
        self._outstanding[text] += 1
        return dna

    def _proposal(self) -> tuple[DNA, str]:
        dna = self._propose()
        return dna, encode_dna(dna, self.spec)

    def _propose(self) -> DNA:
        raise NotImplementedError

    def feedback(self, dna: DNA, reward: float) -> None:
        text = encode_dna(dna, self._setup_first("feedback"))
        if self._outstanding[text] <= 0:
            raise UnknownProposal(f"DNA {text!r} was not proposed by this instance")
        reward = reward_for(text, reward)
        self._outstanding[text] -= 1
        if not self._outstanding[text]:
            del self._outstanding[text]
        self._feedback(dna, text, reward)

    def seed_feedback(self, dna: DNA, reward: float) -> None:
        """Inject an externally evaluated DNA, bypassing the proposal check."""
        text = encode_dna(dna, self._setup_first("seed_feedback"))
        self._feedback(dna, text, reward_for(text, reward))

    def _feedback(self, dna: DNA, text: str, reward: float) -> None:
        pass


def check_reward(value) -> float:
    """The one reward rule, for oracles, tables and every feedback route: a
    real number, not a bool, that fits a float and is not NaN or +inf (-inf
    means "infeasible").  It returns a float, or raises InvalidReward for
    the caller to prefix."""
    if value.__class__ is not float:  # a plain float needs no conversion
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidReward(f"must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise InvalidReward("is an integer too large for a float") from None
    if value != value or value == math.inf:
        raise InvalidReward("is NaN or +inf; -inf is the only non-finite reward")
    return value


def reward_for(dna_text: str, value) -> float:
    """:func:`check_reward` on every feedback route, its error naming the DNA."""
    try:
        return check_reward(value)
    except InvalidReward as exc:
        raise InvalidReward(f"the reward for DNA {dna_text!r} {exc}") from None


class RandomSearch(SearchAlgorithm):
    """Uniform conforming samples; feedback is ignored."""

    def _proposal(self) -> tuple[DNA, str]:
        tokens = []
        return random_dna(self.spec, self.rng, tokens), "|".join(tokens)


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

    The population is a FIFO queue of (sequence, DNA, reward, text, active)
    capped at ``population_size``, where ``active`` is the member's count of
    active decisions; the oldest member is evicted first.  Until the
    population has warmed up, proposals are uniform random.  Afterwards a
    tournament of ``tournament_size`` members picks the parent (ties go to
    the earliest inserted) and a single decision point of it is mutated.
    """

    def __init__(self, population_size: int = 25, tournament_size: int = 5, seed: int = 0):
        super().__init__(seed)
        for name, size, most in (("population_size", population_size, math.inf),
                                 ("tournament_size", tournament_size, population_size)):
            if isinstance(size, bool) or not isinstance(size, int) or not 1 <= size <= most:
                raise BadSize(f"{name} must be an int in [1, {most}], got {size!r}")
        self.population_size = population_size
        self.tournament_size = tournament_size

    def _setup(self) -> None:
        self.population: deque = deque(maxlen=self.population_size)
        self._counted: tuple = (None, 0)  # the last DNA counted and its count
        self._feedback_count = 0  # also the next member's sequence

    def _proposal(self) -> tuple[DNA, str]:
        if self._feedback_count < self.population_size:
            tokens = []
            return random_dna(self.spec, self.rng, tokens), "|".join(tokens)
        contenders = self.rng.sample(list(self.population), self.tournament_size)
        best = contenders[0]  # the highest reward, and the earliest member on a tie
        for entry in contenders:
            if entry[2] > best[2] or entry[2] == best[2] and entry[0] < best[0]:
                best = entry
        _, parent, _, text, count = best
        tokens, active = text.split("|"), [count]
        child = mutate(parent, self.spec, self.rng, tokens=tokens, active=active)
        self._counted = child, active[0]
        return child, text if child is parent else "|".join(tokens)

    def _feedback(self, dna: DNA, text: str, reward: float) -> None:
        if self._counted[0] is not dna:  # a warm-up, seeded or out-of-order DNA
            self._counted = dna, _count_active(self.spec.points, dna.decisions)
        self.population.append((self._feedback_count, dna, reward, text, self._counted[1]))
        self._feedback_count += 1


def mutate(dna: DNA, spec: DecisionSpec, rng: Random, tokens: list | None = None,
           active: list | None = None) -> DNA:
    """Single-point mutation: resample one decision point chosen uniformly
    among the points active under the DNA's conditional path.

    The resample avoids the current value; a point whose feasible set is a
    singleton leaves the DNA unchanged.  When a categorical slot switches
    candidates, the child decisions for the new candidate are sampled fresh;
    slots keeping their candidate keep their child decisions.  The child
    shares the lists off the path to the site with `dna`; neither may change
    in place.  Given the canonical `tokens` of a conforming `dna`, the
    resampled decision is checked (NonconformingDNA names its point) and its
    tokens are spliced in place of the old ones.  `active`, a one-item count
    of `dna`'s active decisions, spares their walk and ends with the child's.
    """
    total = _count_active(spec.points, dna.decisions) if active is None else active[0]
    if not total:
        return dna
    _, decisions, _ = _mutate_level(_plan(spec), dna.decisions, rng.randrange(total), rng,
                                    tokens, 0, active)
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


def _mutate_level(plan, decisions, site, rng: Random, tokens, at: int, active):
    """Find the `site`-th active decision of `decisions`, whose level `plan`
    is from ``decisions._compile``, and resample it, counting in `at` the
    `tokens` passed: a flat level jumps to its site, and a walk passes a
    flat subspace before the site whole.  Returns ``(site less the decisions
    passed, None, at)`` when the site lies beyond them, else ``(-1, rebuilt,
    at)``: `rebuilt` copies only the lists on the path to the site, or is
    None if the resample kept it.  A new decision is checked and spliced
    into `tokens`, and `active[0]` gains its change, unless None: a
    categorical's, over its switched slots (a kept slot keeps its Choice)."""
    entries, offsets = plan
    if offsets is not None:
        if site >= len(entries):
            return site - len(entries), None, at + offsets[-1]
        i, at = site, at + offsets[site]
    else:
        for i, (_, _, _, _, _, subplans) in enumerate(entries):
            if not site:
                break
            site -= 1
            if subplans is None:  # a range
                at += 1
                continue
            for slot, choice in enumerate(decision := decisions[i]):
                at += 1
                if (sub := subplans[choice.index]) is None:
                    continue
                if sub[1] is not None and site >= len(sub[0]):
                    site, at = site - len(sub[0]), at + sub[1][-1]
                    continue
                site, children, at = _mutate_level(sub, choice.children, site, rng, tokens,
                                                   at, active)
                if site < 0:
                    if children is None:
                        return -1, None, at
                    new = list(decision)
                    new[slot] = Choice(choice.index, children)
                    return -1, [*decisions[:i], new, *decisions[i + 1:]], at
        else:
            return site, None, at
    _, point, _, _, _, subplans = entries[i]
    new = _resample(point, decision := decisions[i], rng)
    if new is decision:
        return -1, None, at
    if tokens is not None:
        old, fresh = [], []
        _emit(point, decision, old)
        # Checks `new` (test_a_mutation_checks_its_resampled_decision): not a redundant encode.
        _encode_points([point], [new], fresh, None)
        tokens[at:at + len(old)] = fresh
    if active is not None and offsets is None and subplans is not None:
        for now, was in zip(new, decision):  # no closure: `point` stays a fast local
            if now is not was:
                active[0] += (_count_active(point.subspaces[now.index], now.children)
                              - _count_active(point.subspaces[was.index], was.children))
    return -1, [*decisions[:i], new, *decisions[i + 1:]], at


def _resample(point, decision, rng: Random):
    if isinstance(point, IntPoint):
        span = point.max - point.min + 1
        if span == 1:
            return decision
        value = point.min + rng.randrange(span - 1)
        return value + 1 if value >= decision else value
    if isinstance(point, FloatPoint):
        if point.min == point.max:
            return decision
        while True:
            value = rng.uniform(point.min, point.max)
            if value != decision:
                return value
    # Categorical: resample the whole index tuple, unless it is the only feasible one.
    if point.n == 1 or (point.distinct and point.sorted and point.k == point.n):
        return decision
    if point.k == 1:  # the draws of random_tuple
        while (index := rng.randrange(point.n)) == decision[0].index:
            pass
        return [Choice(index, random_decisions(point.subspaces[index], rng, []))]
    current = [c.index for c in decision]
    while True:
        indices = random_tuple(point, rng)
        if indices != current:
            break
    return [decision[slot] if slot < len(decision) and decision[slot].index == index
            else Choice(index, random_decisions(point.subspaces[index], rng, []))
            for slot, index in enumerate(indices)]
