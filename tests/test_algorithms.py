"""Algorithm contract: determinism, conformance, evolution mechanics."""

from __future__ import annotations

import random

import pytest

import symsearch as ss
from symsearch import algorithms
from symsearch.algorithms import Exhaustive, RandomSearch, RegularizedEvolution, mutate
from symsearch.decisions import (
    abstract_search_space,
    encode_dna,
    random_dna,
    validate_dna,
)
from symsearch.errors import ExhaustedSpace, NonconformingDNA, UnknownProposal, UnsupportedSpace
from symsearch.hyper import floatv, intv, oneof, permutate


@pytest.fixture()
def small_spec():
    return abstract_search_space(ss.Mapping({
        "op": oneof([1, 2, 3]),
        "width": intv(0, 4),
    }))


def flatten(dna, spec):
    return encode_dna(dna, spec)


# -- setup -----------------------------------------------------------------------

def test_setup_resets_state(small_spec):
    algo = RandomSearch(seed=9)
    algo.setup(small_spec)
    first = [flatten(algo.propose(), small_spec) for _ in range(100)]
    algo.setup(small_spec)
    second = [flatten(algo.propose(), small_spec) for _ in range(100)]
    assert first == second


def test_exhaustive_rejects_continuous():
    spec = abstract_search_space(floatv(0, 1))
    with pytest.raises(UnsupportedSpace):
        Exhaustive().setup(spec)


def test_regevo_starts_empty(small_spec):
    algo = RegularizedEvolution(population_size=4, tournament_size=2).setup(small_spec)
    assert len(algo.population) == 0


def test_regevo_config_validated():
    with pytest.raises(ValueError):
        RegularizedEvolution(population_size=2, tournament_size=5)
    with pytest.raises(ValueError):
        RegularizedEvolution(population_size=0)


# -- propose ------------------------------------------------------------------------

def test_exhaustive_proposes_all_then_raises():
    spec = abstract_search_space(permutate([1, 2, 3]))
    algo = Exhaustive().setup(spec)
    seen = [flatten(algo.propose(), spec) for _ in range(6)]
    assert len(set(seen)) == 6
    with pytest.raises(ExhaustedSpace):
        algo.propose()


def test_regevo_warmup_is_random(small_spec):
    population = 5
    algo = RegularizedEvolution(population, 2, seed=3).setup(small_spec)
    reference = RandomSearch(seed=3).setup(small_spec)
    for _ in range(population):
        dna = algo.propose()
        assert dna == reference.propose()
        algo.feedback(dna, 0.0)


def test_proposals_conform_across_algorithms(make_generator):
    gen = make_generator(3)
    rng = random.Random(0)
    for _ in range(6):
        space = gen.finite_space(max_size=3000)
        spec = abstract_search_space(space)
        for algo in (RandomSearch(seed=1), RegularizedEvolution(4, 2, seed=2), Exhaustive()):
            algo.setup(spec)
            for _ in range(80):
                try:
                    dna = algo.propose()
                except ExhaustedSpace:
                    break
                validate_dna(dna, spec)
                algo.feedback(dna, rng.random())


# -- feedback -----------------------------------------------------------------------

def test_population_is_fifo_capped(small_spec):
    population = 4
    algo = RegularizedEvolution(population, 2, seed=0).setup(small_spec)
    fed = []
    for i in range(population + 3):
        dna = algo.propose()
        algo.feedback(dna, float(i))
        fed.append(dna)
    assert len(algo.population) == population
    assert [entry[2] for entry in algo.population] == [3.0, 4.0, 5.0, 6.0]


def test_feedback_requires_proposal(small_spec):
    algo = RegularizedEvolution(2, 1, seed=0).setup(small_spec)
    foreign = random_dna(small_spec, random.Random(123))
    with pytest.raises(UnknownProposal):
        algo.feedback(foreign, 1.0)
    algo.seed_feedback(foreign, 1.0)  # explicit seeding is allowed
    assert len(algo.population) == 1
    with pytest.raises(NonconformingDNA):
        algo.feedback(ss.DNA([]), 1.0)


def test_public_propose_and_seed_feedback_check_the_dna(small_spec):
    class Broken(ss.SearchAlgorithm):
        def _propose(self):
            return ss.DNA([[ss.Choice(3)], 0])

    with pytest.raises(NonconformingDNA):
        Broken().setup(small_spec).propose()
    algo = RegularizedEvolution(2, 1, seed=0).setup(small_spec)
    with pytest.raises(NonconformingDNA):
        algo.seed_feedback(ss.DNA([[ss.Choice(0)], 5]), 1.0)
    assert len(algo.population) == 0


def test_public_propose_after_warm_up_splices_a_mutation_that_feedback_accepts(
        small_spec, monkeypatch):
    algo = RegularizedEvolution(2, 1, seed=0).setup(small_spec)
    for reward in (0.0, 1.0):
        algo.feedback(algo.propose(), reward)
    mutated, encoded = [], []
    monkeypatch.setattr(algorithms, "mutate",
                        lambda *args, **kwargs: mutated.append(mutate(*args, **kwargs))
                        or mutated[-1])
    monkeypatch.setattr(algorithms, "encode_dna",
                        lambda *args: encoded.append(encode_dna(*args)) or encoded[-1])
    child = algo.propose()
    assert mutated == [child] and encoded == []
    assert all(child is not entry[1] for entry in algo.population)
    assert list(algo._outstanding.elements()) == [encode_dna(child, small_spec)]
    algo.feedback(child, 2.0)
    assert algo.population[-1][1:] == (child, 2.0, encode_dna(child, small_spec))


def test_random_ignores_feedback(small_spec):
    with_feedback = RandomSearch(seed=5).setup(small_spec)
    without = RandomSearch(seed=5).setup(small_spec)
    stream_a, stream_b = [], []
    for _ in range(50):
        dna = with_feedback.propose()
        with_feedback.feedback(dna, 1.0)
        stream_a.append(flatten(dna, small_spec))
        stream_b.append(flatten(without.propose(), small_spec))
    assert stream_a == stream_b


def test_tournament_with_full_population_selects_max(small_spec):
    population = 6
    algo = RegularizedEvolution(population, population, seed=1).setup(small_spec)
    best = None
    for i in range(population):
        dna = algo.propose()
        reward = float((i * 7) % population)
        algo.feedback(dna, reward)
        if best is None or reward > best[1]:
            best = (dna, reward)
    parent_pool = list(algo.population)
    winner = max(parent_pool, key=lambda e: (e[2], -e[0]))
    assert winner[2] == best[1]
    # with T == P the proposal must descend from the population max
    child = algo.propose()
    validate_dna(child, small_spec)


def test_determinism_full_cycle(small_spec):
    def run():
        algo = RegularizedEvolution(3, 2, seed=11).setup(small_spec)
        out = []
        for i in range(40):
            dna = algo.propose()
            algo.feedback(dna, float(i % 5))
            out.append(flatten(dna, small_spec))
        return out

    assert run() == run()


# -- mutation -------------------------------------------------------------------------

def test_mutate_flips_single_binary_choice():
    spec = abstract_search_space(oneof(["a", "b"]))
    rng = random.Random(0)
    dna = ss.DNA([[ss.Choice(0)]])
    for _ in range(20):
        mutated = mutate(dna, spec, rng)
        assert mutated.decisions[0][0].index == 1  # exclusion forces the flip


def test_mutate_singleton_space_unchanged():
    spec = abstract_search_space(oneof(["only"]))
    rng = random.Random(0)
    dna = ss.DNA([[ss.Choice(0)]])
    assert mutate(dna, spec, rng) == dna


def test_mutate_changes_exactly_one_point():
    space = ss.build_nasbench_space(3, 3)
    spec = abstract_search_space(space)
    rng = random.Random(2)
    dna = random_dna(spec, rng)
    for _ in range(1000):
        mutated = mutate(dna, spec, rng)
        validate_dna(mutated, spec)
        diffs = sum(
            1 for a, b in zip(dna.decisions, mutated.decisions)
            if a[0].index != b[0].index)
        assert diffs == 1
        dna = mutated


def test_mutate_resamples_children_on_candidate_switch(types):
    space = oneof([types.Conv(oneof([2, 4]), 3), types.Identity()])
    spec = abstract_search_space(space)
    rng = random.Random(3)
    dna = ss.DNA([[ss.Choice(1, [])]])
    for _ in range(50):
        mutated = mutate(dna, spec, rng)
        validate_dna(mutated, spec)
        dna = mutated


def test_mutate_include_current_flag():
    spec = abstract_search_space(oneof(["a", "b"]))
    rng = random.Random(7)
    dna = ss.DNA([[ss.Choice(0)]])
    seen = set()
    for _ in range(100):
        seen.add(mutate(dna, spec, rng, exclude_current=False).decisions[0][0].index)
    assert seen == {0, 1}  # resample may keep the current value
