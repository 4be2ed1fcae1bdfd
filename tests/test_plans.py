"""Proposal plans: a random draw and a mutation run a plan compiled once per
spec, and make the same DNA, text, active count and rng state as the walks
they replaced."""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

import symsearch as ss
from conftest import seeded_spaces
from symsearch import algorithms, decisions
from symsearch.algorithms import RegularizedEvolution, _count_active, mutate
from symsearch.decisions import (
    DNA,
    CategoricalPoint,
    Choice,
    DecisionSpec,
    FloatPoint,
    IntPoint,
    _emit,
    _encode_points,
    _token,
    abstract_search_space,
    encode_dna,
    random_dna,
    random_tuple,
)
from symsearch.flows import SearchLoop, run_factorized, run_joint
from symsearch.hyper import floatv, intv, manyof, oneof

# -- the walks as they stood before proposal plans, word for word ---------------


def head_random_decisions(points, rng, tokens):
    out = []
    for point in points:
        if isinstance(point, CategoricalPoint):
            out.append([])
            for i in random_tuple(point, rng):
                tokens.append(str(i))
                out[-1].append(Choice(i, head_random_decisions(sub, rng, tokens)
                                      if (sub := point.subspaces[i]) else []))
        else:
            out.append(rng.randint(point.min, point.max) if isinstance(point, IntPoint)
                       else rng.uniform(point.min, point.max))
            tokens.append(_token(point, out[-1]))
    return out


def head_mutate(dna, spec, rng, tokens=None, active=None):
    total = _count_active(spec.points, dna.decisions) if active is None else active[0]
    if not total:
        return dna
    _, decisions, _ = head_mutated(spec.points, dna.decisions, rng.randrange(total), rng,
                                   tokens, 0, active)
    return dna if decisions is None else DNA(decisions)


def head_mutated(points, decisions, site, rng, tokens, at, active):
    for i, (point, decision) in enumerate(zip(points, decisions)):
        if not site:
            new = head_resample(point, decision, rng)
            if new is decision:
                return -1, None, at
            if tokens is not None:
                old, fresh = [], []
                _emit(point, decision, old)
                _encode_points([point], [new], fresh, None)
                tokens[at:at + len(old)] = fresh
            if active is not None and isinstance(point, CategoricalPoint):
                for now, was in zip(new, decision):
                    if now is not was:
                        active[0] += (_count_active(point.subspaces[now.index], now.children)
                                      - _count_active(point.subspaces[was.index], was.children))
            return -1, [*decisions[:i], new, *decisions[i + 1:]], at
        site -= 1
        if not isinstance(point, CategoricalPoint):
            at += 1
            continue
        for slot, choice in enumerate(decision):
            at += 1
            if subspace := point.subspaces[choice.index]:
                site, children, at = head_mutated(subspace, choice.children, site, rng, tokens,
                                                  at, active)
                if site < 0:
                    if children is None:
                        return -1, None, at
                    new = list(decision)
                    new[slot] = Choice(choice.index, children)
                    return -1, [*decisions[:i], new, *decisions[i + 1:]], at
    return site, None, at


def head_resample(point, decision, rng):
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
    if point.n == 1 or (point.distinct and point.sorted and point.k == point.n):
        return decision
    current = [c.index for c in decision]
    while True:
        indices = random_tuple(point, rng)
        if indices != current:
            break
    return [decision[slot] if slot < len(decision) and decision[slot].index == index
            else Choice(index, head_random_decisions(point.subspaces[index], rng, []))
            for slot, index in enumerate(indices)]


class HeadEvolution(RegularizedEvolution):
    """Regularized evolution proposing through the walks above and the
    ``max`` tournament."""

    def _proposal(self):
        if self._feedback_count < self.population_size:
            tokens = []
            return DNA(head_random_decisions(self.spec.points, self.rng, tokens)), "|".join(tokens)
        contenders = self.rng.sample(list(self.population), self.tournament_size)
        _, parent, _, text, count = max(contenders, key=lambda entry: (entry[2], -entry[0]))
        tokens, active = text.split("|"), [count]
        child = head_mutate(parent, self.spec, self.rng, tokens=tokens, active=active)
        self._counted = child, active[0]
        return child, text if child is parent else "|".join(tokens)


# -- the comparisons ---------------------------------------------------------------


def with_every_kind(space):
    """`space` followed by a float, a k=2 categorical with replacement whose
    candidates hold an int, a float and nothing, and an int and a one-of that
    each have one feasible value."""
    return ss.Sequence([space, floatv(0.0, 1.0),
                        manyof(2, [ss.Sequence([0, intv(0, 3)]), floatv(0.0, 1.0), 5],
                               distinct=False),
                        intv(5, 5), oneof([ss.Sequence([1, intv(0, 2)])])])


def twin_rngs(seed):
    return random.Random(seed), random.Random(seed)


def assert_draws_the_same(spec, seed):
    rng, head_rng = twin_rngs(seed)
    tokens, head_tokens = [], []
    dna = random_dna(spec, rng, tokens)
    assert dna == DNA(head_random_decisions(spec.points, head_rng, head_tokens))
    assert tokens == head_tokens and rng.getstate() == head_rng.getstate()
    assert "|".join(tokens) == encode_dna(dna, spec)


def assert_mutates_the_same(spec, seed):
    rng, head_rng = twin_rngs(seed)
    parent = random_dna(spec, rng)
    head_rng.setstate(rng.getstate())
    text = encode_dna(parent, spec).split("|")
    count = _count_active(spec.points, parent.decisions)
    tokens, head_tokens, active, head_active = list(text), list(text), [count], [count]
    child = mutate(parent, spec, rng, tokens=tokens, active=active)
    head_child = head_mutate(parent, spec, head_rng, tokens=head_tokens, active=head_active)
    assert child == head_child and (child is parent) == (head_child is parent)
    assert tokens == head_tokens and active == head_active
    assert rng.getstate() == head_rng.getstate()
    assert active[0] == _count_active(spec.points, child.decisions)


def assert_evolves_the_same(spec, seed, trials=12):
    """Both algorithms, fed the same rewards (often tied, sometimes -inf),
    propose the same DNAs with the same texts and counts."""
    algo, head = (cls(4, 3, seed=seed).setup(spec) for cls in (RegularizedEvolution, HeadEvolution))
    rewards = random.Random(seed)
    for _ in range(trials):
        (dna, text), (head_dna, head_text) = algo._proposal(), head._proposal()
        assert dna == head_dna and text == head_text
        assert algo.rng.getstate() == head.rng.getstate()
        reward = rewards.choice([0.0, 1.0, 1.0, 2.0, float("-inf")])
        algo._feedback(dna, text, reward)
        head._feedback(head_dna, head_text, reward)
        assert algo._counted[1] == head._counted[1]
    assert [entry[3:] for entry in algo.population] == [entry[3:] for entry in head.population]


@settings(max_examples=300, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       extended=st.booleans())
def test_a_plan_proposes_as_the_walks_did(space, seed, extended):
    spec = abstract_search_space(with_every_kind(space) if extended else space)
    assert_draws_the_same(spec, seed)
    assert_mutates_the_same(spec, seed)
    assert_evolves_the_same(spec, seed)


def typed_shaped_space():
    """The benchmark's typed-space decisions, untyped: 16 slots choosing a
    conv (filters, kernel size), a dense layer (units) or nothing, a learning
    rate, and 3 distinct sorted skips of 16."""
    slot = lambda: oneof([ss.Sequence([oneof([16, 32, 64]), intv(1, 7)]), intv(16, 128), 0])
    return ss.Sequence([[slot() for _ in range(16)], floatv(1e-4, 1e-3),
                        manyof(3, list(range(16)), distinct=True, sorted=True)])


def eager_shaped_spec():
    """The benchmark's eager-program decisions: a thunk branch per slot, a
    float and one of the 560 skip triples."""
    triples = [(a, b, c) for a in range(16) for b in range(a + 1, 16) for c in range(b + 1, 16)]
    branches = [lambda: (ss.eager_oneof([16, 32, 64]), ss.eager_intv(1, 7)),
                lambda: ss.eager_intv(16, 128), lambda: None]

    def program():
        [ss.eager_oneof(branches) for _ in range(16)]
        ss.eager_floatv(1e-4, 1e-3)
        ss.eager_oneof(triples)
        return 0.0
    return ss.eager_problem(program)[0]


FIXED_SPECS = {
    "nasbench 5x3": lambda: abstract_search_space(ss.build_nasbench_space(5, 3)),
    "typed space": lambda: abstract_search_space(typed_shaped_space()),
    "eager-shaped": eager_shaped_spec,
}


@pytest.mark.parametrize("name", sorted(FIXED_SPECS))
def test_a_plan_proposes_as_the_walks_did_on_fixed_seeds(name):
    spec = FIXED_SPECS[name]()
    for seed in range(1000):
        assert_draws_the_same(spec, seed)
        assert_mutates_the_same(spec, seed)
        assert_evolves_the_same(spec, seed, trials=8)


def test_a_one_of_draws_as_randrange_does():
    """For n in 1..1,100 a one-of's index drawn by getrandbits is
    ``randrange(n)``'s, and leaves the generator in the same state."""
    for n in range(1, 1101):
        spec = DecisionSpec([CategoricalPoint("x", 1, n, True, False, [[]] * n)])
        rng, reference = twin_rngs(n)
        for _ in range(8):
            assert random_dna(spec, rng).decisions[0][0].index == reference.randrange(n)
        assert rng.getstate() == reference.getstate()


def count_compiles(monkeypatch):
    """The points lists compiled into plans, nested levels included."""
    compiled = []
    compile_ = decisions._compile

    def counted(points):
        compiled.append(points)
        return compile_(points)
    monkeypatch.setattr(decisions, "_compile", counted)
    return compiled


def count_setups(monkeypatch):
    specs = []
    setup = algorithms.SearchAlgorithm.setup
    monkeypatch.setattr(algorithms.SearchAlgorithm, "setup",
                        lambda self, spec: specs.append(spec) or setup(self, spec))
    return specs


def times_compiled(compiled, spec):
    return sum(points is spec.points for points in compiled)


def test_a_joint_run_compiles_its_plan_once(monkeypatch):
    spec = abstract_search_space(ss.build_nasbench_space(4, 3))
    compiled = count_compiles(monkeypatch)
    report = run_joint(spec, RegularizedEvolution(4, 2, seed=0), lambda child, dna: 0.0, 30)
    assert len(report.records) == 30
    assert times_compiled(compiled, spec) == 1 and len(compiled) == 1


def test_a_factorized_run_compiles_the_outer_plan_once_and_each_inner_plan_once(monkeypatch):
    space = ss.build_nasbench_space(4, 3)
    evolution = lambda trials: SearchLoop(lambda s: RegularizedEvolution(2, 1, seed=s), trials,
                                          seed=0)
    compiled, specs = count_compiles(monkeypatch), count_setups(monkeypatch)
    report = run_factorized(abstract_search_space(space), lambda p: p.hints == "op",
                            evolution(6), evolution(5), lambda child, dna: 0.0)
    assert report.oracle_calls == 6 * 5
    outer, inner = specs[0], specs[1:]
    assert len(inner) == 6 and len({id(spec) for spec in inner}) == 6
    assert [times_compiled(compiled, spec) for spec in specs] == [1] * 7
    assert len(compiled) == 7


def test_an_evicted_plan_recompiles_and_draws_the_same(monkeypatch):
    compiled = count_compiles(monkeypatch)
    spec = abstract_search_space(typed_shaped_space())
    first = random_dna(spec, random.Random(5))
    others = [abstract_search_space(ss.build_nasbench_space(nodes, 2)) for nodes in range(2, 6)]
    for other in others:
        random_dna(other, random.Random(0))
    assert random_dna(spec, random.Random(5)) == first
    assert times_compiled(compiled, spec) == 2
    for other in reversed(others[1:]):  # the last three stay compiled
        random_dna(other, random.Random(0))
    assert [times_compiled(compiled, other) for other in others] == [1, 1, 1, 1]


def test_a_plan_holds_no_reference_cycle():
    """Compiling, drawing, mutating and evicting plans leaves nothing for
    the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        spec = abstract_search_space(with_every_kind(typed_shaped_space()))
        rng = random.Random(0)
        for _ in range(20):
            mutate(random_dna(spec, rng), spec, rng)
        for nodes in range(2, 6):
            random_dna(abstract_search_space(ss.build_nasbench_space(nodes, 2)), rng)
        del spec
        assert gc.collect() == 0
    finally:
        gc.enable()
