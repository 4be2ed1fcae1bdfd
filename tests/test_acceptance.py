"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values are either fixed by documented formats, computed by
independent brute-force oracles inside this module, or statistical bounds
evaluated at the stated significance.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from statistics import NormalDist

import symsearch as ss
from symsearch.algorithms import Exhaustive, RandomSearch, RegularizedEvolution
from symsearch.decisions import (
    CategoricalPoint,
    abstract_search_space,
    enumerate_dnas,
    filter_spec,
    random_dna,
    split_dna,
)
from symsearch.eager import EagerContext, eager_intv, eager_oneof, run_eager
from symsearch.flows import SearchLoop, run_factorized, run_hybrid, run_joint
from symsearch.hyper import floatv, intv, manyof, oneof, permutate
from symsearch.materialize import materialize, materialize_partial
from symsearch.oracles import (
    OP_HINT,
    SyntheticNASOracle,
    build_nasbench_space,
    eval_oracle,
    num_edges,
)
from symsearch.serialization import isomorphic

MASK = (1 << 64) - 1


class Timer:
    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.2f}s)")
        return False


# -- 1. operation transcript ---------------------------------------------------------

def test_criterion_1_operation_transcript(types, trainer):
    with Timer("1 operation transcript"):
        found = ss.query(trainer, ".*filters")
        assert found == {"model.children[0].filters": 8}

        rebound = ss.rebind(trainer, {
            "model.children[0].filters": 16,
            "model.children[1]": ss.Insert(types.Dense(20)),
        })
        assert ss.equal(rebound["model"], types.Sequential(children=[
            types.Conv(16, (3, 3)), types.Dense(20), types.Dense(10)]))

        swapped = ss.rebind(rebound, lambda path, value, parent: (
            types.Dense(value.filters) if types.Conv.is_instance(value) else value))
        assert ss.equal(swapped["model"], types.Sequential(children=[
            types.Dense(16), types.Dense(20), types.Dense(10)]))

        assert ss.equal(ss.clone(trainer), trainer)
        assert ss.equal(ss.deserialize(ss.serialize(trainer), types.registry), trainer)


# -- 2. enumeration and cardinality ---------------------------------------------------

def test_criterion_2_enumeration_cardinality(types):
    with Timer("2 enumeration/cardinality"):
        cases = []

        perm = permutate(["p", "q", "r"])
        cases.append((perm, 6))

        cases.append((build_nasbench_space(3, 3), 216))

        conv = types.Conv(filters=oneof([8, 16]), kernel_size=oneof([(3, 3), (5, 5)]))
        dense = types.Dense(units=oneof([10, 20]))
        projection = ss.Mapping({
            "model": manyof(3, [conv, dense], distinct=False),
            "magnitude": oneof([3, 6, 9]),
        })
        cases.append((projection, 648))

        for space, expected in cases:
            assert ss.space_size(space) == expected
            count = sum(1 for _ in enumerate_dnas(abstract_search_space(space)))
            assert count == expected

        with_rate = ss.Mapping({"inner": projection, "lr": floatv(1e-5, 1e-4)})
        assert ss.space_size(with_rate) == ss.INFINITE


# -- 3. materialization against brute force -------------------------------------------

def test_criterion_3_materialization_oracle(make_generator):
    with Timer("3 materialization oracle"):
        gen = make_generator(101)
        spaces = [gen.finite_space(max_size=2000) for _ in range(18)]
        spaces += [gen.finite_space(min_size=2000, max_size=10_000) for _ in range(3)]
        assert len(spaces) >= 20
        for space in spaces:
            spec = abstract_search_space(space)
            size = ss.space_size(space)
            assert size <= 10_000
            distinct = set()
            for dna in enumerate_dnas(spec):
                program = materialize(space, dna)
                assert ss.is_deterministic(program)
                ss.validate_tree(program)
                distinct.add(ss.serialize(program))
            assert len(distinct) == size


# -- 4. partition decomposition ---------------------------------------------------------

def test_criterion_4_partition_decomposition(make_generator):
    with Timer("4 partition decomposition"):
        gen = make_generator(202, with_hints=True)
        rng = random.Random(77)
        selectors = [
            lambda p: p.hints == "a",
            lambda p: p.hints == "b",
            lambda p: p.hints in ("a", "b"),
            lambda p: isinstance(p, CategoricalPoint),
            lambda p: not isinstance(p, CategoricalPoint),
            lambda p: True,
        ]
        cases = 0
        while cases < 1000:
            space = gen.finite_space(max_size=3000)
            spec = abstract_search_space(space)
            for _ in range(6):
                dna = random_dna(spec, rng)
                direct = materialize(space, dna)
                for selector in selectors:
                    if filter_spec(spec, selector).is_empty:
                        continue
                    selected, complement = split_dna(spec, dna, selector)
                    partial = materialize_partial(space, selected, selector)
                    assert ss.equal(materialize(partial, complement), direct)
                    cases += 1
        assert cases >= 1000


# -- 5. exhaustive flows find the brute-force optimum -------------------------------------

def test_criterion_5_exhaustive_optimality():
    with Timer("5 exhaustive optimality"):
        space = build_nasbench_space(3, 3)
        spec = abstract_search_space(space)
        for seed in range(20):
            oracle = SyntheticNASOracle(3, 3, seed=seed)
            reward = lambda child, dna: eval_oracle(oracle, dna, spec)
            brute_best = max(eval_oracle(oracle, dna, spec) for dna in enumerate_dnas(spec))

            joint = run_joint(space, Exhaustive(), reward, trials=216)
            assert joint.best_reward == brute_best

            factorized = run_factorized(
                space, lambda p: p.hints == OP_HINT,
                SearchLoop(lambda s: Exhaustive(), 27),
                SearchLoop(lambda s: Exhaustive(), 8),
                reward)
            assert factorized.best_reward == brute_best


# -- 6. budget accounting ------------------------------------------------------------------

def test_criterion_6_budget_accounting():
    with Timer("6 budget accounting"):
        space = build_nasbench_space(3, 3)
        spec = abstract_search_space(space)
        oracle = SyntheticNASOracle(3, 3, seed=1)
        reward = lambda child, dna: eval_oracle(oracle, dna, spec)
        ops = lambda p: p.hints == OP_HINT
        make_regevo = lambda s: RegularizedEvolution(4, 2, seed=s)
        make_random = lambda s: RandomSearch(seed=s)

        assert run_joint(space, RandomSearch(seed=0), reward, 23).oracle_calls == 23
        assert run_factorized(space, ops, SearchLoop(make_random, 7, seed=0),
                              SearchLoop(make_random, 5, seed=0),
                              reward).oracle_calls == 7 * 5
        assert run_hybrid(space, ops, SearchLoop(make_regevo, 4, seed=0),
                          SearchLoop(make_regevo, 6, seed=0), 9,
                          reward).oracle_calls == 4 * 6 + 9
        from symsearch.decisions import minimal_dna
        from symsearch.flows import run_separate

        pivot = materialize(space, minimal_dna(spec))
        assert run_separate(space, ops, pivot, SearchLoop(make_random, 8, seed=0),
                            SearchLoop(make_random, 5, seed=1),
                            reward).oracle_calls == 8 + 5


# -- 7. regularized evolution beats random search -------------------------------------------

def test_criterion_7_algorithm_quality():
    with Timer("7 algorithm quality"):
        nodes, ops, trials, seeds = 5, 3, 500, 100
        space = build_nasbench_space(nodes, ops)
        spec = abstract_search_space(space)
        assert ss.space_size(space) == 3 ** 5 * 2 ** num_edges(5) == 248_832

        def best_at(algorithm, oracle):
            algorithm.setup(spec)
            best = float("-inf")
            for _ in range(trials):
                dna = algorithm.propose()
                value = eval_oracle(oracle, dna, spec)
                algorithm.feedback(dna, value)
                if value > best:
                    best = value
            return best

        diffs = []
        evo_scores, random_scores = [], []
        for seed in range(seeds):
            oracle = SyntheticNASOracle(nodes, ops, seed=seed)
            evo = best_at(RegularizedEvolution(25, 5, seed=seed), oracle)
            rnd = best_at(RandomSearch(seed=seed), oracle)
            evo_scores.append(evo)
            random_scores.append(rnd)
            diffs.append(evo - rnd)

        assert statistics.mean(evo_scores) >= statistics.mean(random_scores)
        # one-sided paired test at significance 0.05 (normal approximation,
        # n = 100 pairs)
        mean_diff = statistics.mean(diffs)
        sd = statistics.stdev(diffs)
        t_stat = mean_diff / (sd / len(diffs) ** 0.5)
        p_value = 1.0 - NormalDist().cdf(t_stat)
        assert p_value < 0.05, f"t={t_stat:.2f} p={p_value:.3g}"


# -- 8. determinism ---------------------------------------------------------------------------

def _reference_reward(nodes, ops, seed, op_ids, edges):
    """Independent straight-line evaluator for the synthetic reward."""
    state = seed & MASK

    def next_unit():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z = z ^ (z >> 31)
        return (z >> 11) * 2.0 ** -53

    w = [[next_unit() for _ in range(ops)] for _ in range(nodes)]
    pairs = [(a, b) for a in range(nodes) for b in range(a + 1, nodes)]
    v = [next_unit() for _ in range(len(pairs))]
    node_sum = 0.0
    for i in range(nodes):
        node_sum += w[i][op_ids[i]]
    edge_sum = 0.0
    for e, (src, dst) in enumerate(pairs):
        if edges[e] == (op_ids[src] + op_ids[dst]) % 2:
            edge_sum += v[e]
    return 0.5 * node_sum / nodes + 0.5 * edge_sum / len(pairs)


def test_criterion_8_determinism(tmp_path):
    with Timer("8 determinism"):
        args = [sys.executable, "-m", "symsearch.cli", "search",
                "--builtin", "nasbench", "--nodes", "3", "--ops", "3",
                "--oracle", "synthetic", "--oracle-seed", "7",
                "--algo", "regevo", "--flow", "joint",
                "--trials", "60", "--seed", "1"]
        first = subprocess.run(args + ["--out", str(tmp_path / "one.jsonl")],
                               capture_output=True, text=True)
        second = subprocess.run(args + ["--out", str(tmp_path / "two.jsonl")],
                                capture_output=True, text=True)
        assert first.returncode == 0 and second.returncode == 0
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()

        nodes, ops, seed = 3, 3, 7
        space = build_nasbench_space(nodes, ops)
        spec = abstract_search_space(space)
        oracle = SyntheticNASOracle(nodes, ops, seed=seed)
        for dna in enumerate_dnas(spec):
            op_ids = [dna.decisions[i][0].index for i in range(nodes)]
            edges = [dna.decisions[nodes + e][0].index for e in range(num_edges(nodes))]
            assert eval_oracle(oracle, dna, spec) == _reference_reward(
                nodes, ops, seed, op_ids, edges)


# -- 9. eager and declarative spaces agree ------------------------------------------------------

def _paired_programs():
    """Ten (declarative space, value reader, eager program) triples that
    define the same search problem both ways."""
    pairs = []

    def add(space, reader, program):
        pairs.append((ss.to_symbolic(space), reader, program))

    add(oneof([1, 5, 9]),
        lambda v: float(v),
        lambda: float(eager_oneof([1, 5, 9])))

    add([oneof([1, 2]), oneof([3, 4])],
        lambda v: v[0] + v[1],
        lambda: eager_oneof([1, 2]) + eager_oneof([3, 4]))

    add([oneof([2, 5]), intv(1, 3)],
        lambda v: v[0] * v[1],
        lambda: eager_oneof([2, 5]) * eager_intv(1, 3))

    add(intv(0, 7),
        lambda v: (v - 3) ** 2,
        lambda: (eager_intv(0, 7) - 3) ** 2)

    add(oneof([oneof([1, 2]), 10]),
        lambda v: float(v),
        lambda: float(eager_oneof([lambda: eager_oneof([1, 2]), 10])))

    add(oneof([oneof([oneof([1, 4]), 2]), 3]),
        lambda v: float(v),
        lambda: float(eager_oneof(
            [lambda: eager_oneof([lambda: eager_oneof([1, 4]), 2]), 3])))

    add([oneof([0, 1]), oneof([0, 1]), oneof([0, 1])],
        lambda v: v[0] * 4 + v[1] * 2 + v[2],
        lambda: eager_oneof([0, 1]) * 4 + eager_oneof([0, 1]) * 2 + eager_oneof([0, 1]))

    add([intv(1, 2), intv(1, 2)],
        lambda v: v[0] ** v[1],
        lambda: eager_intv(1, 2) ** eager_intv(1, 2))

    add(oneof([oneof([3, 1]), oneof([2, 6])]),
        lambda v: float(v),
        lambda: float(eager_oneof([lambda: eager_oneof([3, 1]),
                                   lambda: eager_oneof([2, 6])])))

    add([oneof([1, 2, 3, 4, 5]), oneof([1, 2])],
        lambda v: v[0] % v[1] + v[0],
        lambda: (lambda a, b: a % b + a)(eager_oneof([1, 2, 3, 4, 5]), eager_oneof([1, 2])))

    return pairs


def test_criterion_9_eager_declarative_isomorphism():
    with Timer("9 eager/declarative isomorphism"):
        pairs = _paired_programs()
        assert len(pairs) == 10
        for space, reader, program in pairs:
            spec = abstract_search_space(space)

            ctx = EagerContext()
            with ctx:
                ctx.begin_collect()
                program()
                ctx.end_run()
            assert isomorphic(spec, ctx.spec())

            declarative_best = run_joint(
                space, Exhaustive(),
                lambda child, dna: float(reader(child.to_plain())),
                trials=10_000).best_reward
            eager_best = run_eager(program, Exhaustive(), budget=10_000).best_reward
            assert declarative_best == eager_best


# -- 10. hybrid flow sanity ---------------------------------------------------------------------

def test_criterion_10_hybrid_sanity():
    with Timer("10 hybrid sanity"):
        space = build_nasbench_space(3, 3)
        spec = abstract_search_space(space)
        phase1 = 5 * 6
        for seed in range(10):
            oracle = SyntheticNASOracle(3, 3, seed=seed)
            reward = lambda child, dna: eval_oracle(oracle, dna, spec)
            report = run_hybrid(
                space, lambda p: p.hints == OP_HINT,
                SearchLoop(lambda s: RegularizedEvolution(4, 2, seed=s), 5, seed=seed),
                SearchLoop(lambda s: RegularizedEvolution(4, 2, seed=s), 6, seed=seed),
                30, reward)
            assert report.oracle_calls == phase1 + 30
            trajectory = [r.best_so_far for r in report.records]
            assert trajectory == sorted(trajectory)
            handoff = trajectory[phase1 - 1]
            assert all(v >= handoff for v in trajectory[phase1:])
