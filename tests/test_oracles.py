"""Synthetic oracle determinism, the reward formula and table oracles."""

from __future__ import annotations

import json
import math
import re

import pytest

import symsearch as ss
from symsearch.decisions import abstract_search_space, decode_dna, enumerate_dnas, encode_dna
from symsearch.errors import (
    BadDimensions,
    ContinuousSpaceForTable,
    MalformedDocument,
    UnknownKey,
    UnsupportedSpace,
)
from symsearch.hyper import floatv
from symsearch.oracles import (
    SyntheticNASOracle,
    TableOracle,
    build_nasbench_space,
    dump_table,
    eval_oracle,
    edge_pairs,
    num_edges,
)
from symsearch.prng import SplitMix64, mix64


MASK = (1 << 64) - 1


def reference_reward(nodes, ops, seed, op_ids, edges):
    """Straight-line reimplementation of the synthetic reward, written
    directly from the documented draw order and formula."""
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


def test_splitmix_stream_is_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert mix64(0) == mix64(0)
    unit = SplitMix64(7).next_unit()
    assert 0.0 <= unit < 1.0


def test_build_space_dimensions():
    assert num_edges(5) == 10
    assert edge_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert ss.space_size(build_nasbench_space(3, 3)) == 216
    assert ss.space_size(build_nasbench_space(2, 2)) == 8
    with pytest.raises(BadDimensions):
        build_nasbench_space(1, 3)
    with pytest.raises(BadDimensions):
        SyntheticNASOracle(3, 1, seed=0)


def test_synthetic_matches_independent_reimplementation():
    space = build_nasbench_space(2, 2)
    spec = abstract_search_space(space)
    oracle = SyntheticNASOracle(2, 2, seed=7)
    for dna in enumerate_dnas(spec):
        op_ids = [dna.decisions[i][0].index for i in range(2)]
        edges = [dna.decisions[2][0].index]
        assert eval_oracle(oracle, dna, spec) == reference_reward(2, 2, 7, op_ids, edges)


def test_synthetic_matches_reference_on_larger_space():
    nodes, ops, seed = 4, 3, 123
    space = build_nasbench_space(nodes, ops)
    spec = abstract_search_space(space)
    oracle = SyntheticNASOracle(nodes, ops, seed)
    import random

    rng = random.Random(0)
    from symsearch.decisions import random_dna

    for _ in range(200):
        dna = random_dna(spec, rng)
        op_ids = [dna.decisions[i][0].index for i in range(nodes)]
        edges = [dna.decisions[nodes + e][0].index for e in range(num_edges(nodes))]
        assert eval_oracle(oracle, dna, spec) == reference_reward(nodes, ops, seed, op_ids, edges)


def test_all_edges_matching_reduces_to_means():
    oracle = SyntheticNASOracle(3, 2, seed=11)
    op_ids = [0, 0, 0]  # all targets are (0 + 0) % 2 == 0
    edges = [0, 0, 0]
    expected = 0.5 * sum(oracle.w[i][0] for i in range(3)) / 3 + 0.5 * sum(oracle.v) / 3
    assert oracle.reward(op_ids, edges) == expected


def test_rewards_in_unit_interval():
    oracle = SyntheticNASOracle(3, 3, seed=5)
    space = build_nasbench_space(3, 3)
    spec = abstract_search_space(space)
    values = [eval_oracle(oracle, dna, spec) for dna in enumerate_dnas(spec)]
    assert all(0.0 <= v < 1.0 for v in values)


def test_synthetic_rejects_foreign_space():
    oracle = SyntheticNASOracle(3, 3, seed=0)
    space = ss.oneof([1, 2])
    spec = abstract_search_space(space)
    with pytest.raises(UnsupportedSpace):
        eval_oracle(oracle, next(enumerate_dnas(spec)), spec)


# -- table oracle -------------------------------------------------------------------

def test_table_roundtrip(tmp_path):
    space = build_nasbench_space(2, 2)
    spec = abstract_search_space(space)
    oracle = SyntheticNASOracle(2, 2, seed=3)
    table = dump_table(space, oracle)
    assert len(table.rewards) == 8
    path = tmp_path / "table.json"
    table.save(path)
    loaded = TableOracle.load(path)
    for dna in enumerate_dnas(spec):
        assert eval_oracle(loaded, dna, spec) == eval_oracle(oracle, dna, spec)


def test_table_load_rejects_non_canonical_key(tmp_path):
    space = build_nasbench_space(2, 2)
    table = dump_table(space, SyntheticNASOracle(2, 2, seed=3))
    table.rewards["+1|0|1"] = table.rewards.pop("1|0|1")
    path = tmp_path / "table.json"
    table.save(path)
    with pytest.raises(MalformedDocument, match=r"'\+1\|0\|1'"):
        TableOracle.load(path)


@pytest.mark.parametrize("reward", [math.nan, math.inf, -math.inf])
def test_table_load_rejects_nan_and_positive_infinity(tmp_path, reward):
    table = dump_table(build_nasbench_space(2, 2), SyntheticNASOracle(2, 2, seed=3))
    table.rewards["1|0|1"] = reward
    path = tmp_path / "table.json"
    table.save(path)  # non-finite values as bare tokens
    if reward == -math.inf:  # the legal "infeasible" reward
        assert TableOracle.load(path).lookup("1|0|1") == -math.inf
        return
    with pytest.raises(MalformedDocument, match=r"'1\|0\|1'"):
        TableOracle.load(path)


@pytest.mark.parametrize("fields, key", [
    ({"k": 1.0}, "k"),
    ({"k": True}, "k"),
    ({"k": "1"}, "k"),
    ({"n": 2.5}, "n"),
    ({"distinct": "no"}, "distinct"),
    ({"sorted": 0}, "sorted"),
    ({"kind": "int", "min": 1.5, "max": 3}, "min"),
    ({"kind": "int", "min": 1, "max": True}, "max"),
    ({"kind": "float", "min": 0.0, "max": math.inf}, "max"),
    ({"kind": "float", "min": math.nan, "max": 1.0}, "min"),
    ({"kind": "float", "min": 0.0, "max": 10 ** 400}, "max"),
])
def test_table_load_rejects_malformed_spec_fields(tmp_path, fields, key):
    doc = dump_table(build_nasbench_space(2, 2), SyntheticNASOracle(2, 2, seed=3)).to_json_obj()
    doc["spec"]["points"][0].update(fields)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))  # non-finite values as bare tokens
    with pytest.raises(MalformedDocument, match=rf"point '\[0\]\[0\]' {key} must be"):
        TableOracle.load(path)


@pytest.mark.parametrize("fields, message", [
    ({"n": 3}, r"point '\[0\]\[0\]' n must equal its number of subspaces, 2, got 3"),
    ({"id": 7}, r"point 7 id must be text, got 7"),
])
def test_table_load_rejects_a_wrong_count_or_a_non_text_id(tmp_path, fields, message):
    doc = dump_table(build_nasbench_space(2, 2), SyntheticNASOracle(2, 2, seed=3)).to_json_obj()
    doc["spec"]["points"][0].update(fields)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument, match=rf"bad table file .*: categorical {message}"):
        TableOracle.load(path)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(rewards=[]), "table rewards must be an object, got []"),
    (lambda doc: doc.pop("rewards"), "table rewards must be an object, it is missing"),
    (lambda doc: doc.pop("spec"), "table spec must be an object, it is missing"),
    (lambda doc: doc["spec"].update(points={}), "spec points must be a list of point objects, got {}"),
    (lambda doc: doc["spec"]["points"][0].update(subspaces=[{}, {}]),
     "categorical point '[0][0]' subspaces[0] must be a list of point objects, got {}"),
], ids=["rewards-list", "no-rewards", "no-spec", "points-object", "subspace-object"])
def test_table_load_names_the_key_and_the_type_of_a_bad_shape(tmp_path, edit, message):
    doc = dump_table(build_nasbench_space(2, 2), SyntheticNASOracle(2, 2, seed=3)).to_json_obj()
    edit(doc)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument, match=rf"bad table file .*: {re.escape(message)}$"):
        TableOracle.load(path)


def test_table_unknown_key():
    space = build_nasbench_space(2, 2)
    spec = abstract_search_space(space)
    table = dump_table(space, SyntheticNASOracle(2, 2, seed=3))
    table.rewards.pop(encode_dna(decode_dna("0|0|0", spec), spec))
    with pytest.raises(UnknownKey):
        eval_oracle(table, decode_dna("0|0|0", spec), spec)


def test_table_requires_discrete_space():
    spec = abstract_search_space(floatv(0, 1))
    with pytest.raises(ContinuousSpaceForTable):
        TableOracle(spec, {})


def test_exhaustive_joint_matches_brute_force_m4():
    from symsearch.flows import run_joint
    from symsearch.algorithms import Exhaustive

    space = build_nasbench_space(4, 3)
    spec = abstract_search_space(space)
    for seed in (0, 1):
        oracle = SyntheticNASOracle(4, 3, seed=seed)
        brute = max(eval_oracle(oracle, dna, spec) for dna in enumerate_dnas(spec))
        report = run_joint(space, Exhaustive(),
                           lambda child, dna: eval_oracle(oracle, dna, spec),
                           trials=6000)
        assert report.oracle_calls == 3 ** 4 * 2 ** 6
        assert report.best_reward == brute
