"""Synthetic oracle determinism, the reward formula and table oracles."""

from __future__ import annotations

import json
import math
import re

import pytest

import symsearch as ss
from symsearch.algorithms import RandomSearch
from symsearch.decisions import (
    DNA,
    DecisionSpec,
    abstract_search_space,
    decode_dna,
    encode_dna,
    enumerate_dnas,
)
from symsearch.errors import (
    BadDimensions,
    ContinuousSpaceForTable,
    MalformedDocument,
    UnknownKey,
    UnsupportedSpace,
)
from symsearch.flows import run_joint
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

from conftest import DEEP_TABLES


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
    """Also after it has accepted the builtin spec, whose shape it checks
    once: another spec of the same length is checked afresh, and a DNA of
    the wrong length is refused under the accepted spec."""
    oracle = SyntheticNASOracle(3, 3, seed=0)
    builtin = abstract_search_space(build_nasbench_space(3, 3))
    eval_oracle(oracle, next(enumerate_dnas(builtin)), builtin)
    fewer_ops = abstract_search_space(build_nasbench_space(3, 2))
    for spec in (abstract_search_space(ss.oneof([1, 2])), fewer_ops):
        with pytest.raises(UnsupportedSpace):
            eval_oracle(oracle, next(enumerate_dnas(spec)), spec)
    with pytest.raises(UnsupportedSpace):
        eval_oracle(oracle, DNA(next(enumerate_dnas(builtin)).decisions[:-1]), builtin)


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


@pytest.mark.parametrize("reward, reason", [
    (True, "must be a number, got True"),
    ("0.5", "must be a number, got '0.5'"),
    (10 ** 400, "is an integer too large for a float"),
])
def test_table_load_rejects_a_reward_that_is_not_a_json_number(tmp_path, reward, reason):
    table = dump_table(build_nasbench_space(2, 2), SyntheticNASOracle(2, 2, seed=3))
    table.rewards["1|0|1"] = reward
    path = tmp_path / "table.json"
    table.save(path)
    with pytest.raises(MalformedDocument, match=rf"reward for key '1\|0\|1' {re.escape(reason)}$"):
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


def categorical(k, n, distinct=True, **fields):
    return {"kind": "categorical", "id": "c", "k": k, "n": n, "distinct": distinct,
            "sorted": False, "hints": None, "subspaces": [[] for _ in range(n)], **fields}


@pytest.mark.parametrize("point, message", [
    (categorical(0, 2), "categorical point 'c' k must be at least 1, got 0"),
    (categorical(0, 2, distinct=False), "categorical point 'c' k must be at least 1, got 0"),
    (categorical(1, 0), "categorical point 'c' n must be at least 1, got 0"),
    (categorical(3, 2), "categorical point 'c' k must be at most n, 2, when distinct, got 3"),
    ({"kind": "int", "id": "i", "min": 3, "max": 2},
     "int point 'i' min must be at most max, 2, got 3"),
    ({"kind": "float", "id": "f", "min": 1.5, "max": 0.5, "hints": None},
     "float point 'f' min must be at most max, 0.5, got 1.5"),
    ({"kind": "int", "id": "i", "min": 0, "max": 2, "hints": 7},
     "int point 'i' hints must be text or null, got 7"),
    (categorical(1, 2, hints=["op"]), "categorical point 'c' hints must be text or null, "
                                      "got ['op']"),
    (categorical(1, 1, subspaces=[[{"kind": "int", "id": "c.i", "min": 1, "max": 0}]]),
     "int point 'c.i' min must be at most max, 0, got 1"),
], ids=["k0", "k0-repeats", "n0", "k-above-n", "int-range", "float-range", "int-hints",
        "categorical-hints", "nested"])
def test_table_load_refuses_a_point_no_constructor_allows(tmp_path, point, message):
    """The rules of the hyper constructors; without them such a spec loads,
    and its minimal or random DNA fails or lies outside its range."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"spec": {"points": [point]}, "rewards": {}}))
    with pytest.raises(MalformedDocument, match=rf"bad table file .*: {re.escape(message)}$"):
        TableOracle.load(path)


def test_table_load_takes_repeated_choices_beyond_n(tmp_path):
    """A categorical that may repeat a candidate may choose more than n."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"spec": {"points": [categorical(3, 2, distinct=False)]},
                                "rewards": {"0|0|1": 0.5}}))
    assert TableOracle.load(path).rewards == {"0|0|1": 0.5}


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(rewards=[]), "table rewards must be an object, got []"),
    (lambda doc: doc.pop("rewards"), "table rewards must be an object, it is missing"),
    (lambda doc: doc.pop("spec"), "table spec must be an object, it is missing"),
    (lambda doc: doc["spec"].update(points={}), "spec points must be a list of point objects, got {}"),
    (lambda doc: doc["spec"]["points"][0].update(subspaces=[{}, {}]),
     "categorical point '[0][0]' subspaces[0] must be a list of point objects, got {}"),
    (lambda doc: doc.update(junk=2), "table has no key 'junk'"),
    (lambda doc: doc["spec"].update(junk=2), "spec has no key 'junk'"),
    (lambda doc: doc["spec"]["points"][0].update(bogus=1),
     "categorical point '[0][0]' has no key 'bogus'"),
    (lambda doc: doc["spec"]["points"][0]["subspaces"][1].append(
        {"kind": "int", "id": "i", "min": 0, "max": 3, "hints": None, "step": 1}),
     "int point 'i' has no key 'step'"),
    (lambda doc: doc["spec"]["points"].append(
        {"kind": "float", "id": "f", "min": 0.0, "max": 1.0, "k": 1}),
     "float point 'f' has no key 'k'"),
], ids=["rewards-list", "no-rewards", "no-spec", "points-object", "subspace-object",
        "table-key", "spec-key", "categorical-key", "nested-int-key", "float-key"])
def test_table_load_names_the_key_and_the_type_of_a_bad_shape(tmp_path, edit, message):
    doc = dump_table(build_nasbench_space(2, 2), SyntheticNASOracle(2, 2, seed=3)).to_json_obj()
    edit(doc)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument, match=rf"bad table file .*: {re.escape(message)}$"):
        TableOracle.load(path)


@pytest.mark.parametrize("name", sorted(DEEP_TABLES))
def test_table_load_refuses_a_table_nested_too_deeply(tmp_path, name):
    path = tmp_path / "table.json"
    path.write_text(DEEP_TABLES[name])
    with pytest.raises(MalformedDocument) as caught:
        TableOracle.load(path)
    assert str(caught.value) == f"bad table file {path}: document is nested too deeply"


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


def test_table_run_walks_its_spec_for_floats_once(monkeypatch):
    space = build_nasbench_space(2, 2)
    table = dump_table(space, SyntheticNASOracle(2, 2, seed=3))
    spec = abstract_search_space(space)  # not the table's own spec object
    walks = []
    walk = DecisionSpec.is_continuous.fget
    monkeypatch.setattr(DecisionSpec, "is_continuous",
                        property(lambda self: walks.append(self) or walk(self)))
    report = run_joint(spec, RandomSearch(seed=0),
                       lambda child, dna: eval_oracle(table, dna, spec), 10)
    assert report.oracle_calls == 10
    assert walks == [spec]


def test_table_refuses_a_continuous_spec_at_every_call():
    space = build_nasbench_space(2, 2)
    table = dump_table(space, SyntheticNASOracle(2, 2, seed=3))
    spec = abstract_search_space(space)
    eval_oracle(table, decode_dna("0|0|0", spec), spec)
    continuous = abstract_search_space(ss.Sequence([space, floatv(0, 1)]))
    dna = DNA(decode_dna("0|0|0", spec).decisions + [0.5])
    for _ in range(2):
        with pytest.raises(ContinuousSpaceForTable):
            eval_oracle(table, dna, continuous)


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
