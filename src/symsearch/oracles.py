"""Reward oracles and the builtin node/edge benchmark space.

The builtin space has M node positions that each pick one of K operations
(hinted ``op``) followed by E = M(M-1)/2 binary edges (hinted ``edge``),
edge e spanning the node pair (src, dst) with src < dst in lexicographic
order; its size is K^M * 2^E.

The synthetic oracle scores a configuration deterministically from seeded
tables: per-node operation weights w[i][o] and per-edge values v[e], all in
[0, 1), drawn from the fixed splitmix generator (all w row-major, then all
v).  The reward is::

    1/2 * mean_i(w[i][ops[i]]) + 1/2 * mean_e(v[e] * [edges[e] == t_e])

with edge target t_e = (ops[src] + ops[dst]) % 2, so good edge settings
depend on the chosen operations and factorized search has something to
exploit.  Sums run in ascending index order; rewards are exact across
platforms and lie in [0, 1).

A table oracle is a plain mapping from canonical DNA text to reward, stored
as JSON {"spec": <decision-spec>, "rewards": {text: reward}}; it requires a
fully discrete space and rejects unknown keys.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .decisions import (
    DNA,
    CategoricalPoint,
    DecisionSpec,
    FloatPoint,
    IntPoint,
    abstract_search_space,
    decode_dna,
    encode_dna,
    enumerate_dnas,
    spec_to_json_obj,
)
from .errors import (
    BadDimensions,
    ContinuousSpaceForTable,
    MalformedDocument,
    NonconformingDNA,
    ParseError,
    UnknownKey,
    UnsupportedSpace,
)
from .hyper import oneof
from .prng import SplitMix64
from .serialization import _field, _finite
from .values import Sequence, SymbolicValue

OP_HINT = "op"
EDGE_HINT = "edge"


def build_nasbench_space(nodes: int, ops: int) -> SymbolicValue:
    """The builtin benchmark space: ``[[op choices...], [edge bits...]]`` with
    one K-way choice per node followed by one on/off choice per edge."""
    if nodes < 2 or ops < 2:
        raise BadDimensions(f"need nodes >= 2 and ops >= 2, got {nodes}, {ops}")
    op_choices = [oneof(list(range(ops)), hints=OP_HINT) for _ in range(nodes)]
    edge_choices = [oneof([0, 1], hints=EDGE_HINT) for _ in range(num_edges(nodes))]
    return Sequence([Sequence(op_choices), Sequence(edge_choices)])


def num_edges(nodes: int) -> int:
    return nodes * (nodes - 1) // 2


def edge_pairs(nodes: int) -> list[tuple[int, int]]:
    return [(src, dst) for src in range(nodes) for dst in range(src + 1, nodes)]


class SyntheticNASOracle:
    """Deterministic synthetic benchmark over the builtin space."""

    def __init__(self, nodes: int, ops: int, seed: int):
        if nodes < 2 or ops < 2:
            raise BadDimensions(f"need nodes >= 2 and ops >= 2, got {nodes}, {ops}")
        self.nodes = nodes
        self.ops = ops
        self.seed = seed
        gen = SplitMix64(seed)
        self.w = [[gen.next_unit() for _ in range(ops)] for _ in range(nodes)]
        self.v = [gen.next_unit() for _ in range(num_edges(nodes))]
        self._pairs = edge_pairs(nodes)

    def reward(self, op_ids: list[int], edges: list[int]) -> float:
        node_sum = 0.0
        for i in range(self.nodes):
            node_sum += self.w[i][op_ids[i]]
        edge_sum = 0.0
        for e, (src, dst) in enumerate(self._pairs):
            target = (op_ids[src] + op_ids[dst]) % 2
            if edges[e] == target:
                edge_sum += self.v[e]
        return 0.5 * node_sum / self.nodes + 0.5 * edge_sum / len(self._pairs)

    def reward_from_dna(self, dna: DNA, spec: DecisionSpec) -> float:
        op_ids, edges = split_ops_edges(dna, spec, self.nodes, self.ops)
        return self.reward(op_ids, edges)


def split_ops_edges(dna: DNA, spec: DecisionSpec, nodes: int, ops: int) -> tuple[list[int], list[int]]:
    """Read node operations and edge bits out of a builtin-space DNA."""
    expected = nodes + num_edges(nodes)
    if len(spec.points) != expected or len(dna.decisions) != expected:
        raise UnsupportedSpace(
            f"expected the builtin space with {nodes} nodes ({expected} points)")
    for index, point in enumerate(spec.points):
        want = ops if index < nodes else 2
        if not isinstance(point, CategoricalPoint) or point.k != 1 or point.n != want:
            raise UnsupportedSpace(f"point {point.id!r} does not match the builtin space")
    op_ids = [dna.decisions[i][0].index for i in range(nodes)]
    edges = [dna.decisions[nodes + e][0].index for e in range(num_edges(nodes))]
    return op_ids, edges


class TableOracle:
    """Precomputed rewards keyed by canonical DNA text."""

    def __init__(self, spec: DecisionSpec, rewards: dict[str, float]):
        if spec.is_continuous:
            raise ContinuousSpaceForTable("table oracles require fully discrete spaces")
        self.spec = spec
        self.rewards = dict(rewards)

    def lookup(self, dna_text: str) -> float:
        try:
            return self.rewards[dna_text]
        except KeyError:
            raise UnknownKey(f"no reward recorded for DNA {dna_text!r}") from None

    def to_json_obj(self) -> dict:
        return {"spec": spec_to_json_obj(self.spec), "rewards": self.rewards}

    def save(self, path) -> None:
        with open(Path(path), "w", encoding="utf-8") as handle:
            json.dump(self.to_json_obj(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "TableOracle":
        try:
            with open(Path(path), "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            if not isinstance(doc, dict):
                raise MalformedDocument(f"a table must be a JSON object, got {type(doc).__name__}")
            rewards = {str(k): float(v)
                       for k, v in _field(doc, "rewards", dict, "an object", label="table").items()}
            spec = spec_from_json_obj(_field(doc, "spec", dict, "an object", label="table"))
        except (OSError, ValueError, TypeError, MalformedDocument) as exc:
            raise MalformedDocument(f"bad table file {path}: {exc}") from None
        table = cls(spec, rewards)
        for key, reward in rewards.items():
            if reward != reward or reward == math.inf:
                raise MalformedDocument(f"bad table file {path}: reward {reward!r} for key "
                                        f"{key!r} is NaN or +inf; -inf is the only "
                                        "non-finite reward")
            try:
                decode_dna(key, spec)
            except (ParseError, NonconformingDNA) as exc:
                raise MalformedDocument(f"bad table file {path}: key {key!r} is not canonical "
                                        f"DNA text of its spec: {exc}") from None
        return table


def dump_table(space, oracle: SyntheticNASOracle) -> TableOracle:
    """Tabulate a synthetic oracle over every DNA of a finite space."""
    spec = abstract_search_space(space)
    if spec.is_continuous:
        raise ContinuousSpaceForTable("cannot tabulate a continuous space")
    rewards = {}
    for dna in enumerate_dnas(spec):
        rewards[encode_dna(dna, spec)] = oracle.reward_from_dna(dna, spec)
    return TableOracle(spec, rewards)


def eval_oracle(oracle, dna: DNA, spec: DecisionSpec) -> float:
    """Deterministic reward of one DNA under either oracle kind."""
    if isinstance(oracle, SyntheticNASOracle):
        return oracle.reward_from_dna(dna, spec)
    if isinstance(oracle, TableOracle):
        if spec.is_continuous:
            raise ContinuousSpaceForTable("table oracles require fully discrete spaces")
        return oracle.lookup(encode_dna(dna, spec))
    raise TypeError(f"unsupported oracle {oracle!r}")


def spec_from_json_obj(doc: dict) -> DecisionSpec:
    """Parse the JSON rendering produced by ``spec_to_json_obj``.  Ids must
    be text, counts and int bounds JSON integers, flags booleans and float
    bounds finite numbers, ``points`` and each subspace lists of point
    objects, and a categorical's ``n`` must count its subspaces; anything
    else raises MalformedDocument."""
    def parse_points(points, where):
        if not isinstance(points, list) or not all(isinstance(p, dict) for p in points):
            raise MalformedDocument(f"{where} must be a list of point objects, got {points!r}")
        return [parse_point(p) for p in points]

    def parse_point(obj):
        kind = _field(obj, "kind", str, "text", label="point")
        label = f"{kind} point {obj.get('id')!r}"
        point_id = _field(obj, "id", str, "text", label=label)
        integer = lambda key: _field(obj, key, int, "an integer", label=label)
        flag = lambda key: _field(obj, key, bool, "true or false", label=label)
        if kind == "categorical":
            point = CategoricalPoint(
                id=point_id, k=integer("k"), n=integer("n"),
                distinct=flag("distinct"), sorted=flag("sorted"),
                subspaces=[parse_points(sub, f"{label} subspaces[{i}]") for i, sub
                           in enumerate(_field(obj, "subspaces", list, "a list", label=label))],
                hints=obj.get("hints"),
            )
            if point.n != len(point.subspaces):
                raise MalformedDocument(f"{label} n must equal its number of subspaces, "
                                        f"{len(point.subspaces)}, got {point.n}")
            return point
        if kind == "int":
            return IntPoint(point_id, integer("min"), integer("max"), obj.get("hints"))
        if kind == "float":
            return FloatPoint(point_id, _finite(obj, "min", label), _finite(obj, "max", label),
                              obj.get("hints"))
        raise MalformedDocument(f"unknown decision kind {kind!r}")

    return DecisionSpec(parse_points(doc.get("points"), "spec points"))
