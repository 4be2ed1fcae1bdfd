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
    """Deterministic synthetic benchmark over the builtin space.

    ``reward_from_dna`` checks the shape of a spec once per spec object: it
    remembers, by identity, the last spec it found to be the builtin space,
    and then checks only each DNA's length."""

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
        self._spec = None  # the last spec found to be the builtin space, held, never an id

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
        nodes, decisions = self.nodes, dna.decisions
        expected = nodes + len(self._pairs)
        if len(decisions) != expected or spec is not self._spec and len(spec.points) != expected:
            raise UnsupportedSpace(
                f"expected the builtin space with {nodes} nodes ({expected} points)")
        if spec is not self._spec:
            for index, point in enumerate(spec.points):
                want = self.ops if index < nodes else 2
                if not isinstance(point, CategoricalPoint) or point.k != 1 or point.n != want:
                    raise UnsupportedSpace(f"point {point.id!r} does not match the builtin space")
            self._spec = spec
        return self.reward([decision[0].index for decision in decisions[:nodes]],
                           [decision[0].index for decision in decisions[nodes:]])


class TableOracle:
    """Precomputed rewards keyed by canonical DNA text.  ``reward_from_dna``
    checks a spec for float points once per spec object, held by identity."""

    def __init__(self, spec: DecisionSpec, rewards: dict[str, float]):
        if spec.is_continuous:
            raise ContinuousSpaceForTable("table oracles require fully discrete spaces")
        self.spec = spec
        self.rewards = dict(rewards)
        self._discrete = spec  # the last spec found to be discrete, held, never an id

    def reward_from_dna(self, dna: DNA, spec: DecisionSpec) -> float:
        if spec is not self._discrete and spec.is_continuous:
            raise ContinuousSpaceForTable("table oracles require fully discrete spaces")
        self._discrete = spec
        return self.lookup(encode_dna(dna, spec))

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
            rewards = {str(k): _reward(k, v)
                       for k, v in _field(doc, "rewards", dict, "an object", label="table").items()}
            spec = spec_from_json_obj(_field(doc, "spec", dict, "an object", label="table"))
        except (OSError, ValueError, TypeError, MalformedDocument) as exc:
            raise MalformedDocument(f"bad table file {path}: {exc}") from None
        table = cls(spec, rewards)
        for key in rewards:
            try:
                decode_dna(key, spec)
            except (ParseError, NonconformingDNA) as exc:
                raise MalformedDocument(f"bad table file {path}: key {key!r} is not canonical "
                                        f"DNA text of its spec: {exc}") from None
        return table


def _reward(key: str, value) -> float:
    """A table reward: a JSON number that fits a float, and not NaN or +inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedDocument(f"reward for key {key!r} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise MalformedDocument(f"reward for key {key!r} is an integer too large for a "
                                "float") from None
    if value != value or value == math.inf:
        raise MalformedDocument(f"reward {value!r} for key {key!r} is NaN or +inf; -inf is "
                                "the only non-finite reward")
    return value


def dump_table(space, oracle: SyntheticNASOracle) -> TableOracle:
    """Tabulate a synthetic oracle over every DNA of a finite space."""
    spec = abstract_search_space(space)
    if spec.is_continuous:
        raise ContinuousSpaceForTable("cannot tabulate a continuous space")
    return TableOracle(spec, {encode_dna(dna, spec): oracle.reward_from_dna(dna, spec)
                              for dna in enumerate_dnas(spec)})


def eval_oracle(oracle, dna: DNA, spec: DecisionSpec) -> float:
    """Deterministic reward of one DNA under either oracle kind."""
    if isinstance(oracle, (SyntheticNASOracle, TableOracle)):
        return oracle.reward_from_dna(dna, spec)
    raise TypeError(f"unsupported oracle {oracle!r}")


def spec_from_json_obj(doc: dict) -> DecisionSpec:
    """Parse the JSON rendering produced by ``spec_to_json_obj``.  Ids must
    be text, hints text or null, counts and int bounds JSON integers, flags
    booleans, float bounds finite numbers, and ``points`` and each subspace
    lists of point objects.  A point must be one the hyper constructors
    allow: ``n`` counts the subspaces, ``k, n >= 1``, ``k <= n`` if distinct
    and ``min <= max``.  Anything else raises MalformedDocument."""
    def parse_points(points, where):
        if not isinstance(points, list) or not all(isinstance(p, dict) for p in points):
            raise MalformedDocument(f"{where} must be a list of point objects, got {points!r}")
        return [parse_point(p) for p in points]

    def parse_point(obj):
        kind = _field(obj, "kind", str, "text", label="point")
        label = f"{kind} point {obj.get('id')!r}"
        point_id = _field(obj, "id", str, "text", label=label)
        hints = _field(obj, "hints", (str, type(None)), "text or null", label=label)
        integer = lambda key: _field(obj, key, int, "an integer", label=label)
        flag = lambda key: _field(obj, key, bool, "true or false", label=label)
        def require(holds, key, rule):
            if not holds:
                raise MalformedDocument(f"{label} {key} must {rule}, got {obj[key]!r}")
        if kind == "categorical":
            point = CategoricalPoint(
                id=point_id, k=integer("k"), n=integer("n"),
                distinct=flag("distinct"), sorted=flag("sorted"),
                subspaces=[parse_points(sub, f"{label} subspaces[{i}]") for i, sub
                           in enumerate(_field(obj, "subspaces", list, "a list", label=label))],
                hints=hints,
            )
            require(point.n == len(point.subspaces), "n",
                    f"equal its number of subspaces, {len(point.subspaces)}")
            require(point.n >= 1, "n", "be at least 1")
            require(point.k >= 1, "k", "be at least 1")
            require(point.k <= point.n or not point.distinct, "k",
                    f"be at most n, {point.n}, when distinct")
            return point
        if kind == "int":
            point = IntPoint(point_id, integer("min"), integer("max"), hints)
        elif kind == "float":
            point = FloatPoint(point_id, _finite(obj, "min", label), _finite(obj, "max", label),
                               hints)
        else:
            raise MalformedDocument(f"unknown decision kind {kind!r}")
        require(point.min <= point.max, "min", f"be at most max, {obj['max']!r}")
        return point

    return DecisionSpec(parse_points(doc.get("points"), "spec points"))
