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
as JSON {"spec": <decision-spec>, "rewards": {text: reward}} (see
``serialization``); it requires a fully discrete space.
"""

from __future__ import annotations

import json
from pathlib import Path

from .decisions import (
    DNA,
    CategoricalPoint,
    DecisionSpec,
    abstract_search_space,
    decode_dna,
    encode_dna,
    enumerate_dnas,
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
from .serialization import spec_to_json_obj, table_from_json_obj
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
    reads a spec's `is_continuous`, which a spec computes once."""

    def __init__(self, spec: DecisionSpec, rewards: dict[str, float]):
        if spec.is_continuous:
            raise ContinuousSpaceForTable("table oracles require fully discrete spaces")
        self.spec = spec
        self.rewards = dict(rewards)

    def reward_from_dna(self, dna: DNA, spec: DecisionSpec) -> float:
        if spec.is_continuous:
            raise ContinuousSpaceForTable("table oracles require fully discrete spaces")
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
                spec, rewards = table_from_json_obj(json.load(handle))
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"bad table file {path}: not UTF-8 text: {exc}") from None
        except (OSError, ValueError, TypeError, MalformedDocument) as exc:
            raise MalformedDocument(f"bad table file {path}: {exc}") from None
        except RecursionError:
            raise MalformedDocument(f"bad table file {path}: document is nested too deeply") from None
        table = cls(spec, rewards)
        for key in rewards:
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
    return TableOracle(spec, {encode_dna(dna, spec): oracle.reward_from_dna(dna, spec)
                              for dna in enumerate_dnas(spec)})


def eval_oracle(oracle, dna: DNA, spec: DecisionSpec) -> float:
    """Deterministic reward of one DNA under either oracle kind."""
    return oracle.reward_from_dna(dna, spec)
