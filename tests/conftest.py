"""Shared fixtures: a model/trainer type family and random space generators."""

from __future__ import annotations

import itertools
import json
import os
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings, strategies as st

import symsearch as ss
from symsearch import schema
from symsearch.errors import ConstraintViolation
from symsearch.hyper import Categorical, IntRange, floatv, intv, manyof, oneof
from symsearch.values import Mapping, Primitive, Sequence

# A failing property prints the blob that reproduces it, so that a run with
# no example database (a fresh CI checkout) still says how to replay it.
settings.register_profile("symsearch", print_blob=True)
settings.load_profile("symsearch")

# Constrained holders for generated hyper values (see SpaceGenerator.typed):
# every categorical candidate the generator makes is a two-element sequence.
# Together their fields hold hyper values under every ValueSpec kind; the
# bounds of Capped, Level, Crate and Named reject some of the values drawn.
_PAIR = schema.ListOf(schema.Any(), min_len=2, max_len=2)
HOLDERS = ss.TypeRegistry()
Slot = HOLDERS.register(ss.TypeDef("Slot", [ss.Param("value", schema.Int(min=0))]))
Capped = HOLDERS.register(ss.TypeDef("Capped", [ss.Param("value", schema.Int(min=0, max=21))]))
Level = HOLDERS.register(ss.TypeDef("Level", [
    ss.Param("value", schema.Float(min=5.0, max=62.5, nullable=True)),
]))
Pick = HOLDERS.register(ss.TypeDef("Pick", [ss.Param("choice", _PAIR)]))
Group = HOLDERS.register(ss.TypeDef("Group", [
    ss.Param("items", schema.ListOf(_PAIR, min_len=1, max_len=3)),
]))
Table = HOLDERS.register(ss.TypeDef("Table", [ss.Param("entries", schema.MapOf(_PAIR))]))
Cell = HOLDERS.register(ss.TypeDef("Cell", [ss.Param("pair", _PAIR)]))
Boxed = HOLDERS.register(ss.TypeDef("Boxed", [ss.Param("cell", schema.ObjectOf("Cell"))]))
Crate = HOLDERS.register(ss.TypeDef("Crate", [
    ss.Param("cells", schema.ListOf(schema.ObjectOf("Cell"), min_len=2, max_len=2)),
]))
Named = HOLDERS.register(ss.TypeDef("Named", [
    ss.Param("choice", _PAIR),
    ss.Param("name", schema.Text(pattern=r"n\d*[0-6]")),
    ss.Param("mode", schema.Enum(["x", "y"], nullable=True)),
]))


def _in_cells(hyper):
    """`hyper` with each candidate pair wrapped in a Cell."""
    return Categorical(hyper.k, [Cell(pair=c) for c in hyper.candidates],
                       distinct=hyper.distinct, sorted=hyper.sorted, hints=hyper.hints)


def _named(hyper):
    """A Named holding `hyper` with a name drawn alongside it: one text per
    candidate, from its tag, and a mode that may be null."""
    names = oneof([f"n{c[0].value}" for c in hyper.candidates])
    return Named(choice=hyper, name=names, mode=oneof(["x", None]))


# Holders by the kind of hyper value they take; the first takes every value
# the generator draws of its kind.
INT_HOLDERS = (lambda h: Slot(value=h), lambda h: Capped(value=h), lambda h: Level(value=h))
ONE_HOLDERS = (lambda h: Pick(choice=h), lambda h: Group(items=[h]),
               lambda h: Table(entries={"k0": h}), lambda h: Boxed(cell=_in_cells(h)), _named)
MANY_HOLDERS = (lambda h: Group(items=h), lambda h: Crate(cells=_in_cells(h)))


@pytest.fixture(autouse=True, scope="session")
def package_path_for_subprocesses():
    """CLI tests start ``python -m symsearch.cli``; let those processes import
    the package from ``src/`` even when pytest alone put it on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, saved) if p)
    yield
    if saved is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = saved


@pytest.fixture()
def types():
    """A small layer/trainer vocabulary used across the suite."""
    reg = ss.TypeRegistry()
    ns = SimpleNamespace(registry=reg)
    ns.Identity = reg.register(ss.TypeDef("Identity", []))
    ns.MaxPool = reg.register(ss.TypeDef("MaxPool", [ss.Param("size", schema.Int(min=1))]))
    ns.Conv = reg.register(ss.TypeDef("Conv", [
        ss.Param("filters", schema.Int(min=1)),
        ss.Param("kernel_size", schema.Any()),
    ]))
    ns.Dense = reg.register(ss.TypeDef("Dense", [ss.Param("units", schema.Int(min=1))]))
    ns.BatchNorm = reg.register(ss.TypeDef("BatchNorm", []))
    ns.ReLU = reg.register(ss.TypeDef("ReLU", []))
    ns.Sequential = reg.register(ss.TypeDef("Sequential", [
        ss.Param("children", schema.ListOf(schema.Any())),
    ]))
    ns.Adam = reg.register(ss.TypeDef("Adam", [
        ss.Param("learning_rate", schema.Float(min=0), 1e-3),
    ]))
    ns.RMSProp = reg.register(ss.TypeDef("RMSProp", [
        ss.Param("learning_rate", schema.Float(min=0)),
    ]))
    ns.CosineDecay = reg.register(ss.TypeDef("CosineDecay", [
        ss.Param("learning_rate", schema.Float(min=0)),
        ss.Param("steps", schema.Int(min=1)),
    ]))
    ns.random_augment = reg.register(ss.TypeDef(
        "random_augment",
        [ss.Param("magnitude", schema.Int(min=0))],
        impl=lambda magnitude: ("augmented", magnitude),
    ))
    ns.train_model = reg.register(ss.TypeDef(
        "train_model",
        [
            ss.Param("model", schema.ObjectOf("Sequential")),
            ss.Param("augment_policy", schema.ObjectOf("random_augment")),
            ss.Param("learning_schedule", schema.ObjectOf("CosineDecay")),
        ],
        impl=lambda model, augment_policy, learning_schedule: 0.9,
    ))
    return ns


@pytest.fixture()
def trainer(types):
    """The operation-transcript object: a trainer over a two-layer model."""
    model = types.Sequential(children=[
        types.Conv(filters=8, kernel_size=(3, 3)),
        types.Dense(units=10),
    ])
    return types.train_model(augment_policy=types.random_augment(magnitude=8)).bind(model=model)


class SpaceGenerator:
    """Random conditional spaces whose DNAs materialize to pairwise-distinct
    programs (every categorical candidate carries a unique tag).

    With ``with_types`` every hyper value sits in a field of a typed object
    whose spec constrains it.  The holder is drawn from a second Random, seeded
    from the first one's state, so the random draws are the same either way;
    a holder whose spec rejects the value gives way to the first holder of
    its kind.  With ``only_oneof`` every categorical is a one-of, so that a
    space holds only the kinds eager mode writes (with floats added).
    """

    def __init__(self, rng: random.Random, with_hints: bool = False, max_depth: int = 3,
                 with_types: bool = False, only_oneof: bool = False):
        self.rng = rng
        self.with_hints = with_hints
        self.max_depth = max_depth
        self.with_types = with_types
        self.only_oneof = only_oneof
        self._holders = random.Random(str(rng.getstate()))
        self._tags = itertools.count()

    def tag(self) -> int:
        return next(self._tags)

    def hint(self):
        if not self.with_hints:
            return None
        return self.rng.choice(["a", "b", None])

    def space(self, depth: int = 0):
        roll = self.rng.random()
        if depth >= self.max_depth or roll < 0.2:
            return Primitive(self.tag())
        if roll < 0.4:
            return Sequence([self.space(depth + 1) for _ in range(self.rng.randint(1, 3))])
        if roll < 0.5:
            return Mapping({f"k{i}": self.space(depth + 1)
                            for i in range(self.rng.randint(1, 2))})
        if roll < 0.6:
            lo = self.tag() * 10
            return self.typed(intv(lo, lo + self.rng.randint(0, 3), hints=self.hint()))
        if roll < 0.75 or self.only_oneof:
            return self.typed(oneof([self.candidate(depth)
                                     for _ in range(self.rng.randint(2, 3))],
                                    hints=self.hint()))
        n = self.rng.randint(2, 3)
        distinct = self.rng.random() < 0.5
        k = self.rng.randint(1, n if distinct else 3)
        return self.typed(manyof(k, [self.candidate(depth) for _ in range(n)],
                                 distinct=distinct, sorted=self.rng.random() < 0.5,
                                 hints=self.hint()))

    def typed(self, hyper):
        if not self.with_types:
            return hyper
        if isinstance(hyper, IntRange):
            holders = INT_HOLDERS
        else:
            holders = ONE_HOLDERS if hyper.k == 1 else MANY_HOLDERS
        try:
            return self._holders.choice(holders)(hyper)
        except ConstraintViolation:
            return holders[0](hyper)

    def candidate(self, depth: int):
        return Sequence([Primitive(self.tag()), self.space(depth + 1)])

    def finite_space(self, max_size: int = 10_000, min_size: int = 2):
        while True:
            root = self.space()
            size = ss.space_size(root)
            if size != ss.INFINITE and min_size <= size <= max_size:
                return root

    def continuous_candidate(self, depth: int = 0):
        return floatv(0.0, float(self.rng.randint(1, 5)), hints=self.hint())


def seeded_spaces(**options):
    """SpaceGenerator seeded with a drawn integer.  Its trees are as varied
    as the generator makes them, while hypothesis-made randoms mostly give
    trees with one decision point or none."""
    return st.integers(0, 2 ** 32 - 1).map(
        lambda seed: SpaceGenerator(random.Random(seed), **options).space())


def strict_json(text: str):
    """Parse JSON, rejecting the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


_ONE_CANDIDATE = ('{"kind": "categorical", "id": "c", "k": 1, "n": 1, "distinct": true, '
                  '"sorted": false, "hints": null, "subspaces": [[')

# Table files nested past the recursion limit: a spec value of 3,000 nested
# lists, and 900 one-candidate categoricals each nested in the one before.
DEEP_TABLES = {
    "brackets": '{"spec": ' + "[" * 3000 + "]" * 3000 + ', "rewards": {}}',
    "subspace-chain": ('{"spec": {"points": [' + _ONE_CANDIDATE * 900 + "]]}" * 900
                       + ']}, "rewards": {}}'),
}


@pytest.fixture()
def make_generator():
    def factory(seed: int, **kwargs) -> SpaceGenerator:
        return SpaceGenerator(random.Random(seed), **kwargs)
    return factory
