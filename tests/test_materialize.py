"""Materialization: full, partial, decomposition and inverse matching."""

from __future__ import annotations

import importlib
import math
import random

import pytest

import symsearch as ss
from conftest import Slot
from test_flows import count_calls
from symsearch.decisions import (
    DNA,
    CategoricalPoint,
    Choice,
    abstract_search_space,
    enumerate_dnas,
    filter_spec,
    random_dna,
    split_dna,
)
from symsearch import schema
from symsearch.errors import ConstraintViolation, NonconformingDNA
from symsearch.hyper import intv, manyof, oneof
from symsearch.materialize import (
    infer_dna,
    materialize,
    materialize_partial,
    materialize_partial_prepared,
    materialize_prepared,
)
from symsearch.values import ObjectNode

# The module, which the package's `materialize` function shadows.
materialize_module = importlib.import_module("symsearch.materialize")


@pytest.fixture()
def cond_space(types):
    return oneof([types.Identity(), types.MaxPool(3), types.Conv(oneof([2, 4]), 3)])


def test_materialize_by_enumeration_oracle(cond_space, types):
    spec = abstract_search_space(cond_space)
    programs = [materialize(cond_space, dna) for dna in enumerate_dnas(spec)]
    assert len(programs) == 4
    expected = [types.Identity(), types.MaxPool(3), types.Conv(2, 3), types.Conv(4, 3)]
    for produced, wanted in zip(programs, expected):
        assert ss.equal(produced, wanted)
    # the indexed example: [2, [1]] picks the conv with its second filter count
    assert ss.equal(materialize(cond_space, DNA([[Choice(2, [[Choice(1, [])]])]])),
                    types.Conv(4, 3))


def test_materialize_deterministic_space_is_identity(types):
    program = types.Dense(10)
    assert ss.equal(materialize(program, DNA([])), program)


def test_materialize_rejects_nonconforming(cond_space):
    with pytest.raises(NonconformingDNA):
        materialize(cond_space, DNA([[Choice(5, [])]]))


def test_materialize_never_mutates_input(cond_space):
    before = ss.clone(cond_space)
    spec = abstract_search_space(cond_space)
    for dna in enumerate_dnas(spec):
        materialize(cond_space, dna)
    assert ss.equal(cond_space, before)


def test_materialize_int_and_float(types):
    space = types.CosineDecay(ss.floatv(0.0, 1.0), intv(100, 200))
    program = materialize(space, DNA([0.5, 150]))
    assert program["learning_rate"] == 0.5
    assert program["steps"] == 150


def test_multi_choice_splices_as_sequence(types):
    space = types.Sequential(children=manyof(2, [types.Dense(1), types.Dense(2), types.Dense(3)]))
    program = materialize(space, DNA([[Choice(2), Choice(0)]]))
    assert ss.equal(program, types.Sequential(children=[types.Dense(3), types.Dense(1)]))


def test_results_are_deterministic_valid_and_distinct(make_generator):
    gen = make_generator(7)
    for _ in range(10):
        space = gen.finite_space(max_size=600)
        spec = abstract_search_space(space)
        seen = set()
        for dna in enumerate_dnas(spec):
            program = materialize(space, dna)
            assert ss.is_deterministic(program)
            ss.validate_tree(program)
            seen.add(ss.serialize(program))
        assert len(seen) == ss.space_size(space)


def test_leaves_keep_the_type_of_their_point():
    """An int decision on a float point builds a float; an int point builds
    an int; a k > 1 choice splices a sequence that parents each part."""
    space = ss.Sequence([ss.floatv(0.0, 2.0), intv(0, 3),
                         manyof(2, [ss.Sequence([intv(0, 3)]), 7], distinct=False)])
    child = materialize(space, DNA([1, 2, [Choice(0, [3]), Choice(1)]]))
    assert type(child[0].value) is float and child[0].value == 1.0
    assert type(child[1].value) is int and child[1].value == 2
    parts = child[2]
    assert type(parts) is ss.Sequence and parts._parent[0]() is child
    assert [(part._parent[0]() is parts, part._parent[1]) for part in parts] == [(True, 0), (True, 1)]
    assert ss.equal(parts, ss.Sequence([[3], 7]))


@pytest.mark.parametrize("decisions", [[True, 1], [0.5, True], [math.nan, 1], [0.5, 4]],
                         ids=["bool-int", "bool-float", "nan", "out-of-range"])
def test_materialize_refuses_a_nonconforming_leaf_before_building(monkeypatch, decisions):
    compiled = count_calls(monkeypatch, "_compile", materialize_module)
    with pytest.raises(NonconformingDNA):
        materialize(ss.Sequence([ss.floatv(0.0, 2.0), intv(0, 3)]), DNA(decisions))
    assert compiled == []


def test_a_prepared_space_compiles_its_root_and_each_candidate_once(monkeypatch):
    """The first of 100 builds of one space compiles the root's nodes and
    every candidate's nodes, counted per candidate below, and the other 99
    compile nothing."""
    space = ss.Mapping({
        "a": oneof([ss.Mapping({"x": intv(0, 3)}), 2, ss.floatv(0.0, 1.0)]),
        "b": manyof(2, [ss.Sequence([intv(0, 1)]), 5], distinct=False),
    })
    nodes = {("a", 0): 2, ("a", 1): 1, ("a", 2): 1, ("b", 0): 2, ("b", 1): 1}
    spec = abstract_search_space(space)
    compiled = count_calls(monkeypatch, "_compile", materialize_module)
    rng = random.Random(0)
    materialize_prepared(space, spec, random_dna(spec, rng))
    assert len(compiled) == 3 + sum(nodes.values())
    for _ in range(99):
        materialize_prepared(space, spec, random_dna(spec, rng))
    assert len(compiled) == 3 + sum(nodes.values())


def test_an_object_refuses_a_hyper_value_when_it_is_built():
    """An object built directly, not through a TypeDef call, still checks its
    fields, so no space can hold a range its spec does not accept; a refused
    object adopts none of its fields."""
    box = ss.TypeDef("Box", [ss.Param("label", schema.Text()), ss.Param("size", schema.Int(max=10))])
    label = ss.to_symbolic("a")
    with pytest.raises(ConstraintViolation) as caught:
        ObjectNode(box, {"label": label, "size": intv(0, 100)})
    assert caught.value.path == "size"
    assert label._parent is None
    space = ss.Sequence([ObjectNode(box, {"label": label, "size": intv(0, 10)})])
    assert materialize(space, DNA([5]))[0]["size"] == 5


def node_ids(tree) -> set:
    return {id(node) for _, node in ss.walk(tree)}


def test_prepared_builds_follow_the_space_not_an_equal_spec():
    """Two spaces with equal specs and different constants, built in turn
    with one shared spec object: each child comes from its own space, and
    no two children of one space share a node."""
    spaces = {1: oneof([Slot(value=1), Slot(value=2)]), 3: oneof([Slot(value=3), Slot(value=4)])}
    spec = abstract_search_space(spaces[1])
    assert spec == abstract_search_space(spaces[3])
    select = lambda point: True
    children = {1: [], 3: []}
    for partial in (False, True, False):
        for _ in range(2):
            for base, space in spaces.items():
                for index in (0, 1):
                    dna = DNA([[Choice(index)]])
                    child = (materialize_partial_prepared(space, spec, dna, select) if partial
                             else materialize_prepared(space, spec, dna))
                    assert ss.equal(child, Slot(value=base + index))
                    children[base].append(child)
    for built in children.values():
        seen = set()
        for child in built:
            assert not seen & node_ids(child)
            seen |= node_ids(child)


# -- partial materialization -------------------------------------------------------

def test_partial_fixes_selected_and_keeps_rest():
    space = ss.Mapping({
        "op": oneof([10, 11, 12], hints="op"),
        "edge": oneof([0, 1], hints="edge"),
    })
    spec = abstract_search_space(space)
    selected = filter_spec(spec, lambda p: p.hints == "op")
    sub = materialize_partial(space, DNA([[Choice(2)]]), lambda p: p.hints == "op")
    assert sub["op"] == 12
    assert not ss.is_deterministic(sub)
    remaining = abstract_search_space(sub)
    assert len(remaining.points) == 1 and remaining.points[0].hints == "edge"
    assert len(selected.points) == 1


def test_partial_rejects_nonconforming(types):
    space = ss.Mapping({"op": oneof([10, 11, 12], hints="op"), "width": intv(1, 4)})
    op = lambda p: p.hints == "op"
    for dna in (DNA([[Choice(3)]]), DNA([[Choice(0)], 2]), DNA([2])):
        with pytest.raises(NonconformingDNA):
            materialize_partial(space, dna, op)


def test_partial_preserves_nested_unselected(types):
    space = oneof(
        [types.Conv(oneof([2, 4], hints="filters"), 3), types.Identity()],
        hints="arch")
    sub = materialize_partial(space, DNA([[Choice(0, [])]]), lambda p: p.hints == "arch")
    # the conv was chosen, its nested filters choice survives verbatim
    remaining = abstract_search_space(sub)
    assert [p.hints for p in remaining.points] == ["filters"]
    assert sub.type_name == "Conv"


def test_partial_with_everything_selected_equals_materialize(cond_space):
    spec = abstract_search_space(cond_space)
    for dna in enumerate_dnas(spec):
        full = materialize(cond_space, dna)
        partial = materialize_partial(cond_space, dna, lambda p: True)
        assert ss.equal(full, partial)


def test_partial_with_empty_selection_returns_clone(cond_space):
    result = materialize_partial(cond_space, DNA([]), lambda p: False)
    assert ss.equal(result, cond_space)
    assert result is not cond_space
    # The DNA is checked on this route too: an empty selection takes only DNA([]).
    space = ss.Mapping({"a": oneof([1, 2]), "b": intv(0, 3)})
    for dna in (DNA([5]), DNA([5, "x"])):
        with pytest.raises(NonconformingDNA):
            materialize_partial(space, dna, lambda p: False)


def test_partial_decomposition_property(make_generator):
    """materialize(S, dna) == materialize(materialize_partial(S, sel), comp)."""
    gen = make_generator(13, with_hints=True)
    rng = random.Random(29)
    selectors = [
        lambda p: p.hints == "a",
        lambda p: p.hints == "b",
        lambda p: p.hints in ("a", "b"),
        lambda p: isinstance(p, CategoricalPoint),
        lambda p: not isinstance(p, CategoricalPoint),
    ]
    cases = 0
    for _ in range(25):
        space = gen.finite_space(max_size=3000)
        spec = abstract_search_space(space)
        for _ in range(8):
            dna = random_dna(spec, rng)
            direct = materialize(space, dna)
            for selector in selectors:
                selected, complement = split_dna(spec, dna, selector)
                if not filter_spec(spec, selector).points:
                    continue
                partial = materialize_partial(space, selected, selector)
                final = materialize(partial, complement)
                assert ss.equal(final, direct)
                cases += 1
    assert cases >= 300


def test_partial_complement_spec_shape(make_generator):
    """The sub-space's spec is exactly the complement restricted to the
    branches that survive the selected choices."""
    from symsearch.decisions import validate_dna

    gen = make_generator(19, with_hints=True)
    rng = random.Random(31)
    checked = 0
    for _ in range(20):
        space = gen.finite_space(max_size=2000)
        spec = abstract_search_space(space)
        selector = lambda p: p.hints == "a"
        if filter_spec(spec, selector).is_empty:
            continue
        full = random_dna(spec, rng)
        selected, complement = split_dna(spec, full, selector)
        sub = materialize_partial(space, selected, selector)
        remaining = abstract_search_space(sub)
        validate_dna(complement, remaining)
        assert all(p.hints != "a" for p in remaining.points)
        checked += 1
    assert checked >= 5


# -- inverse materialization ---------------------------------------------------------

def test_infer_dna_roundtrip(make_generator):
    gen = make_generator(37)
    rng = random.Random(5)
    for _ in range(15):
        space = gen.finite_space(max_size=1500)
        spec = abstract_search_space(space)
        for _ in range(10):
            dna = random_dna(spec, rng)
            program = materialize(space, dna)
            assert infer_dna(space, program) == dna


def test_infer_dna_rejects_foreign_program(types):
    space = oneof([types.Dense(1), types.Dense(2)])
    with pytest.raises(NonconformingDNA):
        infer_dna(space, types.Dense(3))
