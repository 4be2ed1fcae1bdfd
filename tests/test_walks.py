"""Tree walks: query, equal, serialize, deserialize and infer_dna give the
same results, orders, node identities, exceptions and messages as the walks
they replaced, which are kept below word for word, and reach any depth that
clone reaches (query any depth at all)."""

from __future__ import annotations

import copy
import enum
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import symsearch as ss
from conftest import HOLDERS, SpaceGenerator
from symsearch.decisions import DNA, Choice, _feasible_indices, abstract_search_space, random_dna
from symsearch.errors import (InvalidPattern, MalformedDocument, NonconformingDNA, SymsearchError,
                              UnknownField, UnknownType)
from symsearch.hyper import Categorical, FloatRange, IntRange, intv, oneof
from symsearch.materialize import infer_dna, materialize
from symsearch.paths import join_segment
from symsearch.serialization import (_KEYS, _categorical_form, _check_keys, _field, _point_rule,
                                     _range_from_json, from_json_obj)
from symsearch.values import Mapping, ObjectNode, Primitive, Sequence, parent_of, to_symbolic

# -- the walks as they stood before reading storage, word for word ---------------


def head_query(x, selector) -> dict:
    if isinstance(selector, str):
        try:
            pattern = re.compile(selector)
        except re.error as exc:
            raise InvalidPattern(f"bad pattern {selector!r}: {exc}") from None
        match = lambda path, node, parent: pattern.fullmatch(path) is not None
    elif callable(selector):
        match = selector
    else:
        raise InvalidPattern(f"selector must be pattern text or a predicate, got {selector!r}")
    found = {}
    stack = [("", x, parent_of(x))]
    while stack:
        text, node, parent = stack.pop()
        if match(text, node, parent):
            found[text] = node
        stack.extend(reversed([(join_segment(text, key), child, node) for key, child in node.child_items()]))
    return found


def head_equal(a, b) -> bool:
    a = to_symbolic(a)
    b = to_symbolic(b)
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    return HEAD_EQUALS_SAME_KIND.get(type(a), type(a)._equals_same_kind)(a, b)


def head_sequence_equals(self, other):
    if len(self._children) != len(other._children):
        return False
    return all(head_equal(a, b) for a, b in zip(self._children, other._children))


def head_mapping_equals(self, other):
    if self._entries.keys() != other._entries.keys():
        return False
    return all(head_equal(v, other._entries[k]) for k, v in self._entries.items())


def head_object_equals(self, other):
    if self.type_def.type_name != other.type_def.type_name:
        return False
    if self._fields.keys() != other._fields.keys():
        return False
    return all(head_equal(v, other._fields[k]) for k, v in self._fields.items())


def head_categorical_equals(self, other):
    return (self.k == other.k and self.distinct == other.distinct
            and self.sorted == other.sorted and self.hints == other.hints
            and head_equal(self._candidates, other._candidates))


HEAD_EQUALS_SAME_KIND = {Sequence: head_sequence_equals, Mapping: head_mapping_equals,
                         ObjectNode: head_object_equals, Categorical: head_categorical_equals}


def head_serialize(x) -> str:
    return json.dumps(head_to_json_obj(to_symbolic(x)), separators=(",", ":"))


def head_to_json_obj(node):
    if isinstance(node, Primitive):
        return node.value
    if isinstance(node, Sequence):
        return [head_to_json_obj(c) for c in node]
    if isinstance(node, Mapping):
        return {k: head_to_json_obj(v) for k, v in node.items()}
    if isinstance(node, ObjectNode):
        doc = {"_type": node.type_name}
        for key, child in node.child_items():
            doc[key] = head_to_json_obj(child)
        return doc
    if isinstance(node, Categorical):
        doc = {"_hyper": _categorical_form(node)}
        if doc["_hyper"] == "manyof":
            doc.update(k=node.k, distinct=node.distinct, sorted=node.sorted)
        doc["candidates"] = [head_to_json_obj(c) for c in node.candidates]
        doc["hints"] = node.hints
        return doc
    if isinstance(node, (IntRange, FloatRange)):
        return {"_hyper": node.form, "min": node.min, "max": node.max, "hints": node.hints}
    raise TypeError(f"cannot serialize {type(node).__name__}")


def head_from_json_obj(doc, registry=None):
    if isinstance(doc, (bool, int, float, str)) or doc is None:
        return Primitive(doc)
    if isinstance(doc, list):
        return Sequence([head_from_json_obj(item, registry) for item in doc])
    if not isinstance(doc, dict):
        raise MalformedDocument(f"unsupported JSON value {doc!r}")
    if "_hyper" in doc:
        return head_hyper_from_json(doc, registry)
    if "_type" in doc:
        return head_object_from_json(doc, registry)
    try:
        return Mapping({k: head_from_json_obj(v, registry) for k, v in doc.items()})
    except ValueError as exc:
        raise MalformedDocument(str(exc)) from None


def head_object_from_json(doc, registry):
    type_name = doc["_type"]
    if not isinstance(type_name, str):
        raise MalformedDocument(f"_type must be text, got {type_name!r}")
    if registry is None:
        raise UnknownType(f"type {type_name!r} is not registered")
    type_def = registry.resolve(type_name)
    fields = {key: head_from_json_obj(value, registry) for key, value in doc.items() if key != "_type"}
    try:
        return ObjectNode(type_def, fields)
    except UnknownField as exc:
        raise MalformedDocument(str(exc)) from None


def head_hyper_from_json(doc, registry):
    kind = doc.get("_hyper")
    if not isinstance(kind, str) or "_hyper" not in _KEYS.get(kind, ()):
        raise MalformedDocument(f"unknown hyper kind {kind!r}")
    if kind in ("intv", "floatv"):
        make = IntRange if kind == "intv" else FloatRange
        node = _range_from_json(doc, kind, make is IntRange, make)
    else:
        candidates = [head_from_json_obj(c, registry)
                      for c in _field(doc, kind, "candidates", list, "a list")]
        if kind == "manyof":
            k = _field(doc, kind, "k", object, "an integer")
            distinct = _field(doc, kind, "distinct", bool, "true or false", True)
            sorted_ = _field(doc, kind, "sorted", bool, "true or false", False)
        else:
            k, distinct, sorted_ = 1 if kind == "oneof" else len(candidates), True, False
        node = _point_rule(kind, Categorical, k, candidates, distinct, sorted_, doc.get("hints"))
    _check_keys(doc, kind)
    return node


def head_infer_dna(space, program) -> DNA:
    space = to_symbolic(space)
    program = to_symbolic(program)
    decisions = head_match_tree(space, program)
    if decisions is None:
        raise NonconformingDNA("<infer>", "program does not match the search space")
    return DNA(decisions)


def head_match_tree(space_node, prog_node):
    if isinstance(space_node, Categorical):
        return head_match_categorical(space_node, prog_node)
    if isinstance(space_node, (IntRange, FloatRange)):
        integer = isinstance(space_node, IntRange)
        value = prog_node.value if isinstance(prog_node, Primitive) else None
        if isinstance(value, int if integer else (int, float)) and not isinstance(value, bool) \
                and space_node.min <= value <= space_node.max:
            return [value if integer else float(value)]
        return None
    if type(space_node) is not type(prog_node):
        return None
    if isinstance(space_node, Primitive):
        return [] if head_equal(space_node, prog_node) else None
    if isinstance(space_node, ObjectNode) and space_node.type_name != prog_node.type_name:
        return None
    space_items = list(space_node.child_items())
    prog_items = list(prog_node.child_items())
    if len(space_items) != len(prog_items):
        return None
    decisions = []
    for (seg_a, child_a), (seg_b, child_b) in zip(space_items, prog_items):
        if seg_a != seg_b:
            return None
        sub = head_match_tree(child_a, child_b)
        if sub is None:
            return None
        decisions.extend(sub)
    return decisions


def head_match_categorical(node, prog):
    if node.k == 1:
        for index, candidate in enumerate(node.candidates):
            sub = head_match_tree(candidate, prog)
            if sub is not None:
                return [[Choice(index, sub)]]
        return None
    if not isinstance(prog, Sequence) or len(prog) != node.k:
        return None
    choices = head_assign_slots(node, list(prog), [])
    return None if choices is None else [choices]


def head_assign_slots(node, parts, prefix):
    slot = len(prefix)
    if slot == len(parts):
        return []
    for index in _feasible_indices(node.num_candidates, node.distinct, node.sorted, prefix):
        sub = head_match_tree(node.candidates[index], parts[slot])
        if sub is None:
            continue
        rest = head_assign_slots(node, parts, prefix + [index])
        if rest is not None:
            return [Choice(index, sub)] + rest
    return None


# -- trees to compare on ---------------------------------------------------------

# Each holder type under another name, and under its own name in another
# type definition: equal tells the first apart and not the second.
RENAMED = {name: ss.TypeDef(f"{name}Twin", HOLDERS.resolve(name).params)
           for name in ("Slot", "Capped", "Level", "Pick", "Group", "Table", "Cell", "Boxed",
                        "Crate", "Named")}
REDEFINED = {name: ss.TypeDef(name, type_def.params) for name, type_def in
             ((name, HOLDERS.resolve(name)) for name in RENAMED)}

# Values a primitive may be swapped for: equal to it under ``==`` but not
# structurally (-0.0 and 0.0, 1 and 1.0 and True), or plainly different.
TWINS = {0: [0.0, -0.0, False, 0], 1: [1.0, True, 1]}


def twin_value(value, rng: random.Random):
    if isinstance(value, (int, float)) and value in TWINS:
        return rng.choice(TWINS[value])
    if isinstance(value, bool) or value is None:
        return rng.choice([0, 1.0, None])
    if isinstance(value, (int, float)):
        return rng.choice([float(value), -value, int(value)])
    return rng.choice([value, value + "x"])


def twin_node(node, rng: random.Random):
    """A copy of `node` that differs from it at most at its own top: another
    leaf value, a renamed mapping key or object type, a dropped element, or
    other hints; with no room for a change, a plain copy."""
    fresh = node._copy()
    if isinstance(node, Primitive):
        fresh.value = twin_value(node.value, rng)
    elif isinstance(node, Mapping) and node._entries:
        old = rng.choice(list(node._entries))
        return Mapping({("k9" if key == old else key): child._copy()
                        for key, child in node._entries.items()})
    elif isinstance(node, ObjectNode) and node.type_def.type_name in RENAMED:
        fresh.type_def = rng.choice([RENAMED, REDEFINED])[node.type_def.type_name]
    elif isinstance(node, Sequence) and node._children:
        return Sequence([child._copy() for child in node._children[:-1]])
    elif isinstance(node, Categorical):
        fresh.hints = rng.choice([None, "a", "z"])
    return fresh


def replaced_at(node, segments, new):
    """`node` with the node at `segments` below it replaced by `new`, every
    node on the way copied with no check re-run."""
    if not segments:
        return new
    return node._copy({segments[0]: replaced_at(node.get_child(segments[0]), segments[1:], new)})


def twin(tree, rng: random.Random):
    """`tree` with one node swapped for its `twin_node`, or a plain copy when
    a categorical refuses the changed candidates."""
    path, node = rng.choice(list(ss.walk(tree)))
    try:
        return replaced_at(tree, path.segments, twin_node(node, rng))
    except SymsearchError:
        return tree._copy()


EDIT_VALUES = [0, 1, 1.0, True, -0.0, 7, "a", None, [1, 2], {"k0": 3}]


def rebound(tree, rng: random.Random):
    """`tree` after one random Set, Insert or Delete, or None when the edit
    is refused."""
    path, node = rng.choice(list(ss.walk(tree)))
    parent = parent_of(node)
    value = copy.deepcopy(rng.choice(EDIT_VALUES))
    if isinstance(parent, (Sequence, Mapping)) and rng.random() < 0.4:
        directive = ss.Insert(value) if isinstance(parent, Sequence) and rng.random() < 0.5 else ss.DELETE
    else:
        directive = ss.Set(value)
    try:
        return ss.rebind(tree, {path: directive})
    except SymsearchError:
        return None


def outcome(fn, *args):
    """("ok", result) or ("raise", exception type, message)."""
    try:
        return "ok", fn(*args)
    except (SymsearchError, ValueError, TypeError) as exc:
        return "raise", type(exc), str(exc)


def assert_same_tree(a, b):
    """`a` and `b` have the same kinds, type definitions, keys and leaf
    values, their Python types included, at every position."""
    assert head_serialize(a) == head_serialize(b)
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        assert type(x) is type(y)
        if isinstance(x, ObjectNode):
            assert x.type_def is y.type_def
        if isinstance(x, Primitive):
            assert type(x.value) is type(y.value)
        items_x, items_y = list(x.child_items()), list(y.child_items())
        assert [key for key, _ in items_x] == [key for key, _ in items_y]
        for (key, child), _ in zip(items_x, items_y):
            assert child._parent[0]() is x and child._parent[1] == key
        pairs.extend((p, q) for (_, p), (_, q) in zip(items_x, items_y))


# -- the comparisons ---------------------------------------------------------------

PATTERNS = ["", ".*", r".*\]", r"[^.\[]*", r"(.*\.)?(k0|value|choice|items)(\..*|\[.*)?",
            r".*candidates\[1\].*"]


def assert_queries_the_same(tree):
    for pattern in PATTERNS:
        found, expected = ss.query(tree, pattern), head_query(tree, pattern)
        assert list(found) == list(expected)
        assert all(found[path] is expected[path] for path in found)
    calls, head_calls = [], []
    found, expected = (run(tree, lambda path, node, parent, log=log:
                           log.append((path, node, parent)) or isinstance(node, Primitive))
                       for log, run in ((calls, ss.query), (head_calls, head_query)))
    assert list(found) == list(expected)
    assert all(found[path] is expected[path] for path in found)
    assert [path for path, _, _ in calls] == [path for path, _, _ in head_calls]
    assert all(node is head_node and parent is head_parent
               for (_, node, parent), (_, head_node, head_parent) in zip(calls, head_calls))


def assert_reads_back_the_same(doc, registry):
    got, expected = outcome(from_json_obj, doc, registry), outcome(head_from_json_obj, doc, registry)
    assert got[:1] == expected[:1]
    if got[0] == "ok":
        assert_same_tree(got[1], expected[1])
    else:
        assert got == expected


def malformed(doc, rng: random.Random):
    """`doc` with one part broken: an unknown or non-text ``_type``, an
    unknown field, a reserved key, a dropped key or a non-finite number."""
    doc = copy.deepcopy(doc)
    targets, parts = [], [(None, None, doc)]
    while parts:
        owner, key, part = parts.pop()
        if isinstance(part, dict):
            targets.append(part)
            parts.extend((part, k, v) for k, v in part.items())
        elif isinstance(part, list):
            parts.extend((part, i, v) for i, v in enumerate(part))
        elif isinstance(part, (int, float)) and not isinstance(part, bool) and owner is not None:
            targets.append((owner, key))
    if not targets:
        return rng.choice([math.nan, math.inf, [-math.inf]])
    target = rng.choice(targets)
    if isinstance(target, tuple):  # a number: make it non-finite
        owner, key = target
        owner[key] = rng.choice([math.nan, math.inf, -math.inf])
    else:
        change = rng.choice(["type", "field", "hyper", "drop", "badtype"])
        if change == "type":
            target["_type"] = rng.choice(["Nope", "Slot", "Cell"])
        elif change == "badtype":
            target["_type"] = rng.choice([3, None, ["Slot"]])
        elif change == "field":
            target[rng.choice(["zz", "k1", "value", "1a"])] = rng.choice([1, -1, 2.5, "n1"])
        elif change == "hyper":
            target["_hyper"] = rng.choice(["oneof", "manyof", "intv", "nope", 1])
        elif target:
            del target[rng.choice(list(target))]
    return doc


def assert_infers_the_same(space, program):
    got, expected = outcome(infer_dna, space, program), outcome(head_infer_dna, space, program)
    assert got[:1] == expected[:1]
    if got[0] == "ok":
        assert repr(got[1]) == repr(expected[1])
    else:
        assert got == expected
        assert got[1] is NonconformingDNA


def assert_walks_the_same(space, seed):
    rng = random.Random(seed)
    spec = abstract_search_space(space)
    children = [materialize(space, random_dna(spec, rng)) for _ in range(2)]
    edited = [tree for tree in (rebound(rng.choice(children), rng) for _ in range(4)) if tree is not None]
    trees = [space, *children, *edited]
    twins = [twin(tree, rng) for tree in trees for _ in range(2)]
    subtree = rng.choice(list(ss.walk(space)))[1]
    for tree in [*trees, subtree]:
        assert_queries_the_same(tree)
    for tree in [*trees, *twins]:
        assert ss.serialize(tree) == head_serialize(tree)
        doc = head_to_json_obj(tree)
        for registry in (HOLDERS, None):
            assert_reads_back_the_same(doc, registry)
        assert_reads_back_the_same(malformed(doc, rng), HOLDERS)
    pool = [*trees, *twins, subtree]
    for a in pool:
        for b in rng.sample(pool, min(len(pool), 6)) + [a._copy()]:
            assert ss.equal(a, b) is head_equal(a, b)
    for program in [*children, *edited, *twins, space]:
        assert_infers_the_same(space, program)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), typed=st.booleans())
def test_the_walks_give_what_the_walks_they_replaced_gave(seed, typed):
    space = SpaceGenerator(random.Random(seed), with_hints=True, with_types=typed).space()
    assert_walks_the_same(space, seed)


def test_the_walks_give_what_the_walks_they_replaced_gave_on_fixed_seeds():
    for seed in range(40):
        space = SpaceGenerator(random.Random(seed), with_hints=True, with_types=seed % 2 == 0).space()
        assert_walks_the_same(space, seed)


class Small(enum.IntEnum):
    ONE = 1


class Text(str):
    pass


class Items(list):
    pass


@pytest.mark.parametrize("a, b", [
    (0.0, -0.0), (-0.0, -0.0), (1, 1.0), (1, True), (1.0, True), (0, False), (0, None),
    ("a", "a"), ([1, [2.0]], [1, [2.0]]), ([1, [2.0]], [1, [2]]), ([1], [1, 1]),
    ({"a": 1}, {"b": 1}), ({"a": 1, "b": [0.0]}, {"b": [0.0], "a": 1}), ({"a": 1}, {"a": -0.0}),
    (oneof([1, 2]), oneof([1, 2])), (oneof([1, 2]), oneof([1, 2.0])), (intv(0, 3), intv(0, 3, "a")),
], ids=repr)
def test_equal_tells_kinds_and_values_apart_as_before(a, b):
    assert ss.equal(a, b) is head_equal(a, b)
    assert ss.equal(b, a) is head_equal(b, a)


@pytest.mark.parametrize("twin_def, same", [(RENAMED["Slot"], False), (REDEFINED["Slot"], True)])
def test_equal_compares_type_names_not_type_definitions(twin_def, same):
    node = HOLDERS.resolve("Slot")
    a = ObjectNode(node, {"value": 3})
    b = ObjectNode(twin_def, {"value": 3})
    assert ss.equal(a, b) is head_equal(a, b) is same
    assert ss.equal(ss.Sequence([a]), ss.Sequence([b])) is same


@pytest.mark.parametrize("doc", [
    math.nan, [1, math.inf], {"a": -math.inf}, {"_type": 3}, {"_type": "Nope"},
    {"_type": "Slot", "value": 1, "zz": 2}, {"_type": "Slot"}, {"_type": "Slot", "value": -1},
    {"_type": "Slot", "value": 1, "_hyper": "oneof"}, {"_hyper": "oneof", "candidates": [], "hints": None},
    {"_hyper": "bogus"}, {"1a": 1}, {"a": {"_type": "Cell", "pair": [1]}}, (1, 2), {1, 2}, b"x",
    Small.ONE, Text("a"), Items([1, Items([Text("b")])]), [True, None, 1, 1.5, "x", -0.0],
], ids=repr)
def test_from_json_obj_reads_and_refuses_as_before(doc):
    """Malformed documents raise the same error with the same text, and
    values of subclasses of JSON's types keep their Python type."""
    assert_reads_back_the_same(doc, HOLDERS)
    assert_reads_back_the_same(doc, None)


# -- depth -----------------------------------------------------------------------


def chain(depth: int):
    """`depth` sequences, each the one child of the one before, around a leaf."""
    node = ss.Sequence([0])
    for _ in range(depth - 1):
        node = ss.Sequence([node])
    return node


def test_query_walks_a_chain_of_any_depth_in_pre_order():
    root = chain(3001)
    expected = [""] + ["[0]" * depth for depth in range(1, 3002)]
    found = ss.query(root, lambda path, node, parent: True)
    assert list(found) == expected == list(head_query(root, ".*"))
    node = root
    for path in expected:
        assert found[path] is node
        node = node._children[0] if isinstance(node, Sequence) else None


def deepest(works, limit: int = 4000) -> int:
    """The deepest chain `works` takes without a RecursionError (bisected)."""
    low, high = 1, limit
    while low < high:
        depth = (low + high + 1) // 2
        try:
            works(chain(depth))
            low = depth
        except RecursionError:
            high = depth - 1
    return low


def test_serialize_and_equal_take_every_chain_that_clone_takes():
    depth = deepest(ss.clone)
    assert depth < 4000
    a, b = chain(depth), chain(depth)
    assert json.loads(ss.serialize(a)) == json.loads(ss.serialize(b))
    assert ss.equal(a, b)
    assert not ss.equal(a, chain(depth - 1))
