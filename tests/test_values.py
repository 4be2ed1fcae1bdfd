"""Tree model: equality, clone, get/query, rebind and recompute hooks."""

from __future__ import annotations

import copy
import gc
import pickle
import random
import re
import sys
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import symsearch as ss
from symsearch import schema, values
from symsearch.errors import (
    BindingConflict,
    ConstraintViolation,
    IllegalDirective,
    InvalidPattern,
    MissingRequiredField,
    PathNotFound,
    ReservedKey,
    SymsearchError,
)
from symsearch.paths import KeyPath, as_path
from symsearch.values import Delete, Insert, Mapping, Primitive, Sequence, Set, _Edit, get


# -- construction and equality ------------------------------------------------

def test_coercion_of_plain_values():
    node = ss.to_symbolic({"a": [1, 2.5, "x", True, None]})
    assert isinstance(node, Mapping)
    assert node["a"][0].value == 1
    assert node.to_plain() == {"a": [1, 2.5, "x", True, None]}


def test_equality_is_structural(types):
    assert ss.equal(types.Dense(10), types.Dense(units=10))
    assert not ss.equal(types.Conv(8, (3, 3)), types.Conv(16, (3, 3)))
    assert ss.equal([1, [2, 3]], (1, (2, 3)))
    assert not ss.equal(1, 1.0)  # int and float are different types
    assert not ss.equal(True, 1)
    assert not ss.equal({"a": 1}, {"a": 1, "b": 2})


def test_equality_is_equivalence_relation(types):
    values = [types.Dense(10), types.Dense(10), types.Conv(8, (3, 3))]
    for a in values:
        assert ss.equal(a, a)
        for b in values:
            assert ss.equal(a, b) == ss.equal(b, a)
            for c in values:
                if ss.equal(a, b) and ss.equal(b, c):
                    assert ss.equal(a, c)


def test_clone_identity_and_isolation(types):
    x = types.Sequential(children=[types.Conv(8, (3, 3)), types.Dense(10)])
    y = ss.clone(x)
    assert ss.equal(x, y)
    assert ss.clone(ss.to_symbolic(7)) == 7
    rebound = ss.rebind(y, {"children[1].units": 99})
    assert ss.get(x, "children[1].units") == 10
    assert ss.get(rebound, "children[1].units") == 99


def test_attach_clones_shared_nodes(types):
    layer = types.Dense(10)
    model = types.Sequential(children=[layer, layer])
    first, second = model["children"][0], model["children"][1]
    assert first is not second
    assert ss.equal(first, second)


def test_mapping_keys_validated():
    with pytest.raises(ReservedKey):
        Mapping({"_type": 1})
    with pytest.raises(ReservedKey):
        Mapping({"_hyper": 1})
    with pytest.raises(ValueError):
        Mapping({"not an identifier": 1})


# -- get / parent / path ------------------------------------------------------

def test_get_and_paths(trainer):
    assert ss.get(trainer, "model.children[0].filters") == 8
    assert ss.get(trainer, "") is trainer
    with pytest.raises(PathNotFound):
        ss.get(trainer, "nope")
    node = ss.get(trainer, "model.children[0]")
    assert ss.path_of(node).render() == "model.children[0]"
    assert ss.parent_of(node) is ss.get(trainer, "model.children")
    assert ss.parent_of(trainer) is None


def test_has(trainer):
    assert ss.has(trainer, "model.children[1]")
    assert not ss.has(trainer, "model.children[5]")


# -- query ---------------------------------------------------------------------

def test_query_with_anchored_pattern(trainer):
    found = ss.query(trainer, ".*filters")
    assert list(found) == ["model.children[0].filters"]
    assert found["model.children[0].filters"] == 8


def test_query_with_predicate(trainer, types):
    found = ss.query(trainer, lambda path, value, parent: types.Dense.is_instance(value))
    assert list(found) == ["model.children[1]"]
    assert ss.equal(found["model.children[1]"], types.Dense(units=10))


def test_query_never_matching_is_empty(trainer):
    assert ss.query(trainer, "a^") == {}


def test_query_all_visits_every_node_once(trainer):
    found = ss.query(trainer, ".*")
    assert "" in found  # the root
    paths = list(found)
    assert len(paths) == len(set(paths))
    for path, node in found.items():
        assert ss.path_of(node).render() == path


def test_query_bad_pattern(trainer):
    with pytest.raises(InvalidPattern):
        ss.query(trainer, "(")


# -- rebind: mapping form -------------------------------------------------------

def test_rebind_set_and_insert(trainer, types):
    rebound = ss.rebind(trainer, {
        "model.children[0].filters": 16,
        "model.children[1]": ss.Insert(types.Dense(20)),
    })
    expected = types.Sequential(children=[
        types.Conv(16, (3, 3)), types.Dense(20), types.Dense(10)])
    assert ss.equal(rebound["model"], expected)
    # the original tree is untouched
    assert ss.get(trainer, "model.children[0].filters") == 8
    assert len(ss.get(trainer, "model.children")) == 2


def test_rebind_empty_is_noop(trainer):
    assert ss.equal(ss.rebind(trainer, {}), trainer)


def test_rebind_validates_paths_eagerly(trainer):
    with pytest.raises(PathNotFound):
        ss.rebind(trainer, {"model.children[7]": 1})


def test_rebind_list_edits_use_original_indices():
    x = ss.to_symbolic([10, 11, 12, 13])
    edited = ss.rebind(x, {
        "[1]": ss.Insert(99),
        "[2]": 22,
        "[3]": ss.DELETE,
    })
    assert edited == [10, 99, 11, 22]


def test_rebind_replaced_elements_keep_their_parent_links():
    x = ss.to_symbolic([10, [11, 12], 13])
    for edited in (ss.rebind(x, {"[1][0]": 21, "[2]": 23}),
                   ss.rebind(x, lambda path, v, parent: 23 if v == 13 else v)):
        for path, node in ss.walk(edited):
            assert ss.get(edited, path) is node
            assert path.is_root or ss.path_of(node) == path


def test_rebind_delete_mapping_key():
    x = ss.to_symbolic({"a": 1, "b": 2})
    assert ss.rebind(x, {"b": ss.DELETE}) == {"a": 1}


def test_rebind_illegal_directives(trainer):
    with pytest.raises(IllegalDirective):
        ss.rebind(trainer, {"model.filters": ss.Insert(1)})  # not a sequence parent
    with pytest.raises(IllegalDirective):
        ss.rebind(trainer, {"model.children[9]": ss.Insert(1)})  # index > len
    with pytest.raises(IllegalDirective):
        ss.rebind(trainer, {"": ss.DELETE})


@pytest.mark.parametrize("edits, error, message", [
    ({"model.nope": 1}, PathNotFound, "no node at 'model.nope'"),
    ({"model.children[0].filters": ss.Insert(1)}, IllegalDirective,
     "insert requires a sequence parent at 'model.children[0]'"),
    ({"model.children[9]": ss.Insert(1)}, IllegalDirective, "insert index 9 out of range 0..2"),
    ({"": ss.DELETE}, IllegalDirective, "insert/delete cannot target the root"),
    ({"model.children[7]": ss.DELETE}, IllegalDirective,
     "delete index out of range at 'model.children[7]'"),
    ({"model.children[0].filters": ss.DELETE}, IllegalDirective,
     "delete requires a sequence or mapping parent at 'model.children[0]'"),
    ({"model.children[2]": ss.Insert(1), "model.children[2].units": 3}, PathNotFound,
     "no node at 'model.children[2]'"),
], ids=["set-missing", "insert-under-object", "insert-past-end", "delete-root",
        "delete-out-of-range", "delete-under-object", "below-insert-after-last"])
def test_rebind_directive_refusal_texts(trainer, edits, error, message):
    with pytest.raises(error) as caught:
        ss.rebind(trainer, edits)
    assert type(caught.value) is error and str(caught.value) == message


def test_rebind_revalidates_changed_fields(trainer):
    with pytest.raises(ConstraintViolation) as excinfo:
        ss.rebind(trainer, {"model.children[0].filters": 0})
    # The one error raised names the field; no path-less copy is chained.
    assert excinfo.value.path == "model.children[0].filters"
    assert excinfo.value.__context__ is None
    # failed rebind leaves the input intact
    assert ss.get(trainer, "model.children[0].filters") == 8


def test_rebind_set_then_get_leaves_siblings(trainer):
    before = ss.clone(trainer)
    rebound = ss.rebind(trainer, {"model.children[0].filters": 16})
    assert ss.get(rebound, "model.children[0].filters") == 16
    assert ss.equal(rebound["model"]["children"][1], before["model"]["children"][1])
    assert ss.equal(rebound["augment_policy"], before["augment_policy"])


# -- rebind: one descent resolves and checks each path -------------------------

# The rules as they stood when `rebind` walked every edit path from the root
# with `get` before a second descent built the plan: `_reference_validate_directive`
# is that check word for word, and `_reference_plan` that plan.  Patched in
# for `values._plan`, they give what the two-walk rebind raised or returned.

def _reference_validate_directive(x, path, directive):
    if isinstance(directive, Set):
        get(x, path)  # raises PathNotFound when unresolvable
        return
    if path.is_root:
        raise IllegalDirective("insert/delete cannot target the root")
    parent = get(x, path.parent)
    key = path.last
    if isinstance(directive, Insert):
        if not isinstance(parent, Sequence) or type(key) is not int:
            raise IllegalDirective(f"insert requires a sequence parent at {path.parent.render()!r}")
        if not 0 <= key <= len(parent):
            raise IllegalDirective(f"insert index {key} out of range 0..{len(parent)}")
        return
    # Delete
    if isinstance(parent, Sequence):
        if type(key) is not int or not 0 <= key < len(parent):
            raise IllegalDirective(f"delete index out of range at {path.render()!r}")
    elif isinstance(parent, Mapping):
        get(x, path)
    else:
        raise IllegalDirective(f"delete requires a sequence or mapping parent at {path.parent.render()!r}")


def _reference_plan(x, edits):
    plan = [(as_path(path), d if isinstance(d, (Set, Insert, Delete)) else Set(d))
            for path, d in edits.items()]
    for path, directive in plan:
        _reference_validate_directive(x, path, directive)
    top = _Edit(x)
    for index, (path, directive) in enumerate(plan):
        edit = top
        for key in path.segments:
            sub = edit.below.get(key)
            if sub is None:
                try:
                    child = edit.node.get_child(key)
                except PathNotFound:
                    child = None  # an Insert after the last element
                sub = edit.below[key] = _Edit(child)
            edit = sub
        if isinstance(directive, Set):
            edit.order = (2, -len(path.segments), index)
        else:
            edit.order = (0 if isinstance(directive, Insert) else 1, 0, index)
        edit.directive = directive
    return top


Box = ss.TypeDef("RebindBox", [ss.Param("item", schema.Any()), ss.Param("size", schema.Int(min=0))])

# Keys that miss, keys of the wrong kind for a mapping or a sequence, and
# keys that some nodes have.
EDIT_KEYS = ("a", "b", "zz", "item", "size", "candidates", 0, 1, 2, 3)


def random_tree(rng, depth=0):
    """A small tree, whose root is never a primitive."""
    roll = rng.random()
    if depth == 3 or (depth and roll < 0.3):
        return rng.choice([0, 1, "t", None])
    if roll < 0.55:
        return [random_tree(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    if roll < 0.75:
        return {key: random_tree(rng, depth + 1) for key in rng.sample("abc", rng.randint(0, 3))}
    if roll < 0.9:
        return Box(item=random_tree(rng, depth + 1), size=rng.randint(0, 2))
    return ss.oneof([rng.randint(0, 9), [rng.randint(10, 19), rng.randint(20, 29)]])


def random_directive(rng, node):
    roll = rng.random()
    value = rng.choice([-1, node.clone()]) if roll < 0.15 else random_tree(rng, 2)
    if roll < 0.3:
        return value  # a bare value is a Set
    return ss.DELETE if roll < 0.6 else ss.Insert(value) if roll < 0.8 else ss.Set(value)


def random_edits(rng, tree) -> dict:
    """One to four edits at paths that exist, miss, cross a primitive, name
    the root, or sit at or below an Insert after a sequence's last element."""
    nodes = list(ss.walk(tree))
    edits = {}
    for _ in range(rng.randint(1, 4)):
        path, node = rng.choice(nodes)
        roll = rng.random()
        if roll < 0.35:
            path = path.child(rng.choice(EDIT_KEYS))
            if rng.random() < 0.3:
                path = path.child(rng.choice(EDIT_KEYS))
        elif roll < 0.5 and isinstance(node, Sequence):
            path = path.child(len(node) + rng.choice([0, 0, 1]))
            edits[path] = ss.Insert(random_tree(rng, 2))
            path = path.child(rng.choice(EDIT_KEYS))
        elif roll < 0.55:
            path = KeyPath()
        edits[path.render() if rng.random() < 0.5 else path] = random_directive(rng, node)
    return edits


def rebind_outcome(tree, edits):
    try:
        return "returned", ss.serialize(ss.rebind(tree, edits))
    except SymsearchError as exc:
        return type(exc), str(exc)


def reference_outcome(tree, edits):
    with mock.patch.object(values, "_plan", _reference_plan):
        return rebind_outcome(tree, edits)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rebind_refuses_and_returns_as_the_two_walk_check_did(seed):
    """`rebind`'s one descent per path raises the error class and message the
    separate `get` walks raised, for the first refused edit in mapping
    order, or returns the tree they let through."""
    rng = random.Random(seed)
    tree = ss.to_symbolic(random_tree(rng))
    edits = random_edits(rng, tree)
    assert rebind_outcome(tree, edits) == reference_outcome(tree, edits)


def test_rebind_matches_the_two_walk_check_on_fixed_seeds_that_reach_every_refusal():
    """The property above over a fixed run of seeds, which between them meet
    every rule: each refusal text of the reference (quoted paths and numbers
    blanked), a refused field, and trees returned."""
    texts = set()
    for seed in range(1000):
        rng = random.Random(seed)
        tree = ss.to_symbolic(random_tree(rng))
        edits = random_edits(rng, tree)
        kind, text = outcome = reference_outcome(tree, edits)
        assert rebind_outcome(tree, edits) == outcome, seed
        texts.add("returned" if kind == "returned" else re.sub(r"'[^']*'|\d+", "#", text))
    assert texts >= {
        "returned", "no node at #", "insert/delete cannot target the root",
        "insert requires a sequence parent at #", "insert index # out of range #..#",
        "delete index out of range at #", "delete requires a sequence or mapping parent at #",
        "value at # violates Int(min=#, max=None) (out of range [#, None]): -#"}


@pytest.mark.parametrize("edits, walked", [
    ({"optimizer.learning_rate": 0.02, "model.children[5]": ss.Set(None)}, 5),
    ({"model.children[8]": ss.Insert(None)}, 2),
    ({"model.children[2]": ss.DELETE}, 3),
    ({"model.children[1].units": 5, "model.children[2].units": 6, "model.children[1]": ss.Insert(None)}, 6),
], ids=["two-sets", "insert-after-last", "delete", "shared-prefix"])
def test_a_mapping_rebind_calls_get_child_once_per_trie_edge(types, monkeypatch, edits, walked):
    """Each edge of the edit trie is resolved once, by the descent that
    places it; no separate walk from the root checks a path first, and an
    Insert after the last element resolves no node."""
    layers = [types.Dense(units=units) for units in range(1, 9)]
    tree = ss.Mapping({"model": types.Sequential(children=layers),
                       "optimizer": types.Adam(learning_rate=0.01)})
    keys = []
    for cls in (values.SymbolicValue, Sequence, Mapping, values.ObjectNode):
        def counted(self, key, resolve=cls.__dict__["get_child"]):
            keys.append(key)
            return resolve(self, key)
        monkeypatch.setattr(cls, "get_child", counted)
    ss.rebind(tree, edits)
    assert len(keys) == walked


def test_an_insert_after_the_last_element_asks_get_child_nothing_that_raises(types, monkeypatch):
    """An Insert whose index is the sequence's length needs no node there,
    so no `get_child` call builds a PathNotFound; the rebind still inserts."""
    layers = [types.Dense(units=units) for units in range(1, 9)]
    tree = ss.Mapping({"model": types.Sequential(children=layers), "tail": ss.Sequence([1, 2])})
    raised = []
    for cls in (values.SymbolicValue, Sequence, Mapping, values.ObjectNode):
        def watched(self, key, resolve=cls.__dict__["get_child"]):
            try:
                return resolve(self, key)
            except PathNotFound:
                raised.append(key)
                raise
        monkeypatch.setattr(cls, "get_child", watched)
    rebound = ss.rebind(tree, {"model.children[8]": ss.Insert(types.Identity()),
                               "tail[2]": ss.Insert(3), "tail[0]": ss.Insert(0)})
    assert raised == []
    assert len(rebound["model"]["children"]) == 9 and list(rebound["tail"]) == [0, 1, 2, 3]


# -- rebind: transform form ------------------------------------------------------

def test_rebind_transform_conv_to_dense(trainer, types):
    rebound = ss.rebind(trainer, {
        "model.children[0].filters": 16,
        "model.children[1]": ss.Insert(types.Dense(20)),
    })
    swapped = ss.rebind(rebound, lambda path, value, parent: (
        types.Dense(value.filters) if types.Conv.is_instance(value) else value))
    assert ss.equal(swapped["model"],
                    types.Sequential(children=[types.Dense(16), types.Dense(20), types.Dense(10)]))


def test_rebind_identity_transform(trainer):
    """An edit that changes nothing still returns a fresh root."""
    nodes = lambda tree: {id(node) for _, node in ss.walk(tree)}
    for edits in (lambda path, value, parent: value, lambda path, value, parent: None, {}):
        result = ss.rebind(trainer, edits)
        assert ss.equal(result, trainer) and ss.parent_of(result) is None
        assert not nodes(result) & nodes(trainer)
    inner = ss.rebind(trainer["model"], lambda path, value, parent: value)
    assert inner is not trainer["model"] and ss.parent_of(inner) is None


def test_transform_is_post_order_and_skips_replacements(types):
    seen = []

    def spy(path, value, parent):
        seen.append(path)
        return value

    ss.rebind(types.Dense(10), spy)
    assert seen == ["units", ""]  # children before parents

    # replacement subtrees are not re-visited
    calls = []

    def grow(path, value, parent):
        calls.append(path)
        if path == "units":
            return 99
        return value

    result = ss.rebind(types.Dense(10), grow)
    assert result == types.Dense(99)
    assert calls.count("units") == 1


def hyper_space():
    return ss.to_symbolic({"a": ss.oneof([1, 2, 3]), "b": [ss.intv(1, 4), 5]})


def test_transform_rebuilds_every_kind_with_children():
    space = hyper_space()
    before = ss.serialize(space)
    seen = []

    def bump(path, value, parent):
        seen.append(path)
        if isinstance(value, Primitive) and type(value.value) is int:
            return value.value + 10
        return value

    result = ss.rebind(space, bump)
    assert ss.serialize(result) == (
        '{"a":{"_hyper":"oneof","candidates":[11,12,13],"hints":null},'
        '"b":[{"_hyper":"intv","min":1,"max":4,"hints":null},15]}')
    assert seen == ["a.candidates[0]", "a.candidates[1]", "a.candidates[2]",
                    "a.candidates", "a", "b[0]", "b[1]", "b", ""]
    assert ss.serialize(space) == before
    for path, node in ss.walk(result):
        assert ss.get(result, path) is node


def test_transform_applies_empty_containers():
    space = ss.to_symbolic({"a": [1], "b": {"c": 2}, "c": ss.oneof([[1], 2])})
    empty = {"a": [], "b": {}, "c.candidates[0]": []}
    result = ss.rebind(space, lambda path, value, parent: empty.get(path, value))
    assert ss.serialize(result) == (
        '{"a":[],"b":{},"c":{"_hyper":"oneof","candidates":[[],2],"hints":null}}')


def test_transform_copies_a_returned_node_that_has_a_parent():
    space = hyper_space()
    before = ss.serialize(space)
    result = ss.rebind(space, lambda path, value, parent: space["b"] if path == "a" else value)
    assert result["a"] is not space["b"]
    assert ss.equal(result["a"], space["b"])
    assert ss.path_of(result["a"]).render() == "a"
    assert ss.serialize(space) == before


def test_query_paths_reach_categorical_candidates():
    found = ss.query(hyper_space(), ".*")
    assert list(found) == ["", "a", "a.candidates", "a.candidates[0]", "a.candidates[1]",
                           "a.candidates[2]", "b", "b[0]", "b[1]"]
    assert found["a.candidates[0]"] == 1


# -- recompute hooks --------------------------------------------------------------

def make_counting_types():
    reg = ss.TypeRegistry()
    counts = {"Block": 0, "Net": 0}
    Block = reg.register(ss.TypeDef(
        "Block", [ss.Param("width", schema.Int(min=0))],
        recompute_hook=lambda node: counts.__setitem__("Block", counts["Block"] + 1)))
    Net = reg.register(ss.TypeDef(
        "Net", [ss.Param("blocks", schema.ListOf(schema.ObjectOf("Block")))],
        recompute_hook=lambda node: counts.__setitem__("Net", counts["Net"] + 1)))
    return Block, Net, counts


def test_hooks_fire_once_per_rebind():
    Block, Net, counts = make_counting_types()
    net = Net(blocks=[Block(width=1), Block(width=2)])
    ss.rebind(net, {"blocks[0].width": 5, "blocks[1].width": 6})
    assert counts == {"Block": 2, "Net": 1}  # common ancestor recomputes once


def test_identity_rebind_fires_no_hooks():
    Block, Net, counts = make_counting_types()
    net = Net(blocks=[Block(width=1)])
    ss.rebind(net, lambda path, value, parent: value)
    ss.rebind(net, {})
    ss.rebind(net, {"blocks[0].width": 1})  # set to an equal value
    assert counts == {"Block": 0, "Net": 0}


def test_superseded_edits_fire_no_hooks():
    """Edits below a path that a Set or Delete of the same plan replaces
    are dropped: they change, check and fire nothing."""
    Block, Net, counts = make_counting_types()
    net = Net(blocks=[Block(width=1), Block(width=2)])
    result = ss.rebind(net, {"blocks[0].width": 5, "blocks[0]": Block(width=9)})
    assert result == Net(blocks=[Block(width=9), Block(width=2)])
    assert counts == {"Block": 0, "Net": 1}
    result = ss.rebind(net, {"blocks[0].width": -1, "blocks[0]": Block(width=9)})
    assert result == Net(blocks=[Block(width=9), Block(width=2)])
    assert counts == {"Block": 0, "Net": 2}
    result = ss.rebind(net, {"blocks[0]": ss.DELETE, "blocks[0].width": -1})
    assert result == Net(blocks=[Block(width=2)])
    assert counts == {"Block": 0, "Net": 3}


def make_hooked_blocks(n: int):
    """N(bs=[B(w=0), ..., B(w=n-1)]) with B.w >= 0, and the list of
    (rendered path, w) that B's recompute hook is called with."""
    reg = ss.TypeRegistry()
    fired = []
    B = reg.register(ss.TypeDef(
        "B", [ss.Param("w", schema.Int(min=0))],
        recompute_hook=lambda node: fired.append((ss.path_of(node).render(), node["w"].value))))
    N = reg.register(ss.TypeDef("N", [ss.Param("bs", schema.ListOf(schema.ObjectOf("B")))]))
    return B, N(bs=[B(w=w) for w in range(n)]), fired


@pytest.mark.parametrize("edits", [
    {"bs[0]": "insert", "bs[1].w": -1},
    {"bs[0]": ss.DELETE, "bs[2].w": -1},
    {"bs[1]": ss.DELETE, "bs[2].w": -1, "bs[0].w": 4},
    {"bs[1]": "insert", "bs[1].w": -1},
])
def test_a_set_beside_list_directives_is_checked_where_it_lands(edits):
    B, n, _ = make_hooked_blocks(3)
    edits = {path: ss.Insert(B(w=50)) if d == "insert" else d for path, d in edits.items()}
    with pytest.raises(ConstraintViolation):
        ss.rebind(n, edits)


def make_ordered_fields():
    """O(a=0, b=0, bs=[B(w=0), B(w=1)], cs=[0], m={"k": 0}), every int held
    to >= 0 and `bs` to at least two Bs."""
    reg = ss.TypeRegistry()
    B = reg.register(ss.TypeDef("B", [ss.Param("w", schema.Int(min=0))]))
    O = reg.register(ss.TypeDef("O", [
        ss.Param("a", schema.Int(min=0)), ss.Param("b", schema.Int(min=0)),
        ss.Param("bs", schema.ListOf(schema.ObjectOf("B"), min_len=2)),
        ss.Param("cs", schema.ListOf(schema.Int(min=0))),
        ss.Param("m", schema.MapOf(schema.Int(min=0)))]))
    return O(a=0, b=0, bs=[B(w=0), B(w=1)], cs=[0], m={"k": 0})


@pytest.mark.parametrize("edits, reported", [
    ({"b": -1, "a": -1}, "b"),
    ({"a": -1, "b": -1}, "a"),
    ({"a": -1, "bs[1].w": -1}, "bs[1].w"),
    ({"m.k": -1, "bs[1].w": -1, "a": -1}, "bs[1].w"),
    ({"a": -1, "bs[1].w": -1, "bs[0]": ss.DELETE}, "bs"),
    ({"bs[0]": ss.DELETE, "a": -1, "cs[0]": ss.Insert(-1)}, "cs[0]"),
])
def test_a_mapping_reports_inserts_then_deletes_then_sets_deepest_first(edits, reported):
    """When several edited fields fail, the one reported is the field of the
    first edit in the order Inserts, Deletes, then Sets deepest first, each
    in mapping order."""
    with pytest.raises(ConstraintViolation) as excinfo:
        ss.rebind(make_ordered_fields(), edits)
    assert excinfo.value.path == reported


@pytest.mark.parametrize("changed, reported", [
    ({"b": -1, "a": -1}, "a"),
    ({"bs[1].w": -1, "a": -1}, "a"),
    ({"m.k": -1, "bs[1].w": -1}, "bs[1].w"),
    ({"m.k": -1, "cs[0]": -1, "b": -1}, "b"),
    # the change to bs drops the one below it, made earlier
    ({"bs[0].w": -1, "bs": [5, 6], "m.k": -1}, "bs[0]"),
])
def test_a_transform_reports_the_field_of_its_first_change_in_post_order(changed, reported):
    edit = lambda path, value, parent: changed.get(path, value)
    with pytest.raises(ConstraintViolation) as excinfo:
        ss.rebind(make_ordered_fields(), edit)
    assert excinfo.value.path == reported


def test_a_transform_that_restores_a_node_of_the_input_changes_nothing_there():
    """Returning the input's own node where the transform changed what lies
    below restores that place, so it holds no change: the field reported is
    the one of the first change that remains."""
    _, n, _ = make_hooked_blocks(3)
    changed = {"bs[0].w": 5, "bs[0]": n["bs"][0], "bs[1].w": -1, "bs[2]": -1}
    with pytest.raises(ConstraintViolation) as excinfo:
        ss.rebind(n, lambda path, value, parent: changed.get(path, value))
    assert excinfo.value.path == "bs[1].w"


def test_hooks_fire_on_the_edited_elements_beside_an_insert():
    B, n, fired = make_hooked_blocks(11)
    result = ss.rebind(n, {"bs[0]": ss.Insert(B(w=50)), "bs[9].w": 7, "bs[2].w": 8})
    assert [node["w"].value for node in result["bs"]] == [50, 0, 1, 8, 3, 4, 5, 6, 7, 8, 7, 10]
    assert fired == [("bs[10]", 7), ("bs[3]", 8)]  # deepest first, then by path text


def test_a_root_set_attaches_a_clone():
    x = ss.to_symbolic({"a": [1, 2], "b": 3})
    value = ss.to_symbolic({"c": 4})
    for edits in ({"": value}, {"": value, "a[0]": ss.DELETE}):
        result = ss.rebind(x, edits)
        assert result == value and result is not value
        assert ss.parent_of(value) is None


def test_hook_sees_post_edit_subtree():
    seen = {}
    reg = ss.TypeRegistry()
    Box = reg.register(ss.TypeDef(
        "Box", [ss.Param("value", schema.Int())],
        recompute_hook=lambda node: seen.setdefault("value", node["value"].value)))
    box = Box(value=1)
    ss.rebind(box, {"value": 42})
    assert seen["value"] == 42


# -- validation soundness fuzz ------------------------------------------------------

def test_random_edits_error_or_stay_valid(types):
    rng = random.Random(0)
    base = types.Sequential(children=[types.Conv(8, (3, 3)), types.Dense(10)])
    paths = [p for p in ss.query(base, ".*") if p]
    for _ in range(300):
        path = rng.choice(paths)
        value = rng.choice([0, 1, 7, -3, "x", [1, 2], {"a": 1}, True, None])
        try:
            edited = ss.rebind(base, {path: value})
        except (ConstraintViolation, MissingRequiredField):
            continue
        ss.validate_tree(edited)


# -- functor binding ------------------------------------------------------------------

def test_functor_partial_binding_and_call(types, trainer):
    schedule = types.CosineDecay(1e-5, 5000)
    with pytest.raises(MissingRequiredField):
        trainer()  # learning_schedule still unbound
    bound = trainer.bind(learning_schedule=schedule)
    assert bound() == 0.9
    # call-time binding works on the original without mutating it
    assert trainer(learning_schedule=schedule) == 0.9
    assert not trainer.is_bound("learning_schedule")


def test_functor_call_override(types, trainer):
    schedule = types.CosineDecay(1e-5, 5000)
    bound = trainer.bind(learning_schedule=schedule)
    with pytest.raises(BindingConflict):
        bound(learning_schedule=types.CosineDecay(2e-4, 5000))
    assert bound(learning_schedule=types.CosineDecay(2e-4, 5000), override_args=True) == 0.9


def test_functor_bind_conflicts(types, trainer):
    with pytest.raises(BindingConflict):
        trainer.bind(augment_policy=types.random_augment(magnitude=3))
    with pytest.raises(ConstraintViolation) as caught:
        types.random_augment().bind(magnitude=-1)
    assert caught.value.path == "magnitude"


def test_functor_impl_gets_plain_views(types):
    assert types.random_augment(magnitude=8)() == ("augmented", 8)


def test_non_functor_not_callable(types):
    with pytest.raises(TypeError):
        types.Dense(10)()


# -- ownership: weak parent links, freeing and pickling ----------------------------

def typed_space(types):
    return ss.Mapping({
        "model": types.Sequential(children=[ss.oneof([
            types.Conv(filters=ss.oneof([8, 16, 32]), kernel_size=ss.intv(1, 7)),
            types.Dense(units=ss.intv(8, 64)), types.Identity()], hints="op") for _ in range(4)]),
        "optimizer": types.Adam(learning_rate=ss.floatv(1e-4, 1e-2)),
    })


def test_a_search_over_a_typed_space_leaves_no_cyclic_garbage(types):
    """A joint and a factorized search, a clone and a deserialize leave the
    cyclic collector nothing to free: every tree they drop was freed at once."""
    space = typed_space(types)
    reward = lambda child, dna: float(len(ss.query(child, ".*")))
    gc.collect()
    gc.disable()
    try:
        ss.run_joint(space, ss.RegularizedEvolution(16, 4, seed=0), reward, 40, seed=0)
        ss.run_factorized(space, lambda point: point.hints == "op",
                          ss.SearchLoop(lambda s: ss.RegularizedEvolution(3, 2, seed=s), 4, seed=0),
                          ss.SearchLoop(lambda s: ss.RegularizedEvolution(5, 2, seed=s), 20, seed=0),
                          reward)
        ss.clone(space)
        ss.deserialize(ss.serialize(space), types.registry)
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_a_subtree_held_after_its_root_is_gone_is_a_root(types):
    """The root owns its tree: once it is gone, a held subtree has no parent
    and its paths start at itself.  It was attached once, so attaching it
    again attaches a clone, while a node never attached is attached itself."""
    space = typed_space(types)
    child = ss.materialize(space, ss.random_dna(ss.abstract_search_space(space), random.Random(0)))
    model = child["model"]
    assert ss.parent_of(model) is child and ss.path_of(model) == KeyPath(("model",))
    del child
    assert ss.parent_of(model) is None and ss.path_of(model) == KeyPath()
    layer = model["children"][3]
    assert ss.parent_of(ss.parent_of(layer)) is model
    assert ss.path_of(layer).render() == "children[3]"
    held = ss.Sequence([model])
    assert held[0] is not model and held[0] == model and ss.parent_of(model) is None
    fresh = ss.clone(model)
    outer = ss.Sequence([fresh])
    assert outer[0] is fresh and ss.parent_of(fresh) is outer


def test_only_a_kind_that_can_be_a_parent_is_a_weak_reference_target():
    """Children link to their parent weakly, so a container carries the
    ``__weakref__`` slot; a leaf, which is never a parent, is 8 bytes smaller."""
    F = ss.TypeDef("WeakF", [ss.Param("x", schema.Int())])
    nodes = [ss.to_symbolic([1]), ss.to_symbolic({"a": 1}), F(x=1), ss.oneof([1, 2]),
             ss.manyof(2, [1, 2, 3]), ss.to_symbolic(1), ss.intv(0, 3), ss.floatv(0.0, 1.0)]
    assert [hasattr(node, "__weakref__") for node in nodes] == [True] * 5 + [False] * 3
    assert all(weakref.ref(node)() is node for node in nodes[:5])
    for leaf in nodes[5:]:
        with pytest.raises(TypeError):
            weakref.ref(leaf)
    # Both kinds hold their link and one slot of their own; only the list adds the slot.
    assert sys.getsizeof(nodes[0]) - sys.getsizeof(nodes[5]) == 8


@pytest.mark.parametrize("path", ["model", "model.children[0]", "optimizer", "model.children[1].candidates"])
@pytest.mark.parametrize("copier", [lambda node: pickle.loads(pickle.dumps(node)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_a_node_pickled_from_inside_a_tree_comes_back_as_a_root(types, path, copier):
    """A pickled node carries its own subtree and no ancestors: the copy is a
    root equal to the node, and every node below it links to its parent.  So
    does a copy from the `copy` module, and the original keeps its children."""
    for tree in (typed_space(types), ss.materialize(typed_space(types), ss.random_dna(
            ss.abstract_search_space(typed_space(types)), random.Random(1)))):
        if not ss.has(tree, path):
            continue
        node = ss.get(tree, path)
        made = copier(node)
        assert made == node and ss.parent_of(made) is None and ss.path_of(made) == KeyPath()
        for below, descendant in ss.walk(made):
            assert ss.get(made, below) is descendant and ss.path_of(descendant) == below
            if not below.is_root:
                assert ss.parent_of(descendant) is ss.get(made, below.parent)
        assert all(ss.parent_of(child) is node for _, child in node.child_items())
