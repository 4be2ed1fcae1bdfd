"""Type registration, construction validation and spec acceptance rules."""

from __future__ import annotations

import json

import pytest

import symsearch as ss
from symsearch import schema
from symsearch.errors import (
    ConstraintViolation,
    DuplicateTypeName,
    InvalidSpec,
    MalformedDocument,
    MissingRequiredField,
    UnknownField,
    UnknownType,
)
from symsearch.hyper import floatv, intv, manyof, oneof
from symsearch.values import ObjectNode


def test_register_and_construct(types):
    conv = types.Conv(filters=8, kernel_size=(3, 3))
    assert conv.type_name == "Conv"
    assert list(name for name, _ in conv.child_items()) == ["filters", "kernel_size"]


def test_duplicate_type_name(types):
    with pytest.raises(DuplicateTypeName):
        types.registry.register(ss.TypeDef("Conv", []))


def test_unknown_type(types):
    with pytest.raises(UnknownType):
        types.registry.resolve("Nope")


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        schema.Int(min=5, max=1)
    with pytest.raises(InvalidSpec):
        schema.Enum([])
    with pytest.raises(InvalidSpec):
        schema.ListOf(schema.Int(), min_len=3, max_len=1)
    with pytest.raises(InvalidSpec):
        ss.TypeDef("Dup", [ss.Param("a", schema.Int()), ss.Param("a", schema.Int())])


def test_range_floor_violation(types):
    with pytest.raises(ConstraintViolation):
        types.Conv(filters=0, kernel_size=(3, 3))


def test_float_min_violation(types):
    with pytest.raises(ConstraintViolation):
        types.CosineDecay(learning_rate=-1, steps=100)
    with pytest.raises(ConstraintViolation):  # before the later missing field
        types.CosineDecay(learning_rate=-1)


def test_missing_required_field(types):
    with pytest.raises(MissingRequiredField):
        types.Dense()


def test_defaults_fill(types):
    assert types.Adam()["learning_rate"] == 1e-3


def test_positional_binding(types):
    assert ss.equal(types.Conv(8, (3, 3)), types.Conv(filters=8, kernel_size=(3, 3)))
    with pytest.raises(TypeError):
        types.Dense(1, 2)
    with pytest.raises(TypeError):
        types.Dense(1, units=2)
    with pytest.raises(TypeError):
        types.Dense(bias=1)


def test_bool_is_not_int():
    spec = schema.Int(min=0, max=1)
    with pytest.raises(ConstraintViolation):
        spec.check(ss.to_symbolic(True), "x")


def test_float_accepts_int():
    schema.Float(min=0).check(ss.to_symbolic(5), "x")


def test_text_pattern_anchored():
    spec = schema.Text(pattern="ab+")
    spec.check(ss.to_symbolic("abb"), "x")
    with pytest.raises(ConstraintViolation):
        spec.check(ss.to_symbolic("xabb"), "x")


def test_enum_and_nullable():
    spec = schema.Enum(["a", "b"], nullable=True)
    spec.check(ss.to_symbolic("a"), "x")
    spec.check(ss.to_symbolic(None), "x")
    with pytest.raises(ConstraintViolation):
        spec.check(ss.to_symbolic("c"), "x")
    with pytest.raises(ConstraintViolation):
        schema.Enum([1]).check(ss.to_symbolic(None), "x")


def test_object_of(types):
    spec = schema.ObjectOf("Dense")
    spec.check(types.Dense(10), "x")
    with pytest.raises(ConstraintViolation):
        spec.check(types.Conv(8, 3), "x")
    schema.ObjectOf().check(types.Conv(8, 3), "x")


def test_list_and_map_specs():
    spec = schema.ListOf(schema.Int(min=0), min_len=1, max_len=2)
    spec.check(ss.to_symbolic([1, 2]), "x")
    with pytest.raises(ConstraintViolation):
        spec.check(ss.to_symbolic([]), "x")
    with pytest.raises(ConstraintViolation):
        spec.check(ss.to_symbolic([1, -1]), "x")
    m = schema.MapOf(schema.Int())
    m.check(ss.to_symbolic({"a": 1}), "x")
    with pytest.raises(ConstraintViolation):
        m.check(ss.to_symbolic({"a": "s"}), "x")


# -- hyper acceptance: every possible materialization must satisfy the spec --

def test_spec_accepts_hyper_when_all_candidates_pass():
    schema.Int(min=1, max=20).check(oneof([2, 4, 8]), "x")
    with pytest.raises(ConstraintViolation):
        schema.Int(min=3, max=20).check(oneof([2, 4, 8]), "x")


def test_spec_accepts_ranges_by_inclusion():
    schema.Int(min=0, max=10).check(intv(1, 8), "x")
    with pytest.raises(ConstraintViolation):
        schema.Int(min=0, max=5).check(intv(1, 8), "x")
    schema.Float(min=0).check(floatv(1e-5, 1e-4), "x")
    with pytest.raises(ConstraintViolation):
        schema.Float(min=0).check(floatv(-1.0, 1.0), "x")
    schema.Float(min=0, max=10).check(intv(1, 8), "x")


def test_multi_choice_needs_sequence_shaped_spec():
    spec = schema.ListOf(schema.Int(min=0), min_len=2, max_len=2)
    spec.check(manyof(2, [1, 2, 3]), "x")
    with pytest.raises(ConstraintViolation):
        spec.check(manyof(3, [1, 2, 3]), "x")  # length constraint
    with pytest.raises(ConstraintViolation):
        schema.Int().check(manyof(2, [1, 2, 3]), "x")
    schema.Any().check(manyof(2, [1, 2, 3]), "x")


def test_embedding_violating_candidate_rejected(types):
    with pytest.raises(ConstraintViolation):
        types.Conv(filters=oneof([4, 0]), kernel_size=3)  # 0 violates min=1


def test_conditional_candidate_acceptance(types):
    node = types.Conv(filters=oneof([2, oneof([4, 8])]), kernel_size=3)
    assert not ss.is_deterministic(node)
    with pytest.raises(ConstraintViolation):
        types.Conv(filters=oneof([2, oneof([4, 0])]), kernel_size=3)


def test_every_object_route_applies_the_one_construction_rule():
    """Building a node directly, by calling its TypeDef, by ``bind`` or by
    ``deserialize`` gives the same fields, defaults filled, and refuses an
    unknown name with the same text."""
    registry = ss.TypeRegistry()
    Opt = registry.register(ss.TypeDef("Opt", [
        ss.Param("lr", schema.Float(min=0), 0.1),
        ss.Param("steps", schema.Int(min=1)),
    ], impl=lambda lr, steps: (lr, steps)))
    type_def = Opt
    routes = {
        "node": lambda **fields: ObjectNode(type_def, fields),
        "call": lambda **fields: Opt(**fields),
        "bind": lambda **fields: ObjectNode(type_def, {}).bind(**fields),
        "deserialize": lambda **fields: ss.deserialize(
            json.dumps({"_type": "Opt", **fields}), registry),
    }
    for route, build in routes.items():
        assert ss.serialize(build(steps=5)) == '{"_type":"Opt","lr":0.1,"steps":5}', route
        error = MalformedDocument if route == "deserialize" else UnknownField
        with pytest.raises(error, match=r"^Opt has no field 'bogus'$"):
            build(steps=5, bogus=1)
    with pytest.raises(UnknownField, match=r"^Opt has no field 'bogus'$"):
        Opt()(bogus=1)
    assert Opt()(steps=2) == (0.1, 2)
    assert issubclass(UnknownField, TypeError)


# The acceptance matrix: each spec kind against a one-of that passes and one
# that fails, a k = 2 splice, and int and float ranges inside and outside.
_SPLICE = manyof(2, [1, 2, 3])
_RANGES = {"intv-in": intv(1, 8), "intv-out": intv(5, 20),
           "floatv-in": floatv(0.5, 2.5), "floatv-out": floatv(-1.0, 1.0)}


def _acceptance_specs(P):
    """Per spec kind: the spec, its text, a passing one-of, a failing one-of
    (None for Any) with the path and text of its refusal, and what else it
    accepts besides the passing one-of."""
    at = "f.candidates[1]"
    return {
        "any": (schema.Any(), "Any", oneof([None, "x"]), None, None, {"splice", *_RANGES}),
        "int": (schema.Int(min=0, max=10), "Int(min=0, max=10)", oneof([0, 10]), oneof([0, 11]),
                (at, "Int(min=0, max=10) (out of range [0, 10]): 11"), {"intv-in"}),
        "float": (schema.Float(min=0, max=10), "Float(min=0, max=10)", oneof([0, 0.5]),
                  oneof([0.5, 11]), (at, "Float(min=0, max=10) (out of range [0, 10]): 11"),
                  {"intv-in", "floatv-in"}),
        "text": (schema.Text(pattern="[a-z]+"), "Text(pattern='[a-z]+')", oneof(["ab", "c"]),
                 oneof(["ab", "AB"]),
                 (at, "Text(pattern='[a-z]+') (does not match '[a-z]+'): 'AB'"), set()),
        "enum": (schema.Enum(["a", "b"]), "Enum(['a', 'b'])", oneof(["a", "b"]),
                 oneof(["a", "c"]), (at, "Enum(['a', 'b']) (not one of ['a', 'b']): 'c'"), set()),
        "object": (schema.ObjectOf("P"), "ObjectOf('P')", oneof([P(), P()]), oneof([P(), 3]),
                   (at, "ObjectOf('P') (expected an object): 3"), set()),
        "list": (schema.ListOf(schema.Int(min=0), min_len=2, max_len=2),
                 "ListOf(Int(min=0, max=None))", oneof([[1, 2], [3, 4]]), oneof([[1, 2], [1]]),
                 (at, "ListOf(Int(min=0, max=None)) (length outside [2, 2]): [1]"), {"splice"}),
        "map": (schema.MapOf(schema.Int(min=0)), "MapOf(Int(min=0, max=None))",
                oneof([{"a": 1}, {}]), oneof([{"a": 1}, {"a": -1}]),
                (f"{at}.a", "Int(min=0, max=None) (out of range [0, None]): -1"), set()),
    }


def _refusal(spec, value, path="f"):
    with pytest.raises(ConstraintViolation) as caught:
        spec.check(value, path)
    return caught.value


def test_acceptance_matrix_of_every_spec_kind_and_type_def_handles():
    """A spec accepts a hyper value only when it accepts every value it can
    become: each candidate of a one-of must pass; a splice is a sequence of
    the chosen candidates; a range must lie inside a number spec's bounds,
    and a float range fits only a Float.  Every refusal has a fixed text."""
    registry = ss.TypeRegistry()
    P = ss.TypeDef("P", [])
    assert registry.register(P) is P
    assert P.is_instance(P()) and not P.is_instance(ss.to_symbolic(3))
    for name, (spec, text, passing, failing, refusal, accepts) in _acceptance_specs(P).items():
        spec.check(passing, "f")
        if failing is not None:
            path, rest = refusal
            caught = _refusal(spec, failing)
            assert (caught.path, str(caught)) == (path, f"value at {path!r} violates {rest}"), name
        for kind, value in {"splice": _SPLICE, **_RANGES}.items():
            if kind in accepts:
                spec.check(value, "f")
                continue
            reason = ("cannot hold a multi-choice splice" if kind == "splice"
                      else f"range [{value.min}, {value.max}] not accepted")
            caught = _refusal(spec, value)
            assert (caught.path, str(caught)) == (
                "f", f"value at 'f' violates {text} ({reason}): {value!r}"), (name, kind)
    too_long = _refusal(schema.ListOf(schema.Int(), max_len=1), _SPLICE)
    assert str(too_long) == ("value at 'f' violates ListOf(Int(min=None, max=None)) "
                             "(materializes to a sequence of 2): "
                             "Categorical([1, 2, 3], k=2, distinct=True, sorted=False)")
    bad_element = _refusal(schema.ListOf(schema.Int(min=2)), _SPLICE)
    assert bad_element.path == "f.candidates[0]"


# Refusals of -1 below the checked node, at each kind of place a spec looks.
_REFUSALS = pytest.mark.parametrize("spec, node", [
    (schema.Int(min=0), oneof([1, -1])),
    (schema.ListOf(schema.Int(min=0), min_len=2, max_len=2), manyof(2, [1, -1, 2])),
    (schema.ListOf(schema.Int(min=0)), ss.to_symbolic([1, -1])),
    (schema.MapOf(schema.Int(min=0)), ss.to_symbolic({"a": 1, "b": -1})),
    (schema.ListOf(schema.Int(min=0)), ss.to_symbolic([oneof([1, -1])])),
    (schema.Int(min=0), oneof([1, oneof([2, -1])])),
], ids=["oneof", "splice", "list", "map", "oneof-in-list", "oneof-in-oneof"])


@_REFUSALS
def test_a_refusal_at_the_root_names_a_path_that_reaches_the_offending_node(spec, node):
    caught = _refusal(spec, node, "")
    assert ss.get(node, caught.path) is caught.value and caught.value.to_plain() == -1


@_REFUSALS
def test_validate_tree_names_a_path_that_reaches_the_offending_node(spec, node):
    """The field holding `node` passed a looser spec when it was built."""
    holder = ss.TypeDef("Holder", [ss.Param("f", schema.Any())])(f=node.clone())
    holder.type_def.param("f").spec = spec
    tree = ss.to_symbolic([holder])
    with pytest.raises(ConstraintViolation) as caught:
        ss.validate_tree(tree)
    assert caught.value.path.startswith("[0].f")
    assert ss.get(tree, caught.value.path) is caught.value.value
    assert caught.value.value.to_plain() == -1


def test_a_refused_null_names_its_node():
    node = ss.to_symbolic({"a": 1, "b": None})
    caught = _refusal(schema.MapOf(schema.Int()), node, "m")
    assert (caught.path, str(caught)) == (
        "m.b", "value at 'm.b' violates Int(min=None, max=None) (null not allowed): None")
    assert caught.value is node["b"]


def test_a_passing_check_renders_no_path():
    """The path given to ``check`` is read only when the check fails."""
    rendered = []

    class Watched(str):
        def __format__(self, format_spec):
            rendered.append(str(self))
            return super().__format__(format_spec)

    passing = [
        (schema.ListOf(schema.Int(min=0)), ss.to_symbolic([1, 2])),
        (schema.MapOf(schema.Int(min=0)), ss.to_symbolic({"a": 1, "b": 2})),
        (schema.Int(min=0), oneof([1, oneof([2, 3])])),
        (schema.ListOf(schema.Int(min=0)), manyof(2, [1, 2, 3])),
    ]
    for spec, node in passing:
        spec.check(node, Watched("f"))
    assert rendered == []
    _refusal(schema.ListOf(schema.Int(min=0)), ss.to_symbolic([1, -1]), Watched("f"))
    assert rendered == ["f"]


def test_a_refused_field_runs_its_check_once(monkeypatch):
    """``rebind`` and ``validate_tree`` take the refused node's path from its
    parent links; neither runs the failed check again to render it."""
    calls = []
    check = schema.Int._check
    monkeypatch.setattr(schema.Int, "_check",
                        lambda self, *args: calls.append(args) or check(self, *args))
    box = ss.TypeDef("Box", [ss.Param("size", schema.Int(min=0))])(size=5)
    calls.clear()
    with pytest.raises(ConstraintViolation, match=r"^value at 'size' violates"):
        ss.rebind(box, {"size": -1})
    assert len(calls) == 1
    box.type_def.param("size").spec.min = 10
    tree = ss.to_symbolic([box])
    calls.clear()
    with pytest.raises(ConstraintViolation, match=r"^value at '\[0\]\.size' violates"):
        ss.validate_tree(tree)
    assert len(calls) == 1


def test_is_functor_says_whether_instances_are_callable():
    """Every TypeDef is callable (calling it builds an object); only a type
    with an ``impl`` is a functor, whose instances are callable."""
    plain = ss.TypeDef("Plain", [ss.Param("x", schema.Int())])
    functor = ss.TypeDef("Doubler", [ss.Param("x", schema.Int())], impl=lambda x: 2 * x)
    assert callable(plain) and callable(functor)
    assert not plain.is_functor and functor.is_functor
    assert functor(x=3)() == 6
    with pytest.raises(TypeError, match="not a functor"):
        plain(x=3)()
    assert not hasattr(plain, "callable")
