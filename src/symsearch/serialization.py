"""JSON wire format for symbolic trees.

Primitives map to JSON scalars, sequences to arrays and mappings to objects.
An object node becomes a JSON object with the reserved key ``_type`` holding
its type name plus one key per bound field.  Hyper values use the reserved
key ``_hyper``::

    {"_hyper": "oneof", "candidates": [...], "hints": null}
    {"_hyper": "manyof", "k": 2, "distinct": true, "sorted": true,
     "candidates": [...], "hints": null}
    {"_hyper": "permutate", "candidates": [...], "hints": null}
    {"_hyper": "intv", "min": 1, "max": 8, "hints": null}
    {"_hyper": "floatv", "min": 1e-05, "max": 0.0001, "hints": null}

Serialization is deterministic: equal values produce identical text.

A decision spec is ``{"points": [...]}`` and a table ``{"spec": <spec>, "rewards":
{text: reward}}``; every reader refuses a key its document's kind does not hold.
"""

from __future__ import annotations

import json
import math
import weakref

from .algorithms import check_reward
from .decisions import CategoricalPoint, DecisionSpec, FloatPoint, IntPoint
from .errors import BadPoint, InvalidReward, MalformedDocument, UnknownField, UnknownType
from .hyper import Categorical, FloatRange, IntRange, check_categorical, check_range
from .schema import TypeRegistry
from .values import Mapping, ObjectNode, Primitive, Sequence, SymbolicValue, to_symbolic


def serialize(x) -> str:
    """Render a symbolic value as compact JSON text."""
    return json.dumps(to_json_obj(to_symbolic(x)), separators=(",", ":"))


def to_json_obj(node: SymbolicValue):
    if isinstance(node, Primitive):
        return node.value
    if isinstance(node, ObjectNode):
        doc = {"_type": node.type_def.type_name}
        for key, child in node._fields.items():
            doc[key] = to_json_obj(child)
        return doc
    if isinstance(node, Sequence):
        return [to_json_obj(c) for c in node._children]
    if isinstance(node, Mapping):
        return {k: to_json_obj(v) for k, v in node._entries.items()}
    if isinstance(node, Categorical):
        doc = {"_hyper": _categorical_form(node)}
        if doc["_hyper"] == "manyof":
            doc.update(k=node.k, distinct=node.distinct, sorted=node.sorted)
        doc["candidates"] = [to_json_obj(c) for c in node.candidates]
        doc["hints"] = node.hints
        return doc
    if isinstance(node, (IntRange, FloatRange)):
        return {"_hyper": node.form, "min": node.min, "max": node.max, "hints": node.hints}
    raise TypeError(f"cannot serialize {type(node).__name__}")


def _categorical_form(node: Categorical) -> str:
    if node.k == 1:
        return "oneof"
    if node.k == node.num_candidates and node.distinct and not node.sorted:
        return "permutate"
    return "manyof"


def deserialize(text: str, registry: TypeRegistry | None = None) -> SymbolicValue:
    """Parse JSON text back into a symbolic value.

    Object documents require their types registered; a missing registry only
    supports plain trees and hyper values.  Documents nested deeper than the
    interpreter's recursion limit allows are rejected as malformed.
    """
    try:
        try:
            doc = json.loads(text, parse_constant=_finite, parse_float=_finite)
        except ValueError as exc:  # not JSON, or an integer longer than int() reads
            raise MalformedDocument(f"invalid JSON: {exc}") from None
        return from_json_obj(doc, registry)
    except RecursionError:
        raise MalformedDocument("document is nested too deeply") from None


def _finite(text: str) -> float:
    """A JSON number's float; NaN, infinities and overflowing literals raise."""
    value = float(text)
    if not math.isfinite(value):
        raise MalformedDocument(f"non-finite number {text!r} not allowed")
    return value


def from_json_obj(doc, registry: TypeRegistry | None = None) -> SymbolicValue:
    """The tree `doc` describes.  JSON's own text, integers, booleans and null
    pass no check, nor do a list's fresh children; a float must be finite."""
    kind = type(doc)
    if kind is str or kind is int or kind is bool or doc is None:
        leaf = Primitive.__new__(Primitive)
        leaf._parent = None
        leaf.value = doc
        return leaf
    if isinstance(doc, (bool, int, float, str)):
        return Primitive(doc)
    if isinstance(doc, list):
        node = Sequence.__new__(Sequence)
        node._parent = None
        node._children = children = [from_json_obj(item, registry) for item in doc]
        link = weakref.ref(node)
        for index, child in enumerate(children):
            child._parent = (link, index)
        return node
    if not isinstance(doc, dict):
        raise MalformedDocument(f"unsupported JSON value {doc!r}")
    if "_hyper" in doc:
        return _hyper_from_json(doc, registry)
    if "_type" in doc:
        return _object_from_json(doc, registry)
    try:
        return Mapping({k: from_json_obj(v, registry) for k, v in doc.items()})
    except ValueError as exc:
        raise MalformedDocument(str(exc)) from None


def _object_from_json(doc, registry):
    type_name = doc["_type"]
    if not isinstance(type_name, str):
        raise MalformedDocument(f"_type must be text, got {type_name!r}")
    if registry is None:
        raise UnknownType(f"type {type_name!r} is not registered")
    type_def = registry.resolve(type_name)
    fields = {key: from_json_obj(value, registry) for key, value in doc.items() if key != "_type"}
    try:
        return ObjectNode(type_def, fields)
    except UnknownField as exc:
        raise MalformedDocument(str(exc)) from None


# The keys each kind of document may hold; a hyper kind's row holds "_hyper".
_KEYS = {
    "oneof": {"_hyper", "candidates", "hints"},
    "manyof": {"_hyper", "k", "distinct", "sorted", "candidates", "hints"},
    "permutate": {"_hyper", "candidates", "hints"},
    "intv": {"_hyper", "min", "max", "hints"},
    "floatv": {"_hyper", "min", "max", "hints"},
    "categorical": {"kind", "id", "k", "n", "distinct", "sorted", "subspaces", "hints"},
    "int": {"kind", "id", "min", "max", "hints"},
    "float": {"kind", "id", "min", "max", "hints"},
    "spec": {"points"},
    "table": {"spec", "rewards"},
}


def _hyper_from_json(doc, registry):
    kind = doc.get("_hyper")
    if not isinstance(kind, str) or "_hyper" not in _KEYS.get(kind, ()):
        raise MalformedDocument(f"unknown hyper kind {kind!r}")
    if kind in ("intv", "floatv"):
        make = IntRange if kind == "intv" else FloatRange
        node = _range_from_json(doc, kind, make is IntRange, make)
    else:
        candidates = [from_json_obj(c, registry)
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


def spec_to_json_obj(spec: DecisionSpec) -> dict:
    """JSON rendering of a spec: kinds, ranges and nesting only.  Candidate
    program content never appears here."""
    return {"points": [_point_to_json(p) for p in spec.points]}


def isomorphic(a: DecisionSpec, b: DecisionSpec) -> bool:
    """Same shape as a table file stores it: equal :func:`spec_to_json_obj`
    renderings but for the ids (kinds, ranges, flags, hints and nesting)."""
    return ([_point_to_json(p, False) for p in a.points]
            == [_point_to_json(p, False) for p in b.points])


def _point_to_json(point, ids: bool = True) -> dict:
    doc = {"id": point.id} if ids else {}
    if isinstance(point, CategoricalPoint):
        doc.update(kind="categorical", k=point.k, n=point.n, distinct=point.distinct,
                   sorted=point.sorted, hints=point.hints,
                   subspaces=[[_point_to_json(p, ids) for p in sub] for sub in point.subspaces])
    else:
        doc.update(kind=point.kind, min=point.min, max=point.max, hints=point.hints)
    return doc


def spec_from_json_obj(doc) -> DecisionSpec:
    """Parse the JSON rendering produced by :func:`spec_to_json_obj`.  Ids must
    be text, hints text or null, ``n`` a JSON integer that counts the
    subspaces, flags booleans, and ``points`` and each subspace lists of point
    objects the hyper constructors allow; else MalformedDocument, as for a stray key."""
    if not isinstance(doc, dict):
        raise MalformedDocument(f"a spec must be a JSON object, got {type(doc).__name__}")
    spec = DecisionSpec(_points_from_json(doc.get("points"), "spec points"))
    _check_keys(doc, "spec")
    return spec


def table_from_json_obj(doc) -> tuple[DecisionSpec, dict[str, float]]:
    """A table document's spec and rewards, each one ``check_reward`` allows."""
    if not isinstance(doc, dict):
        raise MalformedDocument(f"a table must be a JSON object, got {type(doc).__name__}")
    rewards = {}
    for key, value in _field(doc, "table", "rewards", dict, "an object").items():
        try:
            rewards[key] = check_reward(value)
        except InvalidReward as exc:
            raise MalformedDocument(f"reward for key {key!r} {exc}") from None
    spec = spec_from_json_obj(_field(doc, "table", "spec", dict, "an object"))
    _check_keys(doc, "table")
    return spec, rewards


def _points_from_json(points, where: str) -> list:
    if not isinstance(points, list) or not all(isinstance(p, dict) for p in points):
        raise MalformedDocument(f"{where} must be a list of point objects, got {points!r}")
    return [_point_from_json(p) for p in points]


def _point_from_json(doc):
    kind = _field(doc, "point", "kind", str, "text")
    label = f"{kind} point {doc.get('id')!r}"
    point_id = _field(doc, label, "id", str, "text")
    if kind == "categorical":
        k = _field(doc, label, "k", object, "an integer")
        n = _field(doc, label, "n", int, "an integer")
        distinct = _field(doc, label, "distinct", bool, "true or false")
        sorted_ = _field(doc, label, "sorted", bool, "true or false")
        subspaces = [_points_from_json(sub, f"{label} subspaces[{i}]")
                     for i, sub in enumerate(_field(doc, label, "subspaces", list, "a list"))]
        if n != len(subspaces):
            raise MalformedDocument(f"{label} n must equal its number of subspaces, "
                                    f"{len(subspaces)}, got {n!r}")
        _point_rule(label, check_categorical, label, k, n, distinct, doc.get("hints"))
        point = CategoricalPoint(point_id, k, n, distinct, sorted_, subspaces, doc.get("hints"))
    elif kind in ("int", "float"):
        integer = kind == "int"
        def make(low, high, hints):
            check_range(label, integer, low, high, hints)
            return (IntPoint(point_id, low, high, hints) if integer
                    else FloatPoint(point_id, float(low), float(high), hints))
        point = _range_from_json(doc, label, integer, make)
    else:
        raise MalformedDocument(f"unknown decision kind {kind!r}")
    _check_keys(doc, kind, label)
    return point


def _range_from_json(doc, label: str, integer: bool, make):
    """``make(min, max, hints)`` of a range document; `make` applies ``check_range``."""
    wanted = "an integer" if integer else "a finite number"
    low, high = (_field(doc, label, key, object, wanted) for key in ("min", "max"))
    return _point_rule(label, make, low, high, doc.get("hints"))


def _field(doc, label: str, key: str, kind, wanted: str, default=None):
    """``doc[key]``, of `kind` (a bool is no int; `object` takes any non-null
    value); a missing key gives `default`, an error naming `label` if that is None."""
    value = doc.get(key, default)
    if (value is None or not isinstance(value, kind)
            or (kind is int and isinstance(value, bool))):
        got = f"got {value!r}" if key in doc else "it is missing"
        raise MalformedDocument(f"{label} {key} must be {wanted}, {got}")
    return value


def _point_rule(label: str, make, *args):
    """``make(*args)``, which applies a ``hyper`` point rule; the rule's error
    becomes MalformedDocument naming `label` in place of the rule's own."""
    try:
        return make(*args)
    except BadPoint as exc:
        raise MalformedDocument(f"{label} {exc.detail}") from None


def _check_keys(doc: dict, kind: str, label: str | None = None) -> None:
    """Refuse a key that no `kind` document holds, naming `label` or `kind`."""
    for key in doc:
        if key not in _KEYS[kind]:
            raise MalformedDocument(f"{label or kind} has no key {key!r}")
