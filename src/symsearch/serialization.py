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
"""

from __future__ import annotations

import json
import math

from .errors import BadPoint, MalformedDocument, UnknownField, UnknownType
from .hyper import Categorical, FloatRange, IntRange, check_categorical, check_range
from .schema import TypeRegistry
from .values import Mapping, ObjectNode, Primitive, Sequence, SymbolicValue, to_symbolic


def serialize(x) -> str:
    """Render a symbolic value as compact JSON text."""
    return json.dumps(to_json_obj(to_symbolic(x)), separators=(",", ":"))


def to_json_obj(node: SymbolicValue):
    if isinstance(node, Primitive):
        return node.value
    if isinstance(node, Sequence):
        return [to_json_obj(c) for c in node]
    if isinstance(node, Mapping):
        return {k: to_json_obj(v) for k, v in node.items()}
    if isinstance(node, ObjectNode):
        doc = {"_type": node.type_name}
        for key, child in node.child_items():
            doc[key] = to_json_obj(child)
        return doc
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
    if isinstance(doc, (bool, int, float, str)) or doc is None:
        return Primitive(doc)
    if isinstance(doc, list):
        return Sequence([from_json_obj(item, registry) for item in doc])
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


# The keys each hyper kind's document may hold besides "_hyper" and "hints".
_HYPER_KEYS = {
    "oneof": {"candidates"},
    "manyof": {"k", "distinct", "sorted", "candidates"},
    "permutate": {"candidates"},
    "intv": {"min", "max"},
    "floatv": {"min", "max"},
}


def _hyper_from_json(doc, registry):
    kind = doc.get("_hyper")
    if not isinstance(kind, str) or kind not in _HYPER_KEYS:
        raise MalformedDocument(f"unknown hyper kind {kind!r}")
    for key in doc:
        if key not in _HYPER_KEYS[kind] and key not in ("_hyper", "hints"):
            raise MalformedDocument(f"{kind} has no key {key!r}")
    hints = doc.get("hints")
    if kind in ("intv", "floatv"):
        integer = kind == "intv"
        wanted = "an integer" if integer else "a finite number"
        low, high = _field(doc, "min", object, wanted), _field(doc, "max", object, wanted)
        _point_rule(check_range, kind, integer, low, high, hints)
        return IntRange(low, high, hints) if integer else FloatRange(low, high, hints)
    candidates = [from_json_obj(c, registry)
                  for c in _field(doc, "candidates", list, "a list")]
    if kind == "manyof":
        k = _field(doc, "k", object, "an integer")
        distinct = _field(doc, "distinct", bool, "true or false", True)
        sorted_ = _field(doc, "sorted", bool, "true or false", False)
    else:
        k, distinct, sorted_ = 1 if kind == "oneof" else len(candidates), True, False
    _point_rule(check_categorical, kind, k, len(candidates), distinct, hints)
    return Categorical(k, candidates, distinct=distinct, sorted=sorted_, hints=hints)


_MISSING = object()


def _field(doc, key, kind, wanted, default=_MISSING, label=None):
    """``doc[key]``, of `kind` (a bool is no int; `object` takes any value);
    a missing key gives `default`, and is an error when there is none.  An
    error names `label`, by default the document's hyper kind."""
    value = doc.get(key, default)
    if (value is _MISSING or not isinstance(value, kind)
            or (kind is int and isinstance(value, bool))):
        got = f"got {value!r}" if key in doc else "it is missing"
        raise MalformedDocument(f"{label or doc['_hyper']} {key} must be {wanted}, {got}")
    return value


def _point_rule(rule, label: str, *args) -> None:
    """Apply a ``hyper`` point rule; its error becomes MalformedDocument."""
    try:
        rule(label, *args)
    except BadPoint as exc:
        raise MalformedDocument(str(exc)) from None
