"""Wire format: documented forms, roundtrips and reserved keys."""

from __future__ import annotations

import json
import sys

import pytest

import symsearch as ss
from symsearch.errors import MalformedDocument, ReservedKey, UnknownType
from symsearch.hyper import floatv, intv, manyof, oneof, permutate
from symsearch.serialization import spec_from_json_obj


def test_dense_wire_form(types):
    assert ss.serialize(types.Dense(10)) == '{"_type":"Dense","units":10}'


def test_scalar_and_container_forms():
    assert ss.serialize(ss.to_symbolic(7)) == "7"
    assert ss.serialize(ss.to_symbolic([1, "a", None, True])) == '[1,"a",null,true]'
    assert ss.serialize(ss.to_symbolic({"b": 2, "a": 1})) == '{"a":1,"b":2}'


def test_hyper_wire_forms():
    assert json.loads(ss.serialize(oneof([1, 2]))) == {
        "_hyper": "oneof", "candidates": [1, 2], "hints": None}
    assert json.loads(ss.serialize(manyof(2, [1, 2, 3], distinct=True, sorted=True))) == {
        "_hyper": "manyof", "k": 2, "distinct": True, "sorted": True,
        "candidates": [1, 2, 3], "hints": None}
    assert json.loads(ss.serialize(permutate([1, 2, 3]))) == {
        "_hyper": "permutate", "candidates": [1, 2, 3], "hints": None}
    assert json.loads(ss.serialize(intv(1, 8))) == {
        "_hyper": "intv", "min": 1, "max": 8, "hints": None}
    assert json.loads(ss.serialize(floatv(1e-5, 1e-4))) == {
        "_hyper": "floatv", "min": 1e-5, "max": 1e-4, "hints": None}


def test_roundtrip_trainer(trainer, types):
    text = ss.serialize(trainer)
    back = ss.deserialize(text, types.registry)
    assert ss.equal(back, trainer)
    # unbound functor fields stay unbound
    assert not back.is_bound("learning_schedule")


def test_roundtrip_space(types):
    space = ss.Mapping({
        "optimizer": oneof([types.Adam(), types.RMSProp(learning_rate=floatv(1e-5, 1e-4))]),
        "model": types.Sequential(children=[
            permutate([types.Conv(oneof([4, 8]), 3), types.BatchNorm(), types.ReLU()]),
        ]),
        "blocks": intv(1, 3),
    })
    assert ss.equal(ss.deserialize(ss.serialize(space), types.registry), space)


def test_equal_implies_same_serialization(types):
    a = types.Dense(units=10)
    b = types.Dense(10)
    assert ss.equal(a, b)
    assert ss.serialize(a) == ss.serialize(b)


def test_roundtrip_random_trees(make_generator):
    gen = make_generator(11)
    for _ in range(40):
        tree = gen.space()
        assert ss.equal(ss.deserialize(ss.serialize(tree)), tree)


def test_unknown_type_rejected(types):
    with pytest.raises(UnknownType):
        ss.deserialize('{"_type":"Mystery","x":1}', types.registry)
    with pytest.raises(UnknownType):
        ss.deserialize('{"_type":"Dense","units":1}')  # no registry at all


def test_malformed_documents(types):
    with pytest.raises(MalformedDocument):
        ss.deserialize("{not json", types.registry)
    with pytest.raises(MalformedDocument):
        ss.deserialize("NaN", types.registry)
    with pytest.raises(MalformedDocument, match="^non-finite number '-1e400' not allowed$"):
        ss.deserialize('{"_type":"Dense","units":[-1e400]}', types.registry)
    with pytest.raises(MalformedDocument, match="^invalid JSON: "):
        ss.deserialize("[1" + "0" * sys.get_int_max_str_digits() + "]")
    with pytest.raises(MalformedDocument):
        ss.deserialize('{"_type":"Dense","bogus":1}', types.registry)
    with pytest.raises(MalformedDocument):
        ss.deserialize('{"_hyper":"sevenof","candidates":[1]}', types.registry)
    with pytest.raises(MalformedDocument):
        ss.deserialize('{"key with space":1}', types.registry)


@pytest.mark.parametrize("document, key", [
    ('{"_hyper":"intv","min":1,"max":3,"step":2}', "step"),
    ('{"_hyper":"floatv","min":0.0,"max":1.0,"k":1}', "k"),
    ('{"_hyper":"oneof","candidates":[1,2],"k":2}', "k"),
    ('{"_hyper":"permutate","candidates":[1,2],"sorted":true}', "sorted"),
    ('{"_hyper":"manyof","k":1,"candidates":[1,2],"min":0}', "min"),
])
def test_unknown_hyper_keys_are_named(document, key):
    with pytest.raises(MalformedDocument, match=f"has no key '{key}'"):
        ss.deserialize(document)


@pytest.mark.parametrize("doc", [[], 3, None, "points"])
def test_a_spec_that_is_not_an_object_is_malformed(doc):
    with pytest.raises(MalformedDocument,
                       match=f"^a spec must be a JSON object, got {type(doc).__name__}$"):
        spec_from_json_obj(doc)


@pytest.mark.parametrize("document, message", [
    ('{"_hyper":"oneof"}', "oneof candidates must be a list, it is missing"),
    ('{"_hyper":"manyof","candidates":[1,2]}', "manyof k must be an integer, it is missing"),
    ('{"_hyper":"floatv","min":0.0}', "floatv max must be a finite number, it is missing"),
])
def test_missing_hyper_keys_are_named_with_their_type(document, message):
    with pytest.raises(MalformedDocument, match=f"^{message}$"):
        ss.deserialize(document)


@pytest.mark.parametrize("document, message", [
    ('{"_hyper":"intv","min":3,"max":1}', "intv min must be at most max, 1, got 3"),
    ('{"_hyper":"oneof","candidates":[]}', "oneof n must be at least 1, got 0"),
    ('{"_hyper":"manyof","k":3,"candidates":[1,2]}',
     "manyof k must be at most n, 2, when distinct, got 3"),
], ids=["min-above-max", "no-candidates", "k-above-n"])
def test_a_point_no_constructor_allows_is_malformed(document, message):
    with pytest.raises(MalformedDocument, match=f"^{message}$"):
        ss.deserialize(document)


def test_reserved_keys_rejected_in_construction():
    with pytest.raises(ReservedKey):
        ss.Mapping({"_type": 1})


def test_serialization_is_canonical(make_generator):
    gen = make_generator(53)
    for _ in range(25):
        tree = gen.space()
        text = ss.serialize(tree)
        assert ss.serialize(ss.clone(tree)) == text
        assert ss.serialize(ss.deserialize(text)) == text


@pytest.mark.parametrize("depth", [900, 3000])
def test_deep_nesting_is_malformed(depth):
    with pytest.raises(MalformedDocument):
        ss.deserialize("[" * depth + "1" + "]" * depth)
