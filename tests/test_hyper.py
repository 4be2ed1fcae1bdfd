"""Hyper value constructors, determinism checks and space cardinality."""

from __future__ import annotations

import json
import math
import pickle
import sys

import pytest

import symsearch as ss
from symsearch import hyper, serialization
from symsearch.decisions import abstract_search_space, enumerate_dnas
from symsearch.eager import eager_floatv, eager_intv, eager_oneof, eager_problem
from symsearch.errors import (
    BadPoint,
    BadRange,
    EmptyCandidates,
    IllegalDirective,
    KTooLarge,
    MalformedDocument,
)
from symsearch.hyper import INFINITE, floatv, intv, manyof, oneof, permutate
from symsearch.serialization import from_json_obj, spec_from_json_obj


def test_constructor_errors():
    with pytest.raises(EmptyCandidates):
        oneof([])
    with pytest.raises(BadRange):
        intv(5, 1)
    with pytest.raises(BadRange):
        floatv(2.0, 1.0)
    with pytest.raises(KTooLarge):
        manyof(4, [1, 2, 3], distinct=True)
    with pytest.raises(BadRange):
        manyof(0, [1, 2])


BAD_RANGES = {
    "int-float-bound": ("intv", 1.5, 3), "int-bool-bound": ("intv", True, 3),
    "int-text-bound": ("intv", 0, "3"), "int-min-above-max": ("intv", 5, 1),
    "float-inf-bound": ("floatv", 0, math.inf), "float-text-bounds": ("floatv", "a", "b"),
    "float-nan-bound": ("floatv", math.nan, 1), "float-bool-bound": ("floatv", False, 1.0),
    "float-huge-int-bound": ("floatv", 0, 10**400), "float-min-above-max": ("floatv", 2.0, 1.0),
    # Integers too long for repr() to render are named by their size.
    "float-unprintable-int-bound": ("floatv", 0, 10**5000),
    "int-unprintable-min-above-max": ("intv", 10**5000, 0),
    "int-unprintable-bound": ("intv", 0, 10**5000),
}


@pytest.mark.parametrize("form", ["symbolic", "eager"])
@pytest.mark.parametrize("kind, low, high", BAD_RANGES.values(), ids=BAD_RANGES)
def test_one_range_rule_refuses_bad_bounds_at_construction(kind, low, high, form):
    """``intv`` bounds are ints, ``floatv`` bounds finite numbers, a bool is
    neither, and min <= max; an eager call checks them in the collection pass."""
    if form == "symbolic":
        make = {"intv": intv, "floatv": floatv}[kind]
        with pytest.raises(BadRange, match=f"^{kind}: "):
            make(low, high)
    else:
        make = {"intv": eager_intv, "floatv": eager_floatv}[kind]
        with pytest.raises(BadRange, match=f"^{kind}: "):
            eager_problem(lambda: make(low, high))


def test_a_bound_too_long_to_print_is_a_bad_range_on_every_route():
    """A float bound must fit a float, and an int bound must have no more
    digits than ``repr`` renders, so every route refuses a bound that could
    not be shown or stored."""
    huge = 10 ** 5000
    reason = f"max must be a finite number, got an integer of {huge.bit_length()} bits$"
    with pytest.raises(BadRange, match=f"^floatv: {reason}"):
        floatv(0, huge)
    point = {"kind": "float", "id": "p", "min": 0, "max": huge, "hints": None}
    with pytest.raises(MalformedDocument, match=f"^float point 'p' {reason}"):
        spec_from_json_obj({"points": [point]})
    reason = (f"max must have at most {sys.get_int_max_str_digits()} digits, "
              f"got an integer of {huge.bit_length()} bits$")
    with pytest.raises(BadRange, match=f"^intv: {reason}"):
        intv(0, huge)
    with pytest.raises(BadRange, match=f"^intv: {reason}"):
        eager_problem(lambda: eager_intv(0, huge))
    with pytest.raises(MalformedDocument, match=f"^intv {reason}"):
        from_json_obj({"_hyper": "intv", "min": 0, "max": huge, "hints": None})
    point = {"kind": "int", "id": "p", "min": 0, "max": huge, "hints": None}
    with pytest.raises(MalformedDocument, match=f"^int point 'p' {reason}"):
        spec_from_json_obj({"points": [point]})
    longest = 10 ** sys.get_int_max_str_digits() - 1
    assert json.loads(ss.serialize(intv(0, longest)))["max"] == longest


def test_copies_of_a_space_run_no_range_check(monkeypatch, types):
    """A range's bounds passed :func:`check_range` when it was built, so a
    clone, a copy around an edit and a partial materialization take them as
    they are."""
    space = ss.Sequence([intv(1, 3), floatv(0, 1), types.Dense(units=intv(1, 8))])
    fresh = intv(1, 3)
    calls = []
    monkeypatch.setattr(hyper, "check_range", lambda *args: calls.append(args))
    copies = [space.clone(), ss.clone(space), ss.rebind(space, {"[0]": fresh}),
              ss.rebind(space, {"[1]": 0.5}),
              ss.materialize_partial(space, ss.DNA([2]), lambda point: point.id == "[0]")]
    assert calls == []
    assert [ss.equal(copy, space) for copy in copies[:3]] == [True, True, True]
    assert repr(copies[3][0]) == "intv(1, 3)" and repr(copies[4][1]) == "floatv(0.0, 1.0)"


@pytest.mark.parametrize("value, rule", [
    (oneof([1, 2, 3]), "check_categorical"),
    (intv(1, 3), "check_range"),
    (floatv(0.0, 1.0), "check_range"),
], ids=["oneof", "intv", "floatv"])
def test_deserialize_applies_each_point_rule_once(monkeypatch, value, rule):
    """The hyper reader builds each point through its constructor, which
    applies the rule; the reader itself applies none."""
    text, calls, check = ss.serialize(value), [], getattr(hyper, rule)
    counting = lambda *args: calls.append(args) or check(*args)
    for module in (hyper, serialization):
        monkeypatch.setattr(module, rule, counting)
    assert ss.equal(ss.deserialize(text), value)
    assert len(calls) == 1


def test_the_range_rule_accepts_int_bounds_for_floats_and_equal_bounds():
    assert (floatv(0, 1).min, floatv(0, 1).max) == (0.0, 1.0)
    assert ss.space_size(intv(-3, -3)) == 1
    spec, _ = eager_problem(lambda: eager_floatv(-1e308, 1e308) + eager_intv(2, 2))
    assert [(p.min, p.max) for p in spec.points] == [(-1e308, 1e308), (2, 2)]


def categorical_routes(k, n, distinct=True, hints=None):
    """A categorical point of `k` out of `n` by each route that can state it:
    constructor, eager collection pass (a one-of only), deserialize and
    table spec."""
    candidates = list(range(n))
    doc = {"_hyper": "manyof", "k": k, "distinct": distinct, "sorted": False,
           "candidates": candidates, "hints": hints}
    point = {"kind": "categorical", "id": "p", "k": k, "n": n, "distinct": distinct,
             "sorted": False, "subspaces": [[] for _ in candidates], "hints": hints}
    routes = {
        "constructor": lambda: manyof(k, candidates, distinct=distinct, hints=hints),
        "deserialize": lambda: ss.deserialize(json.dumps(doc)),
        "table": lambda: spec_from_json_obj({"points": [point]}),
    }
    if type(k) is int and k == 1 and distinct:
        routes["eager"] = lambda: eager_problem(lambda: eager_oneof(candidates, hints))
    return routes


def range_routes(integer, low, high, hints=None):
    """A range point by each of the four routes."""
    kind = "intv" if integer else "floatv"
    point = {"kind": "int" if integer else "float", "id": "p", "min": low, "max": high,
             "hints": hints}
    doc = {"_hyper": kind, "min": low, "max": high, "hints": hints}
    return {
        "constructor": lambda: (intv if integer else floatv)(low, high, hints),
        "eager": lambda: eager_problem(
            lambda: (eager_intv if integer else eager_floatv)(low, high, hints)),
        "deserialize": lambda: ss.deserialize(json.dumps(doc)),
        "table": lambda: spec_from_json_obj({"points": [point]}),
    }


BAD_POINTS = {
    "k-float": (categorical_routes(2.0, 3), "k"),
    "k-bool": (categorical_routes(True, 3), "k"),
    "k-text": (categorical_routes("2", 3), "k"),
    "k-zero": (categorical_routes(0, 3), "k"),
    "k-zero-repeats": (categorical_routes(0, 3, distinct=False), "k"),
    "no-candidates": (categorical_routes(1, 0), "n"),
    "k-above-n": (categorical_routes(4, 3), "k"),
    "int-float-bound": (range_routes(True, 1.5, 3), "min"),
    "int-bool-bound": (range_routes(True, 0, True), "max"),
    "int-text-bound": (range_routes(True, 0, "3"), "max"),
    "int-min-above-max": (range_routes(True, 5, 1), "min"),
    "float-huge-int-bound": (range_routes(False, 0, 10 ** 400), "max"),
    "float-text-bound": (range_routes(False, "a", 1.0), "min"),
    "float-bool-bound": (range_routes(False, False, 1.0), "min"),
    "float-min-above-max": (range_routes(False, 2.0, 1.0), "min"),
    "oneof-number-hints": (categorical_routes(1, 3, hints=5), "hints"),
    "manyof-list-hints": (categorical_routes(2, 3, hints=["op"]), "hints"),
    "int-number-hints": (range_routes(True, 0, 3, hints=7), "hints"),
    "float-object-hints": (range_routes(False, 0.0, 1.0, hints={"a": 1}), "hints"),
}


@pytest.mark.parametrize("routes, key", BAD_POINTS.values(), ids=BAD_POINTS)
def test_every_route_refuses_a_bad_point_by_the_same_rule(routes, key):
    """Constructors and the eager collection pass raise the rule's error, the
    parsers MalformedDocument; every route names the same key and gives the
    rule's text after its own label."""
    reasons = set()
    for route, make in routes.items():
        error = MalformedDocument if route in ("deserialize", "table") else BadPoint
        with pytest.raises(error, match=f" {key} must ") as caught:
            make()
        message = str(caught.value)
        assert str(pickle.loads(pickle.dumps(caught.value))) == message  # as from a worker
        reasons.add(message[message.index(f" {key} must "):])
    assert len(reasons) == 1, reasons


@pytest.mark.parametrize("k", [2.0, True, "2"])
def test_manyof_refuses_a_k_that_is_not_an_int(k):
    with pytest.raises(BadRange, match=f"^categorical: k must be an integer, got {k!r}$"):
        manyof(k, [1, 2, 3])


@pytest.mark.parametrize("hints", [5, b"op", ["op"], 1.5, True])
def test_hints_that_are_not_text_are_a_bad_point_on_every_constructor(hints):
    """Hints are text or null, checked by the point rules, so no constructor
    or eager call makes a point that ``serialize`` or a spec's JSON cannot
    store and read back."""
    makers = {
        "categorical": (lambda: oneof([1, 2], hints=hints), lambda: manyof(2, [1, 2], hints=hints),
                        lambda: permutate([1, 2], hints=hints),
                        lambda: eager_problem(lambda: eager_oneof([1, 2], hints=hints))),
        "intv": (lambda: intv(0, 1, hints), lambda: eager_problem(lambda: eager_intv(0, 1, hints))),
        "floatv": (lambda: floatv(0, 1, hints),
                   lambda: eager_problem(lambda: eager_floatv(0, 1, hints))),
    }
    for label, makes in makers.items():
        for make in makes:
            with pytest.raises(BadPoint, match=rf"^{label}: hints must be text or null, got "):
                make()


def test_oneof_is_k1_and_permutate_flags():
    assert oneof([1, 2]).k == 1
    p = permutate([1, 2, 3])
    assert (p.k, p.distinct, p.sorted) == (3, True, False)


def test_every_categorical_constructor_takes_any_iterable():
    for make, k in ((oneof, 1), (lambda c: manyof(2, c), 2), (permutate, 3)):
        point = make(x for x in [1, 2, 3])
        assert point.k == k and point.candidates.to_plain() == [1, 2, 3]


def test_is_deterministic(types):
    assert ss.is_deterministic(types.Dense(10))
    assert not ss.is_deterministic(types.Dense(oneof([10, 20])))


def test_space_size_basics(types):
    assert ss.space_size(types.Dense(10)) == 1
    assert ss.space_size(intv(3, 7)) == 5
    assert ss.space_size(floatv(0, 1)) == INFINITE
    assert ss.space_size(types.Dense(oneof([10, 20]))) == 2
    assert ss.space_size([oneof([1, 2]), oneof([1, 2, 3])]) == 6


def test_space_size_infinite_propagates(types):
    space = ss.Mapping({"lr": floatv(0, 1), "units": oneof([1, 2])})
    assert ss.space_size(space) == INFINITE
    assert ss.space_size(oneof([1, floatv(0, 1)])) == INFINITE


def test_permutate_size_is_factorial():
    for n in range(1, 6):
        assert ss.space_size(permutate(list(range(n)))) == math.factorial(n)


def test_manyof_counts():
    candidates = [1, 2, 3, 4]
    assert ss.space_size(manyof(2, candidates, distinct=True, sorted=True)) == 6       # C(4,2)
    assert ss.space_size(manyof(2, candidates, distinct=True, sorted=False)) == 12     # P(4,2)
    assert ss.space_size(manyof(2, candidates, distinct=False, sorted=False)) == 16    # 4^2
    assert ss.space_size(manyof(2, candidates, distinct=False, sorted=True)) == 10     # C(5,2)


def test_conditional_size_weighs_subspaces():
    conv_like = ss.Sequence([oneof([8, 16]), oneof([(3, 3), (5, 5)])])  # 4 programs
    dense_like = oneof([10, 20])  # 2 programs
    space = ss.Mapping({
        "m": manyof(3, [conv_like, dense_like], distinct=False),
        "mag": oneof([3, 6, 9]),
    })
    assert ss.space_size(space) == (4 + 2) ** 3 * 3  # 648
    with_lr = ss.Mapping({"inner": space, "lr": floatv(1e-5, 1e-4)})
    assert ss.space_size(with_lr) == INFINITE


def test_nasbench_style_size():
    space = ss.build_nasbench_space(3, 3)
    assert ss.space_size(space) == 3 ** 3 * 2 ** 3


def test_space_size_matches_enumeration_on_random_spaces(make_generator):
    gen = make_generator(23)
    for _ in range(25):
        space = gen.finite_space(max_size=2000)
        size = ss.space_size(space)
        count = sum(1 for _ in enumerate_dnas(abstract_search_space(space)))
        assert count == size


def test_hints_tag():
    assert oneof([1, 2], hints="op").hints == "op"
    assert intv(0, 1, hints="edge").hints == "edge"


def test_hyperify_program_via_rebind(types):
    """A fixed program turns into a search space by swapping values for
    hyper values through a rebind transform."""
    model = types.Sequential(children=[types.Conv(8, (3, 3)), types.Conv(16, (3, 3))])
    space = ss.rebind(model, lambda path, value, parent: (
        oneof([8, 16, 32]) if path.endswith("filters") else value))
    assert ss.space_size(space) == 9
    assert ss.space_size(model) == 1  # the original stays concrete


@pytest.mark.parametrize("space, edits, error", [
    ({"a": oneof([1, 2])}, {"a.candidates": 5}, IllegalDirective),
    ({"a": oneof([1, 2])}, lambda path, value, parent: 5 if path == "a.candidates" else value,
     IllegalDirective),
    ({"a": oneof([1, 2])}, {"a.candidates": []}, EmptyCandidates),
    ({"a": oneof([1])}, {"a.candidates[0]": ss.DELETE}, EmptyCandidates),
    ({"a": manyof(2, [1, 2])}, {"a.candidates[0]": ss.DELETE}, KTooLarge),
])
def test_rebind_keeps_the_constructor_rules_of_candidates(space, edits, error):
    space = ss.to_symbolic(space)
    before = ss.serialize(space)
    with pytest.raises(error):
        ss.rebind(space, edits)
    assert ss.serialize(space) == before
