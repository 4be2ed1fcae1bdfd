"""Hyper value constructors, determinism checks and space cardinality."""

from __future__ import annotations

import math

import pytest

import symsearch as ss
from symsearch.decisions import abstract_search_space, enumerate_dnas
from symsearch.eager import eager_floatv, eager_intv, eager_problem
from symsearch.errors import BadRange, EmptyCandidates, IllegalDirective, KTooLarge
from symsearch.hyper import INFINITE, floatv, intv, manyof, oneof, permutate


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


def test_the_range_rule_accepts_int_bounds_for_floats_and_equal_bounds():
    assert (floatv(0, 1).min, floatv(0, 1).max) == (0.0, 1.0)
    assert ss.space_size(intv(-3, -3)) == 1
    spec, _ = eager_problem(lambda: eager_floatv(-1e308, 1e308) + eager_intv(2, 2))
    assert [(p.min, p.max) for p in spec.points] == [(-1e308, 1e308), (2, 2)]


def test_oneof_is_k1_and_permutate_flags():
    assert oneof([1, 2]).k == 1
    p = permutate([1, 2, 3])
    assert (p.k, p.distinct, p.sorted) == (3, True, False)


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
