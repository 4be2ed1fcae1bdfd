"""Decision specs, DNAs, canonical text, enumeration and sampling."""

from __future__ import annotations

import itertools
import random

import pytest

import symsearch as ss
from symsearch.decisions import (
    DNA,
    CategoricalPoint,
    Choice,
    DecisionSpec,
    IntPoint,
    _merge_plan,
    abstract_search_space,
    condition_spec,
    decode_dna,
    encode_dna,
    enumerate_dnas,
    filter_spec,
    merge_dna,
    minimal_dna,
    random_dna,
    random_tuple,
    split_dna,
    validate_dna,
)
from symsearch.errors import ContinuousSpace, NonconformingDNA, ParseError
from symsearch.hyper import floatv, intv, manyof, oneof, permutate
from symsearch.serialization import isomorphic, spec_to_json_obj


@pytest.fixture()
def cond_space(types):
    """A one-of over identity / pooling / conv-with-sub-choice."""
    return oneof([types.Identity(), types.MaxPool(3), types.Conv(oneof([2, 4]), 3)])


def test_extraction_structure(types):
    space = ss.Mapping({
        "blocks": intv(1, 3),
        "model": types.Sequential(children=[
            permutate([types.Conv(oneof([4, 8]), 3), types.BatchNorm(), types.ReLU()]),
        ]),
        "optimizer": oneof([types.Adam(), types.RMSProp(learning_rate=floatv(1e-5, 1e-4))]),
    })
    spec = abstract_search_space(space)
    assert [p.kind for p in spec.points] == ["int", "categorical", "categorical"]
    perm = spec.points[1]
    assert (perm.k, perm.n, perm.distinct, perm.sorted) == (3, 3, True, False)
    assert [len(sub) for sub in perm.subspaces] == [1, 0, 0]  # filters choice under Conv
    opt = spec.points[2]
    assert [len(sub) for sub in opt.subspaces] == [0, 1]  # floatv under the second candidate
    assert opt.subspaces[1][0].kind == "float"


def test_deterministic_tree_has_empty_spec(types):
    assert abstract_search_space(types.Dense(10)).is_empty


def test_nested_oneof_capture():
    spec = abstract_search_space(oneof([oneof([1, 2]), 3]))
    assert len(spec.points) == 1
    point = spec.points[0]
    assert point.n == 2
    assert len(point.subspaces[0]) == 1 and point.subspaces[0][0].n == 2
    assert point.subspaces[1] == []


def test_point_ids_are_paths(types):
    space = types.Sequential(children=[types.Conv(oneof([2, 4]), 3)])
    spec = abstract_search_space(space)
    assert spec.points[0].id == "children[0].filters"


def test_spec_no_content_leak(types, cond_space):
    import json

    text = json.dumps(spec_to_json_obj(abstract_search_space(cond_space)))
    for name in ("Identity", "MaxPool", "Conv"):
        assert name not in text


# -- conformance ---------------------------------------------------------------

def test_validate_dna(cond_space):
    spec = abstract_search_space(cond_space)
    validate_dna(DNA([[Choice(2, [[Choice(1, [])]])]]), spec)
    with pytest.raises(NonconformingDNA):
        validate_dna(DNA([[Choice(5, [])]]), spec)  # index out of range
    with pytest.raises(NonconformingDNA):
        validate_dna(DNA([[Choice(0, [[Choice(0, [])]])]]), spec)  # extra children
    with pytest.raises(NonconformingDNA):
        validate_dna(DNA([[Choice(2, [])]]), spec)  # missing child decision
    with pytest.raises(NonconformingDNA):
        validate_dna(DNA([]), spec)


def test_validate_constraints():
    spec = abstract_search_space(manyof(2, [1, 2, 3], distinct=True, sorted=True))
    validate_dna(DNA([[Choice(0), Choice(2)]]), spec)
    with pytest.raises(NonconformingDNA):
        validate_dna(DNA([[Choice(2), Choice(0)]]), spec)  # not sorted
    with pytest.raises(NonconformingDNA):
        validate_dna(DNA([[Choice(1), Choice(1)]]), spec)  # not distinct
    int_spec = abstract_search_space(intv(1, 3))
    with pytest.raises(NonconformingDNA):
        validate_dna(DNA([0]), int_spec)
    with pytest.raises(NonconformingDNA):
        validate_dna(DNA([True]), int_spec)


# -- canonical text ---------------------------------------------------------------

def test_encode_examples(cond_space):
    spec = abstract_search_space(cond_space)
    assert encode_dna(DNA([[Choice(2, [[Choice(1, [])]])]]), spec) == "2|1"
    assert encode_dna(DNA([[Choice(0, [])]]), spec) == "0"


def test_encode_names_the_failing_point(cond_space):
    spec = abstract_search_space(ss.Mapping({"layer": cond_space}))
    outer = spec.points[0].id
    inner = spec.points[0].subspaces[2][0].id
    cases = [
        (DNA([[Choice(5)]]), outer),                    # index out of range
        (DNA([["x"]]), outer),                          # not a choice
        (DNA([[Choice(2)]]), outer),                    # missing child decision
        (DNA([[Choice(2, [[Choice(2)]])]]), inner),     # nested index out of range
        (DNA([[Choice(2, [[Choice(0, [3])]])]]), inner),  # extra decision under inner
        (DNA([]), "<root>"),
    ]
    for dna, point_id in cases:
        with pytest.raises(NonconformingDNA) as caught:
            encode_dna(dna, spec)
        assert caught.value.point_id == point_id


def test_a_wrong_child_count_under_the_root_categorical_names_it():
    """The root categorical's id is "", and only a wrong top-level count
    is blamed on "<root>"."""
    spec = abstract_search_space(oneof([ss.Sequence([0, intv(0, 3)]), 1]))
    for dna, point_id in ((DNA([[Choice(0, [])]]), ""), (DNA([]), "<root>")):
        with pytest.raises(NonconformingDNA) as caught:
            encode_dna(dna, spec)
        assert caught.value.point_id == point_id


@pytest.mark.parametrize("distinct", [True, False])
@pytest.mark.parametrize("is_sorted", [True, False])
def test_encode_accepts_exactly_the_enumerated_tuples(distinct, is_sorted):
    spec = abstract_search_space(manyof(3, [1, 2, 3, 4], distinct=distinct, sorted=is_sorted))
    accepted = set()
    for indices in itertools.product(range(4), repeat=3):
        try:
            accepted.add(encode_dna(DNA([[Choice(i) for i in indices]]), spec))
        except NonconformingDNA as exc:
            assert exc.point_id == spec.points[0].id
    assert accepted == {encode_dna(dna, spec) for dna in enumerate_dnas(spec)}
    assert len(accepted) == ss.space_size(manyof(3, [1, 2, 3, 4], distinct=distinct,
                                                 sorted=is_sorted))


def test_decode_validates(cond_space):
    spec = abstract_search_space(cond_space)
    with pytest.raises(NonconformingDNA):
        decode_dna("7", spec)
    with pytest.raises(ParseError):
        decode_dna("2", spec)  # missing the nested decision
    with pytest.raises(ParseError):
        decode_dna("0|1", spec)  # trailing decision
    with pytest.raises(ParseError):
        decode_dna("x", spec)


def test_decode_rejects_non_canonical_text():
    spec = abstract_search_space(ss.build_nasbench_space(2, 2))
    assert encode_dna(decode_dna("1|0|1", spec), spec) == "1|0|1"
    for text in ("+1|0| 1", "01|0|1", "1|0|1 "):
        with pytest.raises(ParseError, match="not canonical"):
            decode_dna(text, spec)
    float_spec = abstract_search_space(floatv(0.0, 1.0))
    with pytest.raises(ParseError, match="'0.5'"):
        decode_dna("0.50", float_spec)


def test_empty_spec_roundtrip(types):
    spec = abstract_search_space(types.Dense(10))
    assert encode_dna(DNA([]), spec) == ""
    assert decode_dna("", spec) == DNA([])


def test_float_encoding_shortest_roundtrip():
    spec = abstract_search_space(floatv(0.0, 1.0))
    dna = DNA([0.1234567890123])
    text = encode_dna(dna, spec)
    assert decode_dna(text, spec).decisions[0] == 0.1234567890123


def test_roundtrip_random_dnas(make_generator):
    gen = make_generator(5)
    rng = random.Random(99)
    for _ in range(20):
        space = gen.finite_space(max_size=500)
        spec = abstract_search_space(space)
        for _ in range(50):
            dna = random_dna(spec, rng)
            assert decode_dna(encode_dna(dna, spec), spec) == dna


# -- enumeration ---------------------------------------------------------------

def test_enumerate_permutate():
    spec = abstract_search_space(permutate([10, 20, 30]))
    dnas = list(enumerate_dnas(spec))
    assert len(dnas) == 6
    texts = [encode_dna(d, spec) for d in dnas]
    assert texts == ["0|1|2", "0|2|1", "1|0|2", "1|2|0", "2|0|1", "2|1|0"]


def test_enumerate_matches_space_size():
    space = ss.build_nasbench_space(3, 3)
    assert sum(1 for _ in enumerate_dnas(abstract_search_space(space))) == 216


def test_enumerate_unique_and_ordered(make_generator):
    gen = make_generator(31)
    for _ in range(10):
        space = gen.finite_space(max_size=600)
        spec = abstract_search_space(space)
        seen = [encode_dna(d, spec) for d in enumerate_dnas(spec)]
        assert len(seen) == len(set(seen))
        keys = [[int(t) for t in text.split("|")] if text else [] for text in seen]
        assert keys == sorted(keys)


def test_enumerate_continuous_rejected():
    with pytest.raises(ContinuousSpace):
        list(enumerate_dnas(abstract_search_space(floatv(0, 1))))


# -- random sampling ---------------------------------------------------------------

def test_random_dna_deterministic(cond_space):
    spec = abstract_search_space(cond_space)
    a = [random_dna(spec, random.Random(3)) for _ in range(100)]
    b = [random_dna(spec, random.Random(3)) for _ in range(100)]
    assert a == b


def test_random_dna_uniform_over_oneof():
    spec = abstract_search_space(oneof(["a", "b", "c"]))
    rng = random.Random(0)
    n = 100_000
    counts = [0, 0, 0]
    for _ in range(n):
        counts[random_dna(spec, rng).decisions[0][0].index] += 1
    expected = n / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 13.8  # chi-square, 2 dof, p = 0.001


def test_single_distinct_choice_draws_like_sample():
    """A one-of draws with randrange, which returns what ``sample(range(n),
    1)`` returns and leaves the generator in the same state."""
    for n in (1, 2, 3, 7, 50, 560):
        point = CategoricalPoint("x", k=1, n=n, distinct=True, sorted=False)
        for seed in range(300):
            fast, reference = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert random_tuple(point, fast) == reference.sample(range(n), 1)
                assert fast.getstate() == reference.getstate()


def test_random_dna_distinct_sorted_feasible_only():
    spec = abstract_search_space(manyof(2, [0, 1, 2], distinct=True, sorted=True))
    rng = random.Random(1)
    seen = set()
    for _ in range(2000):
        seen.add(tuple(c.index for c in random_dna(spec, rng).decisions[0]))
    assert seen == {(0, 1), (0, 2), (1, 2)}


def test_random_dna_uniform_over_nondistinct_sorted_tuples():
    spec = abstract_search_space(manyof(2, [0, 1, 2], distinct=False, sorted=True))
    rng = random.Random(2)
    counts = {}
    n = 60_000
    for _ in range(n):
        key = tuple(c.index for c in random_dna(spec, rng).decisions[0])
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
    expected = n / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.5  # chi-square, 5 dof, p = 0.001


def test_random_conforms_on_random_spaces(make_generator):
    gen = make_generator(17)
    rng = random.Random(4)
    for _ in range(15):
        space = gen.finite_space(max_size=2000)
        spec = abstract_search_space(space)
        for _ in range(30):
            validate_dna(random_dna(spec, rng), spec)


def test_minimal_dna_is_first_enumerated(make_generator):
    gen = make_generator(41)
    for _ in range(10):
        space = gen.finite_space(max_size=400)
        spec = abstract_search_space(space)
        assert minimal_dna(spec) == next(enumerate_dnas(spec))


# -- filtering, splitting, merging ----------------------------------------------

def test_filter_spec_drops_nested_under_unselected():
    space = oneof([oneof([1, 2], hints="inner"), 3], hints="outer")
    spec = abstract_search_space(space)
    only_inner = filter_spec(spec, lambda p: p.hints == "inner")
    assert only_inner.is_empty  # unreachable under an unselected parent
    only_outer = filter_spec(spec, lambda p: p.hints == "outer")
    assert len(only_outer.points) == 1
    assert only_outer.points[0].subspaces == [[], []]


def test_split_merge_roundtrip(make_generator):
    gen = make_generator(8, with_hints=True)
    rng = random.Random(12)
    selectors = [
        lambda p: p.hints == "a",
        lambda p: p.hints == "b",
        lambda p: p.hints in ("a", "b"),
        lambda p: isinstance(p, CategoricalPoint),
        lambda p: isinstance(p, IntPoint),
        lambda p: True,
        lambda p: False,
    ]
    for _ in range(40):
        space = gen.finite_space(max_size=2000)
        spec = abstract_search_space(space)
        dna = random_dna(spec, rng)
        for selector in selectors:
            selected, complement = split_dna(spec, dna, selector)
            validate_dna(selected, filter_spec(spec, selector))
            assert merge_dna(spec, selector, selected, complement) == dna


@pytest.mark.parametrize("selected, complement, reason", [
    ([[Choice(0, [5])]], [1], "extra selected decisions"),  # a child under an empty subspace
    ([[Choice(1, [])], 0], [1], "extra selected decisions"),
    ([[Choice(1, [])]], [1, 2], "extra complement decisions"),
    ([[Choice(1, [])]], [], "do not match the partition"),
    ([], [1], "do not match the partition"),
])
def test_merge_refuses_halves_that_do_not_fit_the_partition(selected, complement, reason):
    """A merge plan refuses extra selected decisions as it compiles and a
    complement of the wrong length as it merges, as :func:`merge_dna` does;
    :func:`condition_spec` refuses the same selections with the same text
    and returns the spec of any other."""
    spec = abstract_search_space(ss.Sequence([oneof([1, 2]), intv(0, 3)]))
    select = lambda p: isinstance(p, CategoricalPoint)
    with pytest.raises(NonconformingDNA, match=reason) as refused:
        merge_dna(spec, select, DNA(selected), DNA(complement))
    with pytest.raises(NonconformingDNA) as planned:
        _, merge = _merge_plan(spec, select, DNA(selected))
        merge(DNA(complement), "|".join(map(str, complement)))
    assert str(planned.value) == str(refused.value)
    if selected == [[Choice(1, [])]]:  # the selection fits; the complement does not
        assert condition_spec(spec, select, DNA(selected)) == DecisionSpec(spec.points[1:])
    else:
        with pytest.raises(NonconformingDNA) as conditioned:
            condition_spec(spec, select, DNA(selected))
        assert str(conditioned.value) == str(refused.value)


@pytest.mark.parametrize("decisions", [
    [],
    [[Choice(0, [1])]],
    [[Choice(0, [1])], 2, 3],
    [[Choice(0, [])], 2],
], ids=["empty", "too-short", "too-long", "missing-children"])
def test_split_refuses_a_dna_that_does_not_conform(decisions):
    """:func:`split_dna` checks its DNA, so it drops no decision and makes
    no half from a DNA that is short of one."""
    spec = abstract_search_space(ss.Sequence([oneof([intv(0, 3), 2]), intv(0, 3)]))
    select = lambda p: isinstance(p, CategoricalPoint)
    assert split_dna(spec, DNA([[Choice(0, [1])], 2]), select) == (DNA([[Choice(0, [])]]),
                                                                     DNA([1, 2]))
    with pytest.raises(NonconformingDNA):
        split_dna(spec, DNA(decisions), select)


def test_isomorphic_ignores_ids():
    a = abstract_search_space(ss.Mapping({"x": oneof([1, 2]), "y": intv(0, 3)}))
    b = abstract_search_space(ss.Sequence([oneof([5, 6]), intv(0, 3)]))
    assert isomorphic(a, b)
    c = abstract_search_space(ss.Sequence([oneof([5, 6, 7]), intv(0, 3)]))
    assert not isomorphic(a, c)


def iso_space(k=2, candidates=(intv(0, 3), 1, 2), distinct=True, sorted=False, hints="op",
              last=intv(1, 4)):
    return abstract_search_space(ss.Sequence([
        manyof(k, list(candidates), distinct=distinct, sorted=sorted, hints=hints), last]))


@pytest.mark.parametrize("changes", [
    {"last": floatv(1, 4)},
    {"k": 3},
    {"candidates": (intv(0, 3), 1, 2, 3)},
    {"distinct": False},
    {"sorted": True},
    {"last": intv(0, 4)},
    {"last": intv(1, 5)},
    {"hints": None},
    {"candidates": (1, intv(0, 3), 2)},
], ids=["kind", "k", "n", "distinct", "sorted", "min", "max", "hints", "nesting"])
def test_isomorphic_is_false_for_each_single_difference(changes):
    """Same shape means the same table-file rendering, ids aside."""
    assert isomorphic(iso_space(), iso_space())
    assert not isomorphic(iso_space(), iso_space(**changes))
    assert not isomorphic(iso_space(**changes), iso_space())
