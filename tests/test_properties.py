"""Tree, materialization and DNA invariants as properties over generated
spaces."""

from __future__ import annotations

import gc
import json
import random
import weakref
import zlib
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

import symsearch as ss
from conftest import HOLDERS, SpaceGenerator, seeded_spaces
from symsearch import algorithms
from symsearch.algorithms import RegularizedEvolution, _resample, mutate
from symsearch.decisions import (
    DNA,
    CategoricalPoint,
    Choice,
    FloatPoint,
    IntPoint,
    _merge_plan,
    abstract_search_space,
    condition_spec,
    decode_dna,
    encode_dna,
    enumerate_dnas,
    filter_spec,
    iter_all_points,
    merge_dna,
    minimal_dna,
    random_dna,
    split_dna,
)
from symsearch.eager import eager_floatv, eager_intv, eager_oneof, eager_problem
from symsearch.errors import ConstraintViolation, EmptyCandidates, KTooLarge, NonconformingDNA
from symsearch.flows import run_joint
from symsearch.hyper import (Categorical, FloatRange, IntRange, _tuple_weight, floatv, intv,
                             manyof, oneof)
from symsearch.materialize import infer_dna, materialize, materialize_partial
from symsearch.paths import KeyPath
from symsearch.serialization import isomorphic, spec_from_json_obj, spec_to_json_obj
from symsearch.values import HyperValue, ObjectNode, Primitive, path_of

SELECTORS = {
    "hint a": lambda p: p.hints == "a",
    "hint b": lambda p: p.hints == "b",
    "categorical": lambda p: isinstance(p, CategoricalPoint),
    "range": lambda p: not isinstance(p, CategoricalPoint),
}


def assert_fresh_tree(tree, space):
    """`tree` shares no node with `space`, and every node's parent chain is
    consistent and ends at the root of `tree`."""
    space_nodes = {id(node) for _, node in ss.walk(space)}
    for _, node in ss.walk(tree):
        assert id(node) not in space_nodes
        top = node
        while top._parent is not None:
            link, segment = top._parent
            parent = link()
            assert parent.get_child(segment) is top
            top = parent
        assert top is tree


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_hints=True, with_types=True),
       rng=st.randoms(use_true_random=False),
       selector=st.sampled_from(sorted(SELECTORS)))
def test_materialize_is_valid_decomposable_and_fresh(space, rng, selector):
    spec = abstract_search_space(space)
    dna = random_dna(spec, rng)
    child = materialize(space, dna)
    ss.validate_tree(child)
    assert ss.is_deterministic(child)
    assert_fresh_tree(child, space)

    select = SELECTORS[selector]
    if filter_spec(spec, select).is_empty:
        return
    selected, complement = split_dna(spec, dna, select)
    sub_space = materialize_partial(space, selected, select)
    assert_fresh_tree(sub_space, space)
    assert ss.equal(materialize(sub_space, complement), child)


def assert_freed_when_dropped(make):
    """The tree `make()` returns is freed by reference counting alone as soon
    as it is dropped, its root and a deepest parent both: it holds no
    reference cycle, so the cyclic collector (off here) has nothing to find.
    A leaf is no weak reference target, and holds nothing but a weak link."""
    gc.disable()
    try:
        tree = make()
        parents = [node for _, node in ss.walk(tree) if hasattr(node, "__weakref__")]
        deepest = max(parents, key=lambda node: len(ss.path_of(node).segments), default=None)
        refs = [weakref.ref(node) for node in (tree, deepest) if hasattr(node, "__weakref__")]
        del tree, deepest, parents
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rng=st.randoms(use_true_random=False),
       selector=st.sampled_from(sorted(SELECTORS)))
def test_no_route_that_makes_a_tree_leaves_cyclic_garbage(seed, rng, selector):
    """Constructors (the generator behind `seeded_spaces`), clone,
    materialize, materialize_partial, both forms of rebind and deserialize
    each make a tree that dropping frees at once."""
    generate = lambda: SpaceGenerator(random.Random(seed), with_hints=True, with_types=True).space()
    space = generate()
    spec = abstract_search_space(space)
    dna = random_dna(spec, rng)
    select = SELECTORS[selector]
    selected = split_dna(spec, dna, select)[0] if not filter_spec(spec, select).is_empty else DNA([])
    wrapper = ss.Mapping({"tree": space.clone(), "x": 0})
    for make in (generate, space.clone, lambda: materialize(space, dna),
                 lambda: materialize_partial(space, selected, select),
                 lambda: ss.rebind(wrapper, {"x": 1}),
                 lambda: ss.rebind(wrapper, lambda path, value, parent: 1 if path == "x" else None),
                 lambda: ss.deserialize(ss.serialize(space), HOLDERS)):
        assert_freed_when_dropped(make)


def substituted(node, points, decisions, select):
    """`node` with its `select`-ed hyper values substituted, each node rebuilt
    through ``_copy(replaced)`` around its substituted children and each leaf
    made by ``Primitive``: the reference the compiled builders must match.
    `points` (this level of the spec) and `decisions` (the selected ones)
    are iterators in pre-order."""
    if isinstance(node, HyperValue):
        point = next(points)
        if not select(point):
            return node._copy()
        if isinstance(point, FloatPoint):
            return Primitive(float(next(decisions)))
        if not isinstance(node, Categorical):
            return Primitive(next(decisions))
        parts = [substituted(node.candidates[choice.index], iter(point.subspaces[choice.index]),
                             iter(choice.children), select)
                 for choice in next(decisions)]
        return parts[0] if node.k == 1 else ss.Sequence(parts)
    return node._copy({key: substituted(child, points, decisions, select)
                       for key, child in node.child_items()})


def assert_same_nodes(built, expected):
    """`built` equals `expected` node for node: the same class at every
    position, objects sharing their ``type_def`` object, leaves of the same
    Python type."""
    assert ss.equal(built, expected)
    pairs = [(built, expected)]
    while pairs:
        a, b = pairs.pop()
        assert type(a) is type(b)
        if isinstance(a, ObjectNode):
            assert a.type_def is b.type_def
        if isinstance(a, Primitive):
            assert type(a.value) is type(b.value)
        items_a, items_b = list(a.child_items()), list(b.child_items())
        assert [key for key, _ in items_a] == [key for key, _ in items_b]
        pairs.extend((x, y) for (_, x), (_, y) in zip(items_a, items_b))


@settings(max_examples=100, deadline=None)
@given(spaces=st.lists(seeded_spaces(with_hints=True, with_types=True), min_size=2, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1), integral=st.booleans())
def test_builders_equal_the_substitution_through_copy(spaces, seed, integral):
    """Full and partial materialization build what substitution through
    ``_copy(replaced)`` builds.  Spaces A, B, A take turns and the selector
    changes every few calls, so the one-entry plan cache recompiles, while
    the calls in between reuse a plan that compiled every candidate.
    With `integral`, the top-level float decision is an int."""
    rng = random.Random(seed)
    first, second = (with_tuples(space) for space in spaces)
    for space in (first, second, first):
        spec = abstract_search_space(space)
        for selector in [None, *sorted(SELECTORS)]:
            select = SELECTORS.get(selector, lambda point: True)
            for _ in range(3):
                dna = random_dna(spec, rng)
                if integral:
                    dna.decisions[-3] = round(dna.decisions[-3])
                if selector is None:
                    built = materialize(space, dna)
                else:
                    dna = split_dna(spec, dna, select)[0]
                    built = materialize_partial(space, dna, select)
                assert built._parent is None
                assert_same_nodes(built, substituted(space, iter(spec.points),
                                                     iter(dna.decisions), select))
                assert_fresh_tree(built, space)


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_types=True))
def test_accepted_hyper_values_materialize_into_valid_children(space):
    """Every child of a space whose objects accepted their hyper values is
    valid: acceptance is the only check a child needs."""
    assume(ss.space_size(space) <= 100)
    for dna in enumerate_dnas(abstract_search_space(space)):
        ss.validate_tree(materialize(space, dna))


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       selector=st.sampled_from(sorted(SELECTORS)))
def test_merge_inverts_split(space, seed, selector):
    spec = abstract_search_space(space)
    select = SELECTORS[selector]
    dna = random_dna(spec, random.Random(seed))
    assert merge_dna(spec, select, *split_dna(spec, dna, select)) == dna


def with_floats(space):
    """`space` followed by a float point and a float nested in a candidate,
    hinted so that every selector leaves a float on each side of its
    partition."""
    return ss.Sequence([space, floatv(0.0, 1.0, hints="a"),
                        oneof([floatv(0.0, 2.0, hints="b"), 1], hints="a")])


def with_counted(space):
    """`space` followed, once per hint, by a categorical whose candidates
    hold 2 decisions or none between two points of the other hint; so under
    every selector but "categorical" a complement categorical whose token
    count varies sits between fixed tokens."""
    def counted(outer, inner):
        return [intv(0, 1, hints=outer),
                oneof([ss.Sequence([intv(0, 3), intv(0, 3)]), 1], hints=inner),
                intv(0, 1, hints=outer)]
    return ss.Sequence([space, *counted("a", "b"), *counted("b", "a")])


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       selector=st.sampled_from(sorted(SELECTORS)), with_float=st.booleans(),
       integral=st.booleans(), counted=st.booleans())
def test_merge_plan_splices_the_complement_text(space, seed, selector, with_float, integral,
                                                counted):
    """A plan compiled from one selection merges each complement of it, fed
    with its canonical text, into the DNA that splits into the two halves,
    and returns that DNA's canonical text.  With `integral`, the top-level
    float decision is an int, which a float token still spells as a float."""
    space = with_counted(space) if counted else space
    spec = abstract_search_space(with_floats(space) if with_float else space)
    select = SELECTORS[selector]
    rng = random.Random(seed)
    dna = random_dna(spec, rng)
    if with_float and integral:
        dna.decisions[-2] = round(dna.decisions[-2])
    selected, complement = split_dna(spec, dna, select)
    rest, merge = _merge_plan(spec, select, selected)
    assert rest == condition_spec(spec, select, selected)
    complements = [complement] + [random_dna(rest, rng) for _ in range(3)]
    merges = [merge(c, encode_dna(c, rest)) for c in complements]  # none may change another
    assert merges[0] == (dna, encode_dna(dna, spec))
    for complement, (merged, text) in zip(complements, merges):
        assert split_dna(spec, merged, select) == (selected, complement)
        assert text == encode_dna(merged, spec)


def reference_points(node) -> list:
    """The decision points of `node` as extraction first made them: each id
    rendered by walking up from its hyper value to the root."""
    if isinstance(node, Categorical):
        return [CategoricalPoint(path_of(node).render(), node.k, node.num_candidates,
                                 node.distinct, node.sorted,
                                 [reference_points(c) for c in node.candidates], node.hints)]
    if isinstance(node, (IntRange, FloatRange)):
        point = IntPoint if isinstance(node, IntRange) else FloatPoint
        return [point(path_of(node).render(), node.min, node.max, node.hints)]
    return [p for _, child in node.child_items() for p in reference_points(child)]


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_hints=True, with_types=True), key=st.sampled_from(["k", 0]))
def test_extracted_ids_are_the_rendered_paths(space, key):
    """Each point id is its hyper value's rendered path, also when the space
    is a subtree of a larger tree, whose ids start with the subtree's path."""
    assert abstract_search_space(space).points == reference_points(space)
    outer = ss.Mapping({"outer": ss.Sequence([ss.Mapping({key: space}) if key == "k" else space,
                                              intv(0, 1)])})
    subtree = outer["outer"][0]
    points = abstract_search_space(subtree).points
    assert points == reference_points(subtree)
    assert all(point.id.startswith("outer[0]") for point in iter_all_points(points))


def reference_mutate(dna, spec, rng):
    """Single-point mutation through a list of every active site, as
    ``mutate`` was first written; returns the mutated DNA and the chosen
    point."""
    def active_sites(points, decisions, location, out):
        for i, (point, decision) in enumerate(zip(points, decisions)):
            out.append((point, decision, location + ((i, None),)))
            if isinstance(point, CategoricalPoint):
                for slot, choice in enumerate(decision):
                    active_sites(point.subspaces[choice.index], choice.children,
                                 location + ((i, slot),), out)

    def replace_at(points, decisions, location, new_decision):
        (index, slot), rest = location[0], location[1:]
        decisions = list(decisions)
        if not rest:
            decisions[index] = new_decision
            return decisions
        choices = list(decisions[index])
        choice = choices[slot]
        children = replace_at(points[index].subspaces[choice.index], choice.children, rest,
                              new_decision)
        choices[slot] = Choice(choice.index, children)
        decisions[index] = choices
        return decisions

    sites = []
    active_sites(spec.points, dna.decisions, (), sites)
    if not sites:
        return dna, None
    point, decision, location = sites[rng.randrange(len(sites))]
    new_decision = _resample(point, decision, rng)
    if new_decision is decision:
        return dna, point
    return DNA(replace_at(spec.points, dna.decisions, location, new_decision)), point


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       with_float=st.booleans())
def test_mutate_conforms_moves_and_matches_the_site_list_reference(space, seed, with_float):
    """Every output encodes against the spec and differs from its input
    unless the chosen point has one feasible value.  It is the reference's
    DNA, and it leaves the rng in the same state."""
    spec = abstract_search_space(with_floats(space) if with_float else space)
    rng = random.Random(seed)
    dna = random_dna(spec, rng)
    reference_rng = random.Random()
    reference_rng.setstate(rng.getstate())
    mutated = mutate(dna, spec, rng)
    expected, point = reference_mutate(dna, spec, reference_rng)
    assert mutated == expected and (mutated is dna) == (expected is dna)
    assert rng.getstate() == reference_rng.getstate()
    encode_dna(mutated, spec)
    if point is not None:
        if isinstance(point, CategoricalPoint):
            single = _tuple_weight([1] * point.n, point.k, point.distinct,
                                   point.sorted) == 1
        else:
            single = point.min == point.max
        assert (mutated == dna) == single


def with_tuples(space):
    """`with_floats(space)` followed by a k=2 categorical whose candidates
    hold an int, a float and nothing."""
    return ss.Sequence([with_floats(space),
                        manyof(2, [ss.Sequence([0, intv(0, 3)]), floatv(0.0, 1.0), 5],
                               distinct=False)])


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       extended=st.booleans(), integral=st.booleans())
def test_mutate_splices_the_text_of_the_child_into_the_tokens(space, seed, extended, integral):
    """Given its DNA's tokens, ``mutate`` makes the same child and leaves
    the rng in the same state, and the tokens become the child's text.  With
    `integral`, the top-level float decision is an int, which a float token
    spells as a float."""
    spec = abstract_search_space(with_tuples(space) if extended else space)
    rng = random.Random(seed)
    dna = random_dna(spec, rng)
    if extended and integral:
        dna.decisions[-3] = round(dna.decisions[-3])
    plain_rng = random.Random()
    plain_rng.setstate(rng.getstate())
    tokens = encode_dna(dna, spec).split("|")
    child = mutate(dna, spec, rng, tokens=tokens)
    plain = mutate(dna, spec, plain_rng)
    assert child == plain and (child is dna) == (plain is dna)
    assert rng.getstate() == plain_rng.getstate()
    assert "|".join(tokens) == encode_dna(child, spec)


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       extended=st.booleans())
def test_random_dna_writes_its_text_as_it_draws(space, seed, extended):
    """Given tokens, ``random_dna`` draws the same DNA and leaves the rng in
    the same state, and the tokens join into the DNA's text."""
    spec = abstract_search_space(with_tuples(space) if extended else space)
    rng, plain_rng = random.Random(seed), random.Random(seed)
    tokens = []
    dna = random_dna(spec, rng, tokens)
    assert dna == random_dna(spec, plain_rng)
    assert rng.getstate() == plain_rng.getstate()
    assert "|".join(tokens) == encode_dna(dna, spec)


class CountsChecked(RegularizedEvolution):
    """Regularized evolution that checks, after every feedback, that each
    member's carried count of active decisions is a fresh walk's."""

    def _feedback(self, dna, text, reward):
        super()._feedback(dna, text, reward)
        assert all(active == algorithms._count_active(self.spec.points, member.decisions)
                   for _, member, _, _, active in self.population)


def with_singletons(space):
    """`with_tuples(space)` followed by an int and a one-of that each have
    one feasible value, so that many mutations keep their parent."""
    return ss.Sequence([with_tuples(space), intv(5, 5), oneof([ss.Sequence([1, intv(0, 2)])])])


@settings(max_examples=100, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1))
def test_regularized_evolution_carries_each_members_active_count(space, seed):
    """Through proposals that mutate or keep their parent, seeded DNAs and
    proposals fed back out of order, every carried count equals a walk's."""
    spec = abstract_search_space(with_singletons(space))
    rng = random.Random(seed)
    algo = CountsChecked(3, 2, seed=seed).setup(spec)
    for _ in range(30):
        move = rng.randrange(3)
        if move == 0:
            algo.seed_feedback(random_dna(spec, rng), rng.random())
        elif move == 1:
            proposals = [algo.propose() for _ in range(3)]
            for dna in reversed(proposals):
                algo.feedback(dna, rng.random())
        else:
            algo.feedback(algo.propose(), rng.random())


@settings(max_examples=50, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       selector=st.sampled_from(["categorical", "range"]))
def test_a_hybrid_resume_carries_each_members_active_count(space, seed, selector):
    """The inner algorithm that phase 2 resumes keeps carrying its members'
    counts."""
    spec = abstract_search_space(with_singletons(space))
    checked = lambda trials: ss.SearchLoop(lambda s: CountsChecked(3, 2, seed=s), trials, seed)
    report = ss.run_hybrid(spec, SELECTORS[selector], checked(2), checked(4), 8,
                           lambda child, dna: zlib.crc32(encode_dna(dna, spec).encode()))
    assert report.oracle_calls == 2 * 4 + 8


@settings(max_examples=100, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       with_float=st.booleans())
def test_a_mutation_checks_its_resampled_decision(space, seed, with_float):
    """A mutated decision outside its point's range stops the joint flow
    before the oracle sees it, naming that point."""
    spec = abstract_search_space(with_floats(space) if with_float else space)
    assume(not spec.is_empty)
    resampled = []

    def resample(point, decision, rng):  # leaves the point's range
        resampled.append(point)
        if isinstance(point, CategoricalPoint):
            return [Choice(point.n) for _ in range(point.k)]
        return point.max + 1

    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithms, "_resample", resample)
        with pytest.raises(NonconformingDNA) as caught:
            run_joint(spec, RegularizedEvolution(1, 1, seed=seed),
                      lambda child, dna: calls.append(dna) or 0.0, 2)
    assert len(calls) == 1 and len(resampled) == 1
    assert caught.value.point_id == resampled[0].id


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       selector=st.sampled_from(sorted(SELECTORS)))
def test_conditioned_spec_is_the_spec_of_the_partial_space(space, seed, selector):
    spec = abstract_search_space(space)
    select = SELECTORS[selector]
    assume(not filter_spec(spec, select).is_empty)
    selected, _ = split_dna(spec, random_dna(spec, random.Random(seed)), select)
    sub_space = materialize_partial(space, selected, select)
    assert isomorphic(condition_spec(spec, select, selected), abstract_search_space(sub_space))


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       with_float=st.booleans())
def test_encode_decode_round_trip(space, seed, with_float):
    """DNA text round-trips, and so does the spec through its JSON text: the
    stored spec equals the spec, ids included, and reads every DNA alike."""
    if with_float:
        space = ss.Sequence([space, floatv(0.0, 1.0)])
    spec = abstract_search_space(space)
    stored = spec_from_json_obj(json.loads(json.dumps(spec_to_json_obj(spec))))
    assert stored == spec
    rng = random.Random(seed)
    dna = random_dna(spec, rng)
    for candidate in (dna, mutate(dna, spec, rng)):
        text = encode_dna(candidate, spec)
        assert decode_dna(text, spec) == candidate
        assert encode_dna(candidate, stored) == text and decode_dna(text, stored) == candidate


def corruptions(points, decisions, enclosing):
    """Every way to break one decision of a conforming DNA, pre-order, as
    (kind, edit, point id, start of the reason); edit() changes the DNA in
    place.  A wrong count of decisions is blamed on `enclosing`: the
    categorical whose choice holds them, or "<root>" outside any."""
    counted = (enclosing, f"expected {len(points)} decisions, got ")
    yield "count", (lambda: decisions.append(0)), *counted
    if decisions:
        yield "count", decisions.pop, *counted
    for i, (point, decision) in enumerate(zip(points, decisions)):
        def put(value, i=i):
            return lambda: decisions.__setitem__(i, value)

        def outside(value, point=point):
            return put(value), point.id, f"{value} outside [{point.min}, {point.max}]"

        if isinstance(point, IntPoint):
            yield "int", put(True), point.id, "expected an int, got True"
            yield "int", put(float(point.min)), point.id, "expected an int, got "
            yield "int", *outside(point.min - 1)
            yield "int", *outside(point.max + 1)
            continue
        if isinstance(point, FloatPoint):
            yield "float", put("x"), point.id, "expected a float, got 'x'"
            yield "float", *outside(point.max + 1.0)
            yield "float", *outside(point.min - 1.0)
            continue
        listed = (point.id, f"expected a list of {point.k} choices, got ")
        yield "list", put(tuple(decision)), *listed
        yield "list", put(decision + [decision[0]]), *listed
        yield "list", put(decision[:-1]), *listed
        for slot, choice in enumerate(decision):
            def reindex(index, choice=choice):
                return lambda: setattr(choice, "index", index)

            def unchoose(decision=decision, slot=slot):
                decision[slot] = decision[slot].index

            yield "choice", unchoose, point.id, "expected a choice, got "
            for index in (True, -1, point.n):
                yield "index", reindex(index), point.id, f"index {index!r} outside [0, {point.n})"
        rule = f"(distinct={point.distinct}, sorted={point.sorted})"
        if point.distinct and point.k > 1:
            first = decision[0].index
            yield ("distinct", reindex(first, decision[1]), point.id,
                   f"index {first} may not follow [{first}] {rule}")
        if point.sorted and point.k > 1:
            def descend(choices=decision[:2], n=point.n):
                choices[0].index, choices[1].index = n - 1, n - 2
            yield ("sorted", descend, point.id,
                   f"index {point.n - 2} may not follow [{point.n - 1}] {rule}")
        # A categorical's own checks run before its children's: a broken
        # last choice is reported although the first one lost its children.
        if point.subspaces[decision[0].index]:
            def both(first=decision[0], last=decision[-1], n=point.n):
                first.children = []
                last.index = n
            yield "order", both, point.id, f"index {point.n} outside [0, {point.n})"
        for choice in decision:
            yield from corruptions(point.subspaces[choice.index], choice.children, point.id)


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_hints=True), seed=st.integers(0, 2 ** 32 - 1),
       with_float=st.booleans(), pick=st.integers(0, 2 ** 16))
def test_encode_names_the_point_of_a_corrupted_decision(space, seed, with_float, pick):
    """Each kind of corruption the DNA admits is drawn equally often."""
    if with_float:
        space = ss.Sequence([space, floatv(0.0, 1.0)])
    spec = abstract_search_space(space)
    dna = random_dna(spec, random.Random(seed))
    cases = list(corruptions(spec.points, dna.decisions, "<root>"))
    kinds = sorted({case[0] for case in cases})
    group = [case for case in cases if case[0] == kinds[pick % len(kinds)]]
    _, edit, point_id, reason = group[pick // len(kinds) % len(group)]
    edit()
    with pytest.raises(NonconformingDNA) as caught:
        encode_dna(dna, spec)
    assert caught.value.point_id == point_id
    assert caught.value.reason.startswith(reason)


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces())
def test_space_size_equals_enumeration_count(space):
    size = ss.space_size(space)
    assume(size <= 500)
    assert sum(1 for _ in enumerate_dnas(abstract_search_space(space))) == size


def int_leaves(tree) -> dict:
    """{rendered path: value} of every int primitive in `tree`."""
    return {path.render(): node.value for path, node in ss.walk(tree)
            if isinstance(node, Primitive) and type(node.value) is int}


def bump_ints(path, value, parent):
    if isinstance(value, Primitive) and type(value.value) is int:
        return value.value + 1
    return value


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_types=True))
def test_query_sees_the_walk(space):
    walked = list(ss.walk(space))
    found = ss.query(space, ".*")
    assert list(found) == [path.render() for path, _ in walked]
    assert all(found[path.render()] is node for path, node in walked)
    for path, node in walked:
        assert ss.get(space, path.render()) is node
        assert KeyPath.parse(path.render()) == path
        assert ss.path_of(node) == path
    seen = []
    ss.query(space, lambda path, value, parent: seen.append((path, value, parent)))
    assert seen == [(path.render(), node, ss.parent_of(node)) for path, node in walked]


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_types=True))
def test_transform_equals_set_edits_and_copies(space):
    leaves = int_leaves(space)
    before = ss.serialize(space)
    bumped = ss.rebind(space, bump_ints)
    assert ss.equal(bumped, ss.rebind(space, {path: value + 1 for path, value in leaves.items()}))
    assert_fresh_tree(bumped, space)
    assert ss.serialize(space) == before


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_types=True))
def test_clone_is_equal_and_fresh(space):
    copy = ss.clone(space)
    assert ss.equal(copy, space)
    assert_fresh_tree(copy, space)


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_types=True), rng=st.randoms(use_true_random=False))
def test_serialize_and_infer_dna_round_trip(space, rng):
    spec = abstract_search_space(space)
    dna = random_dna(spec, rng)
    child = materialize(space, dna)
    for tree in (space, child):
        assert ss.deserialize(ss.serialize(tree), HOLDERS) == tree
    assert encode_dna(infer_dna(space, child), spec) == encode_dna(dna, spec)
    assert materialize(space, infer_dna(space, child)) == child


def plain(tree):
    """``tree.to_plain()`` carried into objects and categoricals, so that a
    plan can reach below them: each becomes (tag, {key: plain child})."""
    if isinstance(tree, ObjectNode):
        return tree.type_name, {key: plain(child) for key, child in tree.child_items()}
    if isinstance(tree, Categorical):
        tag = (tree.k, tree.distinct, tree.sorted, tree.hints)
        return tag, {"candidates": plain(tree.candidates)}
    if isinstance(tree, ss.Sequence):
        return [plain(child) for child in tree]
    if isinstance(tree, ss.Mapping):
        return {key: plain(child) for key, child in tree.items()}
    return tree.to_plain()


def planned(value, plan, here=()):
    """The plain `value` at segments `here` with the edits of `plan` at and
    below it applied: a Set replaces the whole subtree (edits under it are
    lost), and list directives address the original indices."""
    directive = plan.get(here)
    if isinstance(directive, ss.Set):
        return plain(ss.to_symbolic(directive.value))
    if isinstance(value, tuple):
        tag, fields = value
        return tag, planned(fields, plan, here)
    if isinstance(value, dict):
        return {key: planned(child, plan, here + (key,)) for key, child in value.items()
                if not isinstance(plan.get(here + (key,)), ss.Delete)}
    if isinstance(value, list):
        edited = []
        for i in range(len(value) + 1):
            path = here + (i,)
            if isinstance(plan.get(path), ss.Insert):
                edited.append(plain(ss.to_symbolic(plan[path].value)))
            if i < len(value) and not isinstance(plan.get(path), ss.Delete):
                edited.append(planned(value[i], plan, path))
        return edited
    return value


def broken_categorical(value) -> bool:
    """Whether the plain `value` holds a categorical left with no
    candidates, or with fewer than its k when distinct."""
    if isinstance(value, tuple):
        tag, fields = value
        if isinstance(tag, tuple):
            (k, distinct, _, _), candidates = tag, fields["candidates"]
            if not candidates or distinct and k > len(candidates):
                return True
        return broken_categorical(fields)
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return any(broken_categorical(child) for child in children)


def random_plan(space, rng) -> dict:
    """1-4 Set/Insert/Delete edits, keyed by segments, on the children of
    the sequences and mappings of `space`, or a Set of its root.  Values are
    fresh ints, pairs and mappings, or a subtree already in `space`."""
    nodes = [(path.segments, node) for path, node in ss.walk(space)]
    held = [(path + (segment,), kind) for path, node in nodes
            if isinstance(node, (ss.Sequence, ss.Mapping))
            for segment, _ in node.child_items() for kind in (ss.Set, ss.DELETE)]
    held += [(path + (i,), ss.Insert) for path, node in nodes
             if isinstance(node, ss.Sequence) for i in range(len(node) + 1)]
    held += [((), ss.Set)]
    plan = {}
    for _ in range(rng.randint(1, 4)):
        path, kind = rng.choice(held)
        if path in plan:
            continue
        value = rng.choice([lambda: -rng.randrange(100), lambda: [rng.randrange(100)] * 2,
                            lambda: {"k0": rng.randrange(100)}, lambda: rng.choice(nodes)[1]])()
        plan[path] = kind if kind is ss.DELETE else kind(value)
    return plan


@settings(max_examples=200, deadline=None)
@given(space=seeded_spaces(with_types=True), seed=st.integers(0, 2 ** 32 - 1))
def test_rebind_edits_equal_the_plan_on_plain_values(space, seed):
    """A plan either fails a field's check, is refused for leaving a
    categorical without enough candidates, or gives a valid tree."""
    plan = random_plan(space, random.Random(seed))
    before = ss.serialize(space)
    try:
        result = ss.rebind(space, {KeyPath(path).render(): d for path, d in plan.items()})
    except (EmptyCandidates, KTooLarge):
        assert broken_categorical(planned(plain(space), plan))
        assert ss.serialize(space) == before
        return
    except ConstraintViolation:
        return
    ss.validate_tree(result)
    assert plain(result) == planned(plain(space), plan)
    assert ss.serialize(space) == before
    assert_fresh_tree(result, space)


def loop(trials: int, seed: int = 0) -> ss.SearchLoop:
    return ss.SearchLoop(lambda s: ss.RegularizedEvolution(4, 2, seed=s), trials, seed)


FLOWS = {
    "joint": lambda problem, select, pivot, reward: ss.run_joint(
        problem, ss.RegularizedEvolution(4, 2, seed=3), reward, 12, seed=3),
    "separate": lambda problem, select, pivot, reward: ss.run_separate(
        problem, select, pivot, loop(5), loop(4, seed=1), reward),
    "factorized": lambda problem, select, pivot, reward: ss.run_factorized(
        problem, select, loop(3), loop(4), reward),
    "hybrid": lambda problem, select, pivot, reward: ss.run_hybrid(
        problem, select, loop(3), loop(4), 5, reward),
}


@settings(max_examples=100, deadline=None)
@given(space=seeded_spaces(with_hints=True, with_types=True), flow=st.sampled_from(sorted(FLOWS)),
       selector=st.sampled_from(sorted(SELECTORS)))
def test_flows_give_the_same_records_over_the_spec_and_the_space(space, flow, selector):
    """A flow given the spec calls the oracle with no child; given the space,
    with the child its full-space DNA describes.  Under a reward that reads
    only the DNA, both give the same records, or fail alike."""
    spec = abstract_search_space(space)
    assume(not spec.is_empty)

    def reward(child, dna):
        return zlib.crc32(encode_dna(dna, spec).encode()) / 2 ** 32

    def spec_reward(child, dna):
        assert child is None
        return reward(child, dna)

    def space_reward(child, dna):
        assert child == materialize(space, dna)
        return reward(child, dna)

    def outcome(problem, pivot, oracle):
        try:
            report = FLOWS[flow](problem, SELECTORS[selector], pivot, oracle)
        except ss.SymsearchError as exc:
            return type(exc)
        return [record.to_json_obj() for record in report.records]

    pivot = minimal_dna(spec)
    expected = outcome(spec, pivot, spec_reward)
    assert outcome(space, pivot, space_reward) == expected
    assert outcome(space, materialize(space, pivot), space_reward) == expected


def eager_replay(node, tokens: list):
    """A function that makes the decisions of `node`, a space of one-ofs,
    ints and floats, with the eager calls: in the pre-order of its spec, with
    the same hints, every candidate passed as a thunk.  It appends the
    canonical token of each decision it makes to `tokens`."""
    if isinstance(node, Categorical):
        branches = [partial(eager_branch, str(index), eager_replay(candidate, tokens), tokens)
                    for index, candidate in enumerate(node.candidates)]
        return lambda: eager_oneof(branches, hints=node.hints)
    if isinstance(node, IntRange):
        return lambda: tokens.append(str(eager_intv(node.min, node.max, node.hints)))
    if isinstance(node, FloatRange):
        return lambda: tokens.append(repr(eager_floatv(node.min, node.max, node.hints)))
    parts = [eager_replay(child, tokens) for _, child in node.child_items()]
    return lambda: [part() for part in parts]


def eager_branch(token: str, replay, tokens: list):
    tokens.append(token)
    replay()


def nested_selected(points, select) -> bool:
    """Whether every point nested under a selected point is selected."""
    return all(select(nested) for point in iter_all_points(points)
               if select(point) and isinstance(point, CategoricalPoint)
               for subspace in point.subspaces for nested in iter_all_points(subspace))


@settings(max_examples=100, deadline=None)
@given(space=seeded_spaces(with_hints=True, only_oneof=True),
       selector=st.sampled_from(sorted(SELECTORS)))
def test_an_eager_replay_of_a_space_is_the_same_search_problem(space, selector):
    """The paper's claim that a define-by-run program and its symbolic space
    are one search problem: the replay's spec is isomorphic, and every flow
    gives the same records when the symbolic reward reads the DNA's text and
    the program returns the same value from the decisions it made."""
    space = with_floats(space)
    spec = abstract_search_space(space)
    text_reward = lambda text: zlib.crc32(text.encode()) / 2 ** 32
    tokens = []
    replay = eager_replay(space, tokens)

    def program():
        tokens.clear()
        replay()
        return text_reward("|".join(tokens))

    eager_spec, eager_reward = eager_problem(program)
    assert isomorphic(eager_spec, spec)
    select, pivot = SELECTORS[selector], minimal_dna(spec)

    def outcome(flow, problem, oracle):
        try:
            report = FLOWS[flow](problem, select, pivot, oracle)
        except ss.SymsearchError as exc:
            return type(exc)
        return [record.to_json_obj() for record in report.records]

    for flow in sorted(FLOWS):
        if flow == "separate" and not nested_selected(spec.points, select):
            continue
        expected = outcome(flow, space, lambda child, dna: text_reward(encode_dna(dna, spec)))
        assert outcome(flow, eager_spec, eager_reward) == expected
