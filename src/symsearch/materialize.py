"""Merging abstract child programs back into concrete programs.

Materialization takes the decisions in pre-order: an int or float decision
becomes the value itself; a categorical decision builds only its chosen
candidates, each with its own child decisions, returning a single result in
place and several as a sequence in chosen order; every other node is
rebuilt around its built children.  Unchosen candidates are never copied.
Partial materialization substitutes only the selected decision points and
copies every other hyper value verbatim, which is how a space splits into a
sub-space and its complement.  Inputs are never mutated.

Full and partial materialization compile the space once, every candidate
included, into a read-only builder and run it for every DNA.  The last
compiled space is cached by identity (with its selector), so a search loop
compiles once.  The builder makes each node directly and attaches its
children, and an int or float leaf skips the type and finiteness checks of
``Primitive``, which a conforming DNA has passed.  Materialization checks
nothing else: every object in the space checked its fields when it was built
or rebound, and a spec accepts a hyper value only when every materialization
of it would be accepted, so every child is valid.
"""

from __future__ import annotations

import weakref

from .decisions import (
    DNA,
    Choice,
    DecisionSpec,
    FloatPoint,
    Selector,
    _feasible_indices,
    abstract_search_space,
    filter_spec,
    validate_dna,
)
from .errors import NonconformingDNA
from .hyper import Categorical, FloatRange, IntRange
from .values import HyperValue, Mapping, ObjectNode, Primitive, Sequence, SymbolicValue, to_symbolic

_SELECT_ALL: Selector = lambda point: True


def materialize(space, dna: DNA) -> SymbolicValue:
    """Produce the concrete child program a DNA describes.

    The result contains no hyper values and passes full spec validation; the
    input space is left untouched.
    """
    space = to_symbolic(space)
    spec = abstract_search_space(space)
    validate_dna(dna, spec)
    return materialize_prepared(space, spec, dna)


def materialize_prepared(space: SymbolicValue, spec: DecisionSpec, dna: DNA) -> SymbolicValue:
    """Like :func:`materialize` with the extraction reused across calls;
    `spec` must be ``abstract_search_space(space)`` and `dna` must already
    conform to it.  The space is compiled into a builder on the first call
    and the builder is reused while the same space object comes back."""
    return _run_plan(space, spec, _SELECT_ALL, dna)


def materialize_partial(space, dna_subset: DNA, selector: Selector) -> SymbolicValue:
    """Materialize only the selected decision points.

    Unselected hyper values survive verbatim, including those nested under a
    selected categorical's chosen candidates.  A selector matching nothing
    takes ``DNA([])`` and returns a fresh copy of the space.
    """
    space = to_symbolic(space)
    spec = abstract_search_space(space)
    validate_dna(dna_subset, filter_spec(spec, selector))
    return materialize_partial_prepared(space, spec, dna_subset, selector)


def materialize_partial_prepared(space: SymbolicValue, spec: DecisionSpec, dna_subset: DNA,
                                 selector: Selector) -> SymbolicValue:
    """Loop-friendly variant of :func:`materialize_partial`; `spec` must be the
    extraction and `dna_subset` conform to its selector-filtered view."""
    return _run_plan(space, spec, selector, dna_subset)


# The last (space, selector, builder) compiled.  A hit needs the very same
# space and selector objects: held references, never ids (which are reused)
# nor spec equality (equal specs come from spaces with different constants).
_plan = (None, None, None)


def _run_plan(space, spec, selector, dna):
    global _plan
    cached_space, cached_selector, build = _plan
    if cached_space is not space or cached_selector is not selector:
        build = _compile(space, iter(spec.points), selector)
        _plan = (space, selector, build)
    return space._copy() if build is None else build(iter(dna.decisions))


def _compile(node, points, selector):
    """A builder of fresh copies of `node` with its selected hyper values
    substituted, or None when none is selected and ``_copy()`` will do.

    Hyper values meet `points` (their level of the spec) in pre-order.
    ``build(decisions)`` takes the selected decisions in order from the
    `decisions` iterator.  A categorical compiles every candidate with itself,
    so a compiled plan is read-only.  Nodes are made as their kinds' ``_copy``
    makes them, inline: a method call per node costs a sixth of the build.
    """
    if isinstance(node, HyperValue):
        point = next(points)
        if not selector(point):
            return None
        if not isinstance(node, Categorical):
            floating = isinstance(point, FloatPoint)
            def build_leaf(decisions):
                leaf = Primitive.__new__(Primitive)
                leaf._parent = None
                leaf.value = float(next(decisions)) if floating else next(decisions)
                return leaf
            return build_leaf
        builders = [_compile(candidate, iter(subspace), selector)
                    or (lambda decisions, candidate=candidate: candidate._copy())
                    for candidate, subspace in zip(node.candidates, point.subspaces)]
        if node.k == 1:
            def build_one(decisions):
                (choice,) = next(decisions)
                return builders[choice.index](iter(choice.children))
            return build_one
        return lambda decisions: Sequence([builders[choice.index](iter(choice.children))
                                           for choice in next(decisions)])

    plan = [(key, child, _compile(child, points, selector)) for key, child in node.child_items()]
    if all(build is None for _, _, build in plan):
        return None

    listed = isinstance(node, Sequence)
    type_def = node.type_def if isinstance(node, ObjectNode) else None

    def build_node(decisions):
        if listed:
            fresh = Sequence.__new__(Sequence)
            fresh._children = store = [None] * len(plan)
        elif type_def is None:
            fresh = Mapping.__new__(Mapping)
            fresh._entries = store = {}
        else:
            fresh = ObjectNode.__new__(ObjectNode)
            fresh.type_def = type_def
            fresh._fields = store = {}
        fresh._parent = None
        link = weakref.ref(fresh)
        for key, child, build in plan:
            new = child._copy() if build is None else build(decisions)
            new._parent = (link, key)
            store[key] = new
        return fresh
    return build_node


# ---------------------------------------------------------------------------
# Inverse materialization
# ---------------------------------------------------------------------------

def infer_dna(space, program) -> DNA:
    """Recover the DNA that materializes `space` into `program`.

    Candidates are matched structurally in index order, so when several
    candidates could produce the same content the lowest feasible indices
    win.  Raises NonconformingDNA when the program does not belong to the
    space.
    """
    space = to_symbolic(space)
    program = to_symbolic(program)
    decisions = _match_tree(space, program)
    if decisions is None:
        raise NonconformingDNA("<infer>", "program does not match the search space")
    return DNA(decisions)


def _match_tree(space_node, prog_node):
    """Decisions for the hyper values inside `space_node` that make it equal
    `prog_node`, or None."""
    if isinstance(space_node, Categorical):
        return _match_categorical(space_node, prog_node)
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
        return [] if space_node._equals_same_kind(prog_node) else None
    if isinstance(space_node, ObjectNode) and space_node.type_def.type_name != prog_node.type_def.type_name:
        return None
    if isinstance(space_node, Sequence):
        mine, theirs = space_node._children, prog_node._children
        if len(mine) != len(theirs):
            return None
    else:  # keyed children: the same keys, in the same order
        mine, theirs = ((space_node._fields, prog_node._fields) if isinstance(space_node, ObjectNode)
                        else (dict(space_node.child_items()), dict(prog_node.child_items())))
        if list(mine) != list(theirs):
            return None
        mine, theirs = mine.values(), theirs.values()
    decisions = []
    for child_a, child_b in zip(mine, theirs):
        sub = _match_tree(child_a, child_b)
        if sub is None:
            return None
        decisions.extend(sub)
    return decisions


def _match_categorical(node: Categorical, prog):
    if node.k == 1:  # not _assign_slots: that ran tree-edit ×0.94, op_us_p90 ×1.15
        for index, candidate in enumerate(node._candidates._children):
            sub = _match_tree(candidate, prog)
            if sub is not None:
                return [[Choice(index, sub)]]
        return None
    if not isinstance(prog, Sequence) or len(prog._children) != node.k:
        return None
    choices = _assign_slots(node, prog._children, [])
    return None if choices is None else [choices]


def _assign_slots(node: Categorical, parts, prefix):
    """Backtracking assignment of candidates to the k spliced parts under the
    distinct/sorted constraints; lowest feasible indices first."""
    slot = len(prefix)
    if slot == len(parts):
        return []
    for index in _feasible_indices(node.num_candidates, node.distinct, node.sorted, prefix):
        sub = _match_tree(node._candidates._children[index], parts[slot])
        if sub is None:
            continue
        rest = _assign_slots(node, parts, prefix + [index])
        if rest is not None:
            return [Choice(index, sub)] + rest
    return None
