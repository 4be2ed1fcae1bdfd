"""Merging abstract child programs back into concrete programs.

Materialization recursively substitutes every decided hyper value: an int or
float decision becomes the value itself; a categorical decision materializes
each chosen candidate with its own child decisions, splicing a single result
in place and multiple results as a sequence in chosen order.  Partial
materialization substitutes only the selected decision points and preserves
every other hyper value verbatim, which is how a space splits into a
sub-space and its complement.  Inputs are never mutated.
"""

from __future__ import annotations

import logging

from .decisions import (
    DNA,
    Choice,
    DecisionSpec,
    FloatPoint,
    Selector,
    _feasible_indices,
    abstract_search_space,
    filter_spec,
    local_hyper_nodes,
    validate_dna,
)
from .errors import NonconformingDNA
from .hyper import Categorical, FloatRange, IntRange
from .values import (
    ObjectNode,
    Primitive,
    Sequence,
    SymbolicValue,
    clone,
    equal,
    to_symbolic,
    validate_tree,
)

logger = logging.getLogger(__name__)

_SELECT_ALL: Selector = lambda point: True


def materialize(space, dna: DNA) -> SymbolicValue:
    """Produce the concrete child program a DNA describes.

    The result contains no hyper values and passes full spec validation; the
    input space is left untouched.
    """
    space = to_symbolic(space)
    return materialize_prepared(space, abstract_search_space(space), dna)


def materialize_prepared(space: SymbolicValue, spec: DecisionSpec, dna: DNA) -> SymbolicValue:
    """Like :func:`materialize` with the extraction reused across calls;
    `spec` must be ``abstract_search_space(space)``."""
    validate_dna(dna, spec)
    result = _apply_selected(clone(space), spec.points, iter(dna.decisions), _SELECT_ALL)
    validate_tree(result)
    return result


def materialize_partial(space, dna_subset: DNA, selector: Selector) -> SymbolicValue:
    """Materialize only the selected decision points.

    Unselected hyper values survive verbatim, including those nested under a
    selected categorical's chosen candidates.  A selector matching nothing
    logs a warning and returns a clone of the space.
    """
    space = to_symbolic(space)
    spec = abstract_search_space(space)
    fspec = filter_spec(spec, selector)
    if fspec.is_empty:
        logger.warning("partition selector matched no decision points; space unchanged")
        return clone(space)
    return materialize_partial_prepared(space, spec, fspec, dna_subset, selector)


def materialize_partial_prepared(space: SymbolicValue, spec: DecisionSpec,
                                 fspec: DecisionSpec, dna_subset: DNA,
                                 selector: Selector) -> SymbolicValue:
    """Loop-friendly variant of :func:`materialize_partial`; `spec` and
    `fspec` must be the extraction and its selector-filtered view."""
    validate_dna(dna_subset, fspec)
    return _apply_selected(clone(space), spec.points, iter(dna_subset.decisions), selector)


def _apply_selected(root, points, decisions, selector):
    """Substitute selected hyper nodes of `root` (aligned with `points`),
    consuming their decisions in order.  Returns the possibly-replaced root."""
    hypers = local_hyper_nodes(root)
    for point, node in zip(points, hypers):
        if not selector(point):
            continue
        replacement = _materialize_node(point, node, next(decisions), selector)
        root = _splice(root, node, replacement)
    return root


def _materialize_node(point, node, decision, selector):
    if isinstance(node, (IntRange, FloatRange)):
        value = float(decision) if isinstance(point, FloatPoint) else decision
        return Primitive(value)
    parts = []
    for choice in decision:
        candidate = node.candidates[choice.index].clone()
        sub_points = point.subspaces[choice.index]
        candidate = _apply_selected(candidate, sub_points, iter(choice.children), selector)
        parts.append(candidate)
    return parts[0] if node.k == 1 else Sequence(parts)


def _splice(root, old, new):
    if old is root:
        return new
    parent, _ = old._parent
    parent._replace_child(old, new)
    return root


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
    if isinstance(space_node, IntRange):
        if isinstance(prog_node, Primitive) and isinstance(prog_node.value, int) \
                and not isinstance(prog_node.value, bool) \
                and space_node.min <= prog_node.value <= space_node.max:
            return [prog_node.value]
        return None
    if isinstance(space_node, FloatRange):
        if isinstance(prog_node, Primitive) and isinstance(prog_node.value, (int, float)) \
                and not isinstance(prog_node.value, bool) \
                and space_node.min <= prog_node.value <= space_node.max:
            return [float(prog_node.value)]
        return None
    if type(space_node) is not type(prog_node):
        return None
    if isinstance(space_node, Primitive):
        return [] if equal(space_node, prog_node) else None
    if isinstance(space_node, ObjectNode) and space_node.type_name != prog_node.type_name:
        return None
    space_items = space_node.child_items()
    prog_items = prog_node.child_items()
    if len(space_items) != len(prog_items):
        return None
    decisions = []
    for (seg_a, child_a), (seg_b, child_b) in zip(space_items, prog_items):
        if seg_a != seg_b:
            return None
        sub = _match_tree(child_a, child_b)
        if sub is None:
            return None
        decisions.extend(sub)
    return decisions


def _match_categorical(node: Categorical, prog):
    if node.k == 1:
        for index, candidate in enumerate(node.candidates):
            sub = _match_tree(candidate, prog)
            if sub is not None:
                return [[Choice(index, sub)]]
        return None
    if not isinstance(prog, Sequence) or len(prog) != node.k:
        return None
    choices = _assign_slots(node, list(prog), [])
    return None if choices is None else [choices]


def _assign_slots(node: Categorical, parts, prefix):
    """Backtracking assignment of candidates to the k spliced parts under the
    distinct/sorted constraints; lowest feasible indices first."""
    slot = len(prefix)
    if slot == len(parts):
        return []
    for index in _feasible_indices(node.num_candidates, node.distinct, node.sorted, prefix):
        sub = _match_tree(node.candidates[index], parts[slot])
        if sub is None:
            continue
        rest = _assign_slots(node, parts, prefix + [index])
        if rest is not None:
            return [Choice(index, sub)] + rest
    return None
