"""Abstract search spaces and abstract child programs.

A DecisionSpec is the search algorithm's entire view of a search space: one
decision point per hyper value, in depth-first pre-order, holding only kinds
and ranges.  Decisions for hyper values nested inside a candidate exist only
under that candidate, so conditional structure is preserved without leaking
any program content.

A DNA is a tree of numeric decisions conforming to a DecisionSpec: a
categorical point gets an ordered list of chosen indices, each paired with
the child decisions for that candidate; int and float points get plain
values.  The canonical text form flattens decisions in pre-order joined by
``|``, e.g. ``2|1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from random import Random
from typing import Callable, Iterator

from .errors import ContinuousSpace, NonconformingDNA, ParseError
from .hyper import Categorical, FloatRange, IntRange
from .values import SymbolicValue, path_of, to_symbolic


@dataclass
class IntPoint:
    id: str
    min: int
    max: int
    hints: str | None = None

    kind = "int"


@dataclass
class FloatPoint:
    id: str
    min: float
    max: float
    hints: str | None = None

    kind = "float"


@dataclass
class CategoricalPoint:
    id: str
    k: int
    n: int
    distinct: bool
    sorted: bool
    subspaces: list[list] = field(default_factory=list)  # one point list per candidate
    hints: str | None = None

    kind = "categorical"


DecisionPoint = "CategoricalPoint | IntPoint | FloatPoint"
Selector = Callable[["DecisionPoint"], bool]


@dataclass
class DecisionSpec:
    points: list = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.points

    @property
    def is_continuous(self) -> bool:
        return any(isinstance(p, FloatPoint) for p in iter_all_points(self.points))


@dataclass
class Choice:
    index: int
    children: list = field(default_factory=list)


@dataclass
class DNA:
    """Decisions aligned with a DecisionSpec's points: list[Choice] for a
    categorical point, int or float otherwise."""

    decisions: list = field(default_factory=list)


def iter_all_points(points) -> Iterator:
    for p in points:
        yield p
        if isinstance(p, CategoricalPoint):
            for sub in p.subspaces:
                yield from iter_all_points(sub)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def abstract_search_space(space) -> DecisionSpec:
    """Extract the decision points of a search space, pre-order, with
    conditional nesting; a deterministic tree yields an empty spec."""
    return DecisionSpec(_extract(to_symbolic(space)))


def _extract(node: SymbolicValue) -> list:
    if isinstance(node, Categorical):
        return [CategoricalPoint(
            id=path_of(node).render(),
            k=node.k,
            n=node.num_candidates,
            distinct=node.distinct,
            sorted=node.sorted,
            subspaces=[_extract(c) for c in node.candidates],
            hints=node.hints,
        )]
    if isinstance(node, IntRange):
        return [IntPoint(path_of(node).render(), node.min, node.max, node.hints)]
    if isinstance(node, FloatRange):
        return [FloatPoint(path_of(node).render(), node.min, node.max, node.hints)]
    points = []
    for _, child in node.child_items():
        points.extend(_extract(child))
    return points


def filter_spec(spec: DecisionSpec, selector: Selector) -> DecisionSpec:
    """Restrict a spec to selected points.  A point nested under an
    unselected categorical is unreachable and drops out with its parent."""
    return DecisionSpec(_filter_points(spec.points, selector))


def _filter_points(points, selector):
    out = []
    for p in points:
        if not selector(p):
            continue
        if isinstance(p, CategoricalPoint):
            out.append(replace(p, subspaces=[_filter_points(s, selector) for s in p.subspaces]))
        else:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# Canonical text and conformance
# ---------------------------------------------------------------------------

def encode_dna(dna: DNA, spec: DecisionSpec) -> str:
    """Flatten decisions pre-order into the canonical ``|``-joined text,
    checking each decision as its token is emitted; raises NonconformingDNA
    at the first nonconforming point.  A categorical decision must be a list
    of k choices, each in turn a Choice whose int index in [0, n) may follow
    the earlier ones under distinct/sorted; only then are the choices'
    children checked, and a wrong number of them fails at the categorical."""
    tokens: list[str] = []
    _encode_points(spec.points, dna.decisions, tokens, None)
    return "|".join(tokens)


def validate_dna(dna: DNA, spec: DecisionSpec) -> None:
    """Raise NonconformingDNA unless `dna` conforms to `spec`."""
    encode_dna(dna, spec)


def _encode_points(points, decisions, tokens, context):
    """`context` is the id of the categorical whose choice holds `decisions`,
    or None for the top level, which a wrong count names "<root>"."""
    if not isinstance(decisions, list) or len(decisions) != len(points):
        raise NonconformingDNA("<root>" if context is None else context,
                               f"expected {len(points)} decisions, got {decisions!r}")
    for point, decision in zip(points, decisions):
        if isinstance(point, CategoricalPoint):
            if not isinstance(decision, list) or len(decision) != point.k:
                raise NonconformingDNA(point.id, f"expected a list of {point.k} choices, "
                                                 f"got {decision!r}")
            slot = 0
            for choice in decision:
                if not isinstance(choice, Choice):
                    raise NonconformingDNA(point.id, f"expected a choice, got {choice!r}")
                index = choice.index
                if (type(index) is not int and (not isinstance(index, int) or isinstance(index, bool))
                        or not 0 <= index < point.n):
                    raise NonconformingDNA(point.id, f"index {index!r} outside [0, {point.n})")
                if slot and not _may_follow(index, prefix := [c.index for c in decision[:slot]],
                                            point.distinct, point.sorted):
                    raise NonconformingDNA(point.id, f"index {index} may not follow {prefix} "
                                                     f"(distinct={point.distinct}, "
                                                     f"sorted={point.sorted})")
                slot += 1
            for choice in decision:
                index = choice.index
                tokens.append(str(index))
                subspace, children = point.subspaces[index], choice.children
                if subspace or type(children) is not list or children:  # else nothing to check
                    _encode_points(subspace, children, tokens, point.id)
            continue
        if isinstance(point, IntPoint):
            if not isinstance(decision, int) or isinstance(decision, bool):
                raise NonconformingDNA(point.id, f"expected an int, got {decision!r}")
        elif not isinstance(decision, (int, float)) or isinstance(decision, bool):
            raise NonconformingDNA(point.id, f"expected a float, got {decision!r}")
        if not point.min <= decision <= point.max:
            raise NonconformingDNA(point.id, f"{decision} outside [{point.min}, {point.max}]")
        tokens.append(_token(point, decision))


def _token(point, value) -> str:
    """The canonical text of an int or float decision."""
    return str(value) if isinstance(point, IntPoint) else repr(float(value))


def _emit(point, decision, tokens):
    """Append the canonical tokens of a decision already checked against
    `point`, without checking it again."""
    if isinstance(point, CategoricalPoint):
        for choice in decision:
            tokens.append(str(choice.index))
            if choice.children:
                for child_point, child in zip(point.subspaces[choice.index], choice.children):
                    _emit(child_point, child, tokens)
    else:
        tokens.append(_token(point, decision))


def decode_dna(text: str, spec: DecisionSpec) -> DNA:
    """Parse canonical text against a spec; validates conformance.  Any other
    spelling of a DNA (a sign, a space, a leading zero, a float that is not
    the shortest repr) raises ParseError."""
    tokens = iter(text.split("|") if text else [])
    dna = DNA(_decode_points(spec.points, tokens))
    extra = sum(1 for _ in tokens)
    if extra:
        raise ParseError(f"{extra} unconsumed decisions")
    canonical = encode_dna(dna, spec)
    if canonical != text:
        raise ParseError(f"DNA text {text!r} is not canonical; its canonical form is {canonical!r}")
    return dna


def _decode_points(points, tokens) -> list:
    out = []
    for point in points:
        if not isinstance(point, CategoricalPoint):
            out.append(_parse(next(tokens, None), int if isinstance(point, IntPoint) else float,
                              point))
            continue
        choices = []
        for _ in range(point.k):
            index = _parse(next(tokens, None), int, point)
            if not 0 <= index < point.n:
                raise NonconformingDNA(point.id, f"index {index} outside [0, {point.n})")
            choices.append(Choice(index, _decode_points(point.subspaces[index], tokens)))
        out.append(choices)
    return out


def _parse(token: str | None, kind: type, point):
    if token is None:
        raise ParseError(f"too few decisions for {point.id!r}")
    try:
        return kind(token)
    except ValueError:
        raise ParseError(f"bad {kind.__name__} {token!r} for {point.id!r}") from None


# ---------------------------------------------------------------------------
# Enumeration and sampling
# ---------------------------------------------------------------------------

def enumerate_dnas(spec: DecisionSpec) -> Iterator[DNA]:
    """Yield every conforming DNA exactly once, in canonical-encoding order."""
    if spec.is_continuous:
        raise ContinuousSpace("cannot enumerate a space with float decisions")
    for decisions in _enum_points(spec.points):
        yield DNA(decisions)


def _enum_points(points) -> Iterator[list]:
    if not points:
        yield []
        return
    head, tail = points[0], points[1:]
    for decision in _enum_decision(head):
        for rest in _enum_points(tail):
            yield [decision] + rest


def _enum_decision(point) -> Iterator:
    if isinstance(point, IntPoint):
        return iter(range(point.min, point.max + 1))
    return _enum_choices(point, [])


def _enum_choices(point, prefix) -> Iterator[list]:
    if len(prefix) == point.k:
        yield []
        return
    for index in _feasible_indices(point.n, point.distinct, point.sorted, prefix):
        for children in _enum_points(point.subspaces[index]):
            for rest in _enum_choices(point, prefix + [index]):
                yield [Choice(index, children)] + rest


def _may_follow(index: int, prefix, distinct: bool, is_sorted: bool) -> bool:
    """Whether candidate ``index`` may fill the slot after ``prefix`` in a
    tuple under the distinct/sorted constraints."""
    if distinct and index in prefix:
        return False
    return not (is_sorted and prefix and index < prefix[-1])


def _feasible_indices(n: int, distinct: bool, is_sorted: bool, prefix):
    """Indices of n candidates that may fill the slot after ``prefix``,
    lowest first."""
    return (index for index in range(n) if _may_follow(index, prefix, distinct, is_sorted))


def count_tuples(point: CategoricalPoint) -> int:
    """Number of feasible index tuples of a categorical point."""
    n, k = point.n, point.k
    if point.distinct:
        return math.comb(n, k) if point.sorted else math.perm(n, k)
    return math.comb(n + k - 1, k) if point.sorted else n ** k


def random_dna(spec: DecisionSpec, rng: Random) -> DNA:
    """Sample a conforming DNA: categorical tuples uniform over feasible
    tuples, ints uniform inclusive, floats uniform over [min, max]."""
    return DNA(random_decisions(spec.points, rng))


def random_decisions(points, rng: Random) -> list:
    out = []
    for point in points:
        if isinstance(point, IntPoint):
            out.append(rng.randint(point.min, point.max))
        elif isinstance(point, FloatPoint):
            out.append(rng.uniform(point.min, point.max))
        else:
            out.append([Choice(i, random_decisions(sub, rng) if (sub := point.subspaces[i]) else [])
                        for i in random_tuple(point, rng)])
    return out


def random_tuple(point: CategoricalPoint, rng: Random) -> list[int]:
    n, k = point.n, point.k
    if point.distinct:
        if k == 1:
            return [rng.randrange(n)]  # draws and leaves the state as sample would
        indices = rng.sample(range(n), k)
        return sorted(indices) if point.sorted else indices
    if point.sorted:
        # Stars and bars: uniform over non-decreasing tuples.
        marks = sorted(rng.sample(range(n + k - 1), k))
        return [m - j for j, m in enumerate(marks)]
    return [rng.randrange(n) for _ in range(k)]


def minimal_dna(spec: DecisionSpec) -> DNA:
    """The least DNA: first feasible tuple / min value at every point."""
    return DNA([_minimal_decision(p) for p in spec.points])


def _minimal_decision(point):
    if isinstance(point, (IntPoint, FloatPoint)):
        return point.min
    return [Choice(index, [_minimal_decision(p) for p in point.subspaces[index]])
            for index in (range(point.k) if point.distinct else [0] * point.k)]


# ---------------------------------------------------------------------------
# Splitting and merging across a partition
# ---------------------------------------------------------------------------

def split_dna(spec: DecisionSpec, dna: DNA, selector: Selector) -> tuple[DNA, DNA]:
    """Split a full DNA into (selected, complement) parts.

    The selected part conforms to ``filter_spec(spec, selector)``.  The
    complement lists the decisions of surviving hyper values in the pre-order
    they occupy after partial materialization.
    """
    selected, complement = _split_points(spec.points, dna.decisions, selector)
    return DNA(selected), DNA(complement)


def _split_points(points, decisions, selector):
    selected, complement = [], []
    for point, decision in zip(points, decisions):
        if not selector(point):
            complement.append(decision)
            continue
        if isinstance(point, CategoricalPoint):
            rebuilt = []
            for choice in decision:
                sel, comp = _split_points(point.subspaces[choice.index], choice.children, selector)
                rebuilt.append(Choice(choice.index, sel))
                complement.extend(comp)
            selected.append(rebuilt)
        else:
            selected.append(decision)
    return selected, complement


def condition_spec(spec: DecisionSpec, selector: Selector, selected: DNA) -> DecisionSpec:
    """The spec left when the selected points are fixed to `selected`, a DNA
    of ``filter_spec(spec, selector)``.

    It lists the complement points in the pre-order in which
    :func:`split_dna` emits complement decisions, so it is isomorphic to the
    spec of the partially materialized space.  Its points are those of
    `spec`, ids included.
    """
    points: list = []
    _condition_points(spec.points, iter(selected.decisions), selector, points)
    return DecisionSpec(points)


def _condition_points(points, decisions, selector, out):
    for point in points:
        if not selector(point):
            out.append(point)
        elif isinstance(point, CategoricalPoint):
            for choice in next(decisions):
                _condition_points(point.subspaces[choice.index], iter(choice.children),
                                  selector, out)
        else:
            next(decisions)


def merge_dna(spec: DecisionSpec, selector: Selector, selected: DNA, complement: DNA,
              tokens: list | None = None) -> DNA:
    """Inverse of :func:`split_dna`, sharing the decisions it need not rebuild.
    It appends the merged DNA's canonical tokens to `tokens`, which join with
    ``|`` into its :func:`encode_dna` text when both halves conform."""
    sel_iter = iter(selected.decisions)
    comp_iter = iter(complement.decisions)
    try:
        decisions = _merge_points(spec.points, selector, sel_iter, comp_iter,
                                  [] if tokens is None else tokens)
        _expect_exhausted(sel_iter, "selected")
        _expect_exhausted(comp_iter, "complement")
    except StopIteration:
        raise NonconformingDNA("<merge>", "decision lists do not match the partition") from None
    return DNA(decisions)


def _merge_points(points, selector, sel_iter, comp_iter, tokens):
    out = []
    for point in points:
        if not selector(point):
            out.append(next(comp_iter))
            _emit(point, out[-1], tokens)
            continue
        decision = next(sel_iter)
        if isinstance(point, CategoricalPoint):
            rebuilt = []
            for choice in decision:
                tokens.append(str(choice.index))
                subspace = point.subspaces[choice.index]
                if subspace or choice.children != []:  # else nothing to merge: keep it
                    child_sel = iter(choice.children)
                    choice = Choice(choice.index, _merge_points(subspace, selector, child_sel,
                                                                comp_iter, tokens))
                    _expect_exhausted(child_sel, "selected")
                rebuilt.append(choice)
            out.append(rebuilt)
        else:
            tokens.append(_token(point, decision))
            out.append(decision)
    return out


def _expect_exhausted(iterator, label):
    for _ in iterator:
        raise NonconformingDNA("<merge>", f"extra {label} decisions beyond the partition")


# ---------------------------------------------------------------------------
# Structural comparison and JSON rendering
# ---------------------------------------------------------------------------

def isomorphic(a: DecisionSpec, b: DecisionSpec) -> bool:
    """Same kinds, ranges, constraints, nesting and order; ids are ignored."""
    return _iso_points(a.points, b.points)


def _iso_points(pa, pb) -> bool:
    if len(pa) != len(pb):
        return False
    for x, y in zip(pa, pb):
        if type(x) is not type(y) or x.hints != y.hints:
            return False
        if isinstance(x, CategoricalPoint):
            if (x.k, x.n, x.distinct, x.sorted) != (y.k, y.n, y.distinct, y.sorted):
                return False
            if not all(_iso_points(sx, sy) for sx, sy in zip(x.subspaces, y.subspaces)):
                return False
        elif (x.min, x.max) != (y.min, y.max):
            return False
    return True


def spec_to_json_obj(spec: DecisionSpec) -> dict:
    """JSON rendering of a spec: kinds, ranges and nesting only.  Candidate
    program content never appears here."""
    return {"points": [_point_to_json(p) for p in spec.points]}


def _point_to_json(point) -> dict:
    if isinstance(point, CategoricalPoint):
        return {
            "id": point.id,
            "kind": "categorical",
            "k": point.k,
            "n": point.n,
            "distinct": point.distinct,
            "sorted": point.sorted,
            "hints": point.hints,
            "subspaces": [[_point_to_json(p) for p in sub] for sub in point.subspaces],
        }
    return {
        "id": point.id,
        "kind": point.kind,
        "min": point.min,
        "max": point.max,
        "hints": point.hints,
    }
