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

from dataclasses import dataclass, field, replace
from itertools import accumulate
from random import Random
from typing import Callable, Iterator

from .errors import ContinuousSpace, NonconformingDNA, ParseError
from .hyper import Categorical, FloatRange, IntRange
from .paths import join_segment
from .values import SymbolicValue, path_of, to_symbolic


@dataclass
class _RangePoint:
    """The body both range kinds share; each names its `kind`."""

    id: str
    min: int | float
    max: int | float
    hints: str | None = None


class IntPoint(_RangePoint):
    kind = "int"


class FloatPoint(_RangePoint):
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


Selector = Callable[["CategoricalPoint | IntPoint | FloatPoint"], bool]


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
    space = to_symbolic(space)
    return DecisionSpec(_extract(space, path_of(space).render()))


def _extract(node: SymbolicValue, path: str) -> list:
    """The points at and below `node`, whose rendered path is `path`: each
    child's path is its parent's joined with one segment."""
    if isinstance(node, Categorical):
        candidates = join_segment(path, "candidates")
        return [CategoricalPoint(
            id=path,
            k=node.k,
            n=node.num_candidates,
            distinct=node.distinct,
            sorted=node.sorted,
            subspaces=[_extract(c, join_segment(candidates, i))
                       for i, c in enumerate(node.candidates)],
            hints=node.hints,
        )]
    if isinstance(node, (IntRange, FloatRange)):
        point = IntPoint if isinstance(node, IntRange) else FloatPoint
        return [point(path, node.min, node.max, node.hints)]
    points = []
    for key, child in node.child_items():
        points.extend(_extract(child, join_segment(path, key)))
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
    decisions = (range(head.min, head.max + 1) if isinstance(head, IntPoint)
                 else _enum_choices(head, []))
    for decision in decisions:
        for rest in _enum_points(tail):
            yield [decision] + rest


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


def random_dna(spec: DecisionSpec, rng: Random, tokens: list | None = None) -> DNA:
    """Sample a conforming DNA: categorical tuples uniform over feasible
    tuples, ints uniform inclusive, floats uniform over [min, max].  It
    appends the DNA's :func:`encode_dna` tokens to `tokens` as it draws,
    through the spec's proposal plan (see :func:`_plan`)."""
    return DNA(_draw(_plan(spec)[0], rng, [] if tokens is None else tokens))


def random_decisions(points, rng: Random, tokens: list) -> list:
    """The decisions :func:`random_dna` would draw for `points`, through a
    plan compiled for them: for a subspace, whose spec's plan is not at hand."""
    return _draw(_compile(points)[0], rng, tokens) if points else []


# A proposal plan: a spec's points compiled once, per level one table entry
# per point, so that a draw or a mutation dispatches on no type.
_ONE, _MANY, _INT, _FLOAT = range(4)
_PLANS: list = []  # (spec, plan) of the last four specs drawn from, the latest first


def _plan(spec: DecisionSpec) -> tuple:
    """The plan of `spec`, found by identity (a factorized flow alternates
    its outer and inner specs) or compiled.  A spec is read-only once a
    proposal has been drawn from it."""
    if _PLANS and _PLANS[0][0] is spec:
        return _PLANS[0][1]
    entry = next((entry for entry in _PLANS if entry[0] is spec), None) or (
        spec, _compile(spec.points))
    _PLANS[:] = [entry, *(other for other in _PLANS if other is not entry)][:4]
    return entry[1]


def _compile(points) -> tuple:
    """One level's plan, ``(entries, offsets)``.  A categorical's entry is
    ``(kind, point, n, n.bit_length(), token of each index, plan of each
    candidate's subspace or None)``, a range's ``(kind, point, None, ...)``.
    A flat level, whose points hold no nested decisions, has each point's
    token offset and its token count last in `offsets`; others have None."""
    entries, widths = [], []
    for point in points:
        if isinstance(point, CategoricalPoint):
            subplans = [_compile(sub) if sub else None for sub in point.subspaces]
            entries.append((_ONE if point.k == 1 else _MANY, point, point.n,
                            point.n.bit_length(), [str(i) for i in range(point.n)], subplans))
            widths.append(None if any(subplans) else point.k)
        else:
            entries.append((_INT if isinstance(point, IntPoint) else _FLOAT, point,
                            None, None, None, None))
            widths.append(1)
    return entries, None if None in widths else list(accumulate(widths, initial=0))


def _draw(entries, rng: Random, tokens: list) -> list:
    """Decisions drawn through a level's entries.  A one-of draws its index
    by ``getrandbits`` as ``rng.randrange(n)`` does, redrawing an index that
    is not below n, so both leave `rng` in the same state."""
    out = []
    for kind, point, n, bits, strings, subplans in entries:
        if kind == _ONE:
            index = rng.getrandbits(bits)
            while index >= n:
                index = rng.getrandbits(bits)
            tokens.append(strings[index])
            sub = subplans[index]
            out.append([Choice(index, _draw(sub[0], rng, tokens) if sub else [])])
        elif kind == _MANY:
            out.append(choices := [])
            for index in random_tuple(point, rng):
                tokens.append(strings[index])
                sub = subplans[index]
                choices.append(Choice(index, _draw(sub[0], rng, tokens) if sub else []))
        elif kind == _INT:
            out.append(value := rng.randint(point.min, point.max))
            tokens.append(str(value))
        else:
            out.append(value := rng.uniform(point.min, point.max))
            tokens.append(repr(float(value)))
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
    """Split a full DNA into (selected, complement) parts; raises
    NonconformingDNA unless `dna` conforms to `spec`.

    The selected part conforms to ``filter_spec(spec, selector)``.  The
    complement lists the decisions of surviving hyper values in the pre-order
    they occupy after partial materialization.
    """
    validate_dna(dna, spec)
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
    of ``filter_spec(spec, selector)``: the holes of its merge plan.

    It lists the complement points in the pre-order in which
    :func:`split_dna` emits complement decisions, so it is isomorphic to the
    spec of the partially materialized space.  Its points are those of
    `spec`, ids included.  A selection that does not fit the partition
    raises NonconformingDNA, as in :func:`merge_dna`.
    """
    return DecisionSpec(_compile_merge(spec, selector, selected)[0])


def merge_dna(spec: DecisionSpec, selector: Selector, selected: DNA, complement: DNA) -> DNA:
    """Inverse of :func:`split_dna`, sharing the decisions it need not rebuild:
    the merge plan of `selected` compiled and filled once."""
    holes, _, fill = _compile_merge(spec, selector, selected)
    return DNA(fill(_fitting(complement, len(holes))))


def _merge_plan(spec: DecisionSpec, selector: Selector,
                selected: DNA) -> tuple[DecisionSpec, Callable[[DNA, str], tuple[DNA, str]]]:
    """The merge of complements into the fixed `selected`, compiled once.

    Returns the spec :func:`condition_spec` names and ``merge(complement,
    text)``, which takes a DNA of that spec with its canonical text and
    returns the merged DNA with its own: the complement's decisions fill
    the plan's holes, and `text`, cut into runs of holes whose token count
    is fixed, is spliced between the selection's fixed tokens.  Only a
    complement categorical whose candidates hold decisions writes its tokens
    again, and the cut skips as many.
    """
    holes, pieces, fill = _compile_merge(spec, selector, selected)
    count = len(holes)

    def merge(complement: DNA, text: str) -> tuple[DNA, str]:
        decisions = _fitting(complement, count)
        parts, out, at = text.split("|"), [], 0
        for piece in pieces:
            if type(piece) is str:
                out.append(piece)
            elif type(piece) is int:
                out.extend(parts[at:at + piece])
                at += piece
            else:
                written = len(out)
                _emit(piece[1], decisions[piece[0]], out)
                at += len(out) - written
        return DNA(fill(decisions)), "|".join(out)
    return DecisionSpec(holes), merge


def _compile_merge(spec, selector, selected):
    """Walk `spec` and `selected` once, with one `selector` call per point
    reached.  Returns the complement points (the plan's holes), the pieces
    of the merged text (see :func:`_plan_points`) and ``fill(complement
    decisions)``, which builds the merged decisions.  A merged DNA shares
    each hole's decision with the complement and each decision list that
    holds no hole with the plan."""
    holes, pieces = [], []
    decisions = iter(selected.decisions)
    try:
        fill = _plan_points(spec.points, selector, decisions, holes, pieces)
        _expect_exhausted(decisions)
    except StopIteration:
        raise NonconformingDNA("<merge>", "decision lists do not match the partition") from None
    if not callable(fill):  # no hole: each merge copies the selection
        fill = lambda complement, fixed=fill: fixed.copy()
    return holes, pieces, fill


def _fitting(complement: DNA, count: int) -> list:
    """The complement's decisions, if there are `count` of them."""
    decisions = complement.decisions
    if len(decisions) < count:
        raise NonconformingDNA("<merge>", "decision lists do not match the partition")
    if len(decisions) > count:
        raise NonconformingDNA("<merge>", "extra complement decisions beyond the partition")
    return decisions


def _plan_points(points, selector, decisions, holes, pieces):
    """One level of the merged decisions: the list itself when it holds no
    hole, else a function that builds it from the complement's decisions.

    It appends the level's text to `pieces`: fixed text, the token count of
    a run of holes, or the ``(hole, point)`` of a categorical hole whose
    candidates hold decisions, which writes its own tokens."""
    base, slots, builds = [], [], []
    for point in points:
        if not selector(point):
            slots.append((len(base), len(holes)))
            if isinstance(point, CategoricalPoint) and any(point.subspaces):
                pieces.append((len(holes), point))
            else:
                _add_piece(pieces, point.k if isinstance(point, CategoricalPoint) else 1)
            holes.append(point)
            base.append(None)
            continue
        decision = next(decisions)
        if isinstance(point, CategoricalPoint):
            built = []  # (slot, build) of each choice that holds a hole
            for slot, choice in enumerate(decision):
                _add_piece(pieces, str(choice.index))
                subspace = point.subspaces[choice.index]
                if subspace or choice.children != []:  # else nothing to merge: keep it
                    children = iter(choice.children)
                    fill = _plan_points(subspace, selector, children, holes, pieces)
                    _expect_exhausted(children)
                    if callable(fill):  # else `choice` is its own merge
                        built.append((slot, lambda complement, index=choice.index, fill=fill:
                                      Choice(index, fill(complement))))
            if built:
                builds.append((len(base), _level(decision, [], built)))
        else:
            _add_piece(pieces, _token(point, decision))
        base.append(decision)
    return _level(base, slots, builds)


def _add_piece(pieces, piece):
    """Append fixed text or a run's token count, joined to the last piece
    when that is of the same kind."""
    if pieces and type(pieces[-1]) is type(piece):
        pieces[-1] += "|" + piece if type(piece) is str else piece
    else:
        pieces.append(piece)


def _level(base, slots, builds):
    """`base`, a decision or choice list, when it has no slot to fill, else
    its builder: the complement decision of each ``(position, hole)`` slot
    and the value of each ``(position, build)`` go into a copy of `base`."""
    if not slots and not builds:
        return base

    def fill(complement):
        out = base.copy()
        for position, hole in slots:
            out[position] = complement[hole]
        for position, build in builds:
            out[position] = build(complement)
        return out
    return fill


def _expect_exhausted(selected):
    for _ in selected:
        raise NonconformingDNA("<merge>", "extra selected decisions beyond the partition")
