"""Hyper values: to-be-determined nodes that turn a program into a search space.

Three kinds exist: a categorical choice of K out of N candidates (with
optional uniqueness/order constraints), an inclusive integer range and a
closed float interval.  Candidates may themselves contain hyper values,
which produces a conditional search space.  A tree with no hyper values is a
deterministic child program.
"""

from __future__ import annotations

import math
import sys

from .errors import BadPoint, BadRange, EmptyCandidates, IllegalDirective, KTooLarge
from .values import (
    HyperValue,
    Primitive,
    Sequence,
    SymbolicValue,
    _equal,
    to_symbolic,
    walk,
)

INFINITE = math.inf
_FLOAT_MAX = sys.float_info.max


class Categorical(HyperValue):
    """Choose ``k`` of the candidates as a position-ordered tuple.

    ``distinct`` forbids repeated indices; ``sorted`` constrains chosen
    indices to be increasing (strictly so when distinct).  ``k == 1`` is a
    plain one-of; ``k == n`` with distinct and unsorted searches permutations.
    """

    __slots__ = ("k", "distinct", "sorted", "hints", "_candidates", "__weakref__")

    def __init__(self, k: int, candidates, distinct: bool = True,
                 sorted: bool = False, hints: str | None = None):
        super().__init__()
        candidates = list(candidates)
        _check_candidates(k, distinct, candidates, hints)
        if k == 1:
            # Uniqueness and order constraints are vacuous for a single
            # choice; normalizing keeps equality and serialization canonical.
            distinct, sorted = True, False
        self.k = k
        self.distinct = distinct
        self.sorted = sorted
        self.hints = hints
        self._candidates = self._adopt("candidates", Sequence(candidates))

    @property
    def candidates(self) -> Sequence:
        return self._candidates

    @property
    def num_candidates(self) -> int:
        return len(self._candidates)

    def child_items(self):
        return (("candidates", self._candidates),)

    def get_child(self, key):
        if key == "candidates":
            return self._candidates
        return super().get_child(key)

    def _copy(self, replaced=None):
        fresh = Categorical.__new__(Categorical)
        fresh._parent = None
        fresh.k = self.k
        fresh.distinct = self.distinct
        fresh.sorted = self.sorted
        fresh.hints = self.hints
        new = self._candidates._copy() if replaced is None else replaced["candidates"]
        if replaced is not None:
            _check_candidates(self.k, self.distinct, new, self.hints)
        fresh._candidates = fresh._adopt("candidates", new)
        return fresh

    def _equals_same_kind(self, other):
        return (self.k == other.k and self.distinct == other.distinct
                and self.sorted == other.sorted and self.hints == other.hints
                and _equal(self._candidates, other._candidates))

    def __repr__(self):
        flags = f", k={self.k}, distinct={self.distinct}, sorted={self.sorted}"
        return f"Categorical({list(self._candidates)!r}{flags})"


def _check_candidates(k: int, distinct: bool, candidates, hints) -> None:
    """The rules a categorical's candidates keep, checked when it is built
    and when an edit replaces them: a sequence (a list while building) that
    :func:`check_categorical` allows."""
    if not isinstance(candidates, (list, Sequence)):
        raise IllegalDirective(f"categorical candidates must be a sequence, got {candidates!r}")
    check_categorical("categorical:", k, len(candidates), distinct, hints)


def check_categorical(label: str, k, n: int, distinct: bool, hints) -> None:
    """The one rule for a categorical point, symbolic, eager or stored: text
    or null `hints`, an int `k` that is not a bool, ``n >= 1`` candidates,
    ``k >= 1``, and ``k <= n`` when `distinct`.  An error starts with `label`."""
    _check_hints(label, hints)
    if isinstance(k, bool) or not isinstance(k, int):
        raise BadRange(label, f"k must be an integer, got {k!r}")
    if n < 1:
        raise EmptyCandidates(label, f"n must be at least 1, got {n!r}")
    if k < 1:
        raise BadRange(label, f"k must be at least 1, got {k!r}")
    if distinct and k > n:
        raise KTooLarge(label, f"k must be at most n, {n!r}, when distinct, got {k!r}")


def check_range(label: str, integer: bool, min, max, hints) -> None:
    """The one rule for a range point, symbolic, eager or stored: text or null
    `hints`; as int bounds, ints that ``repr`` renders (see
    ``sys.get_int_max_str_digits()``), as float bounds, finite ints or floats,
    and never a bool; and ``min <= max``.  An error starts with `label`."""
    _check_hints(label, hints)
    for key, bound in (("min", min), ("max", max)):
        if isinstance(bound, bool) or not (
                isinstance(bound, int) if integer
                else isinstance(bound, (int, float)) and -_FLOAT_MAX <= bound <= _FLOAT_MAX):
            wanted = "an integer" if integer else "a finite number"
            raise BadRange(label, f"{key} must be {wanted}, got {_shown(bound)}")
        if integer:
            try:
                repr(bound)
            except ValueError:
                raise BadRange(label, f"{key} must have at most {sys.get_int_max_str_digits()} "
                                      f"digits, got {_shown(bound)}") from None
    if min > max:
        raise BadRange(label, f"min must be at most max, {_shown(max)}, got {_shown(min)}")


def _check_hints(label: str, hints) -> None:
    """Hints are text or None, so that every route can store them."""
    if hints is not None and not isinstance(hints, str):
        raise BadPoint(label, f"hints must be text or null, got {hints!r}")


def _shown(bound) -> str:
    """``repr(bound)``, or the size of an int too long to render in decimal."""
    try:
        return repr(bound)
    except ValueError:
        return f"an integer of {bound.bit_length()} bits"


class _Range(HyperValue):
    """The body both range kinds share: a `_number` in [min, max].  Bounds are
    checked by :func:`check_range` when built, never when copied; `form`
    names the constructor and the wire form."""

    __slots__ = ("min", "max", "hints")

    def __init__(self, min, max, hints: str | None = None):
        super().__init__()
        check_range(f"{self.form}:", self._number is int, min, max, hints)
        self.min = self._number(min)
        self.max = self._number(max)
        self.hints = hints

    def _copy(self, replaced=None):
        fresh = self.__class__.__new__(self.__class__)
        fresh._parent = None
        fresh.min = self.min
        fresh.max = self.max
        fresh.hints = self.hints
        return fresh

    def _equals_same_kind(self, other):
        return (self.min, self.max, self.hints) == (other.min, other.max, other.hints)

    def __repr__(self):
        return f"{self.form}({self.min}, {self.max})"


class IntRange(_Range):
    """An integer drawn from the inclusive range [min, max]."""

    __slots__ = ()
    form = "intv"
    _number = int


class FloatRange(_Range):
    """A float drawn from the closed interval [min, max]."""

    __slots__ = ()
    form = "floatv"
    _number = float


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def oneof(candidates, hints: str | None = None) -> Categorical:
    """Choose one of the candidates."""
    return Categorical(1, candidates, distinct=True, sorted=False, hints=hints)


def manyof(k: int, candidates, distinct: bool = True, sorted: bool = False,
           hints: str | None = None) -> Categorical:
    """Choose k of the candidates as a position-ordered tuple."""
    return Categorical(k, candidates, distinct=distinct, sorted=sorted, hints=hints)


def permutate(candidates, hints: str | None = None) -> Categorical:
    """Search for a permutation of all candidates, from any iterable."""
    candidates = list(candidates)
    return Categorical(len(candidates), candidates, distinct=True, sorted=False, hints=hints)


intv = IntRange
floatv = FloatRange


# ---------------------------------------------------------------------------
# Space inspection
# ---------------------------------------------------------------------------

def is_deterministic(space) -> bool:
    """True iff the tree contains no hyper value (i.e. it is a child program)."""
    space = to_symbolic(space)
    return not any(isinstance(node, HyperValue) for _, node in walk(space))


def space_size(space) -> int | float:
    """Number of distinct concrete child programs, or INFINITE when a float
    range is reachable."""
    return _size(to_symbolic(space))


def _size(node: SymbolicValue) -> int | float:
    if isinstance(node, FloatRange):
        return INFINITE
    if isinstance(node, IntRange):
        return node.max - node.min + 1
    if isinstance(node, Categorical):
        sizes = [_size(c) for c in node.candidates]
        if any(s == INFINITE for s in sizes):
            return INFINITE
        return _tuple_weight(sizes, node.k, node.distinct, node.sorted)
    if isinstance(node, Primitive):
        return 1
    total = 1
    for _, child in node.child_items():
        s = _size(child)
        if s == INFINITE:
            return INFINITE
        total *= s
    return total


def _tuple_weight(sizes: list[int], k: int, distinct: bool, sorted_: bool) -> int:
    """Sum over feasible index tuples of the product of candidate sub-space
    sizes, computed with symmetric-polynomial style DP."""
    if not distinct and not sorted_:
        return sum(sizes) ** k
    dp = [0] * (k + 1)
    dp[0] = 1
    if distinct:
        # Elementary symmetric polynomial e_k; ordering multiplies by k!
        for s in sizes:
            for j in range(k, 0, -1):
                dp[j] += dp[j - 1] * s
        return dp[k] if sorted_ else dp[k] * math.factorial(k)
    # Non-distinct but sorted: complete homogeneous symmetric polynomial h_k.
    for s in sizes:
        for j in range(1, k + 1):
            dp[j] += dp[j - 1] * s
    return dp[k]
