"""Eager (define-by-run) evaluation of hyper values.

Instead of declaring a symbolic search space up front, a program calls
``eager_oneof`` / ``eager_intv`` / ``eager_floatv`` inline while it runs.  A
collection pass executes the program once, registering a decision point per
call (in call order) and returning defaults: the first candidate or the
range minimum.  Each search trial then re-runs the program in apply mode,
where the calls consume the proposed decisions instead.

Conditional structure is expressed with zero-argument thunk candidates: the
collection pass enters every thunk to register its nested decision points,
while an apply run executes only the chosen one.  Programs must be
deterministic in their decision sequence; a run that requests more or
different decisions than were registered raises DecisionStreamMismatch.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable

from .algorithms import SearchAlgorithm
from .decisions import (
    DNA,
    CategoricalPoint,
    DecisionSpec,
    FloatPoint,
    IntPoint,
)
from .errors import BadRange, DecisionStreamMismatch, EmptyCandidates
from .flows import FlowReport, _loop, _run_trials

_current: ContextVar["EagerContext | None"] = ContextVar("eager_context", default=None)

COLLECT = "collect"
APPLY = "apply"


class _Scope:
    """One nesting level: the registered points plus an apply cursor."""

    def __init__(self, points: list, decisions: list | None, prefix: str = ""):
        self.points = points
        self.decisions = decisions
        self.prefix = prefix
        self.cursor = 0


class EagerContext:
    """Registration-ordered decision points shared by one program."""

    def __init__(self):
        self.mode = COLLECT
        self.points: list = []
        self._stack: list[_Scope] = []
        self._calls = 0
        self._token = None

    # -- lifecycle -------------------------------------------------------

    def __enter__(self):
        self._token = _current.set(self)
        return self

    def __exit__(self, *exc_info):
        _current.reset(self._token)
        return False

    def spec(self) -> DecisionSpec:
        return DecisionSpec(self.points)

    def begin_collect(self):
        self.mode = COLLECT
        self.points = []
        self._stack = [_Scope(self.points, None)]
        self._calls = 0

    def begin_apply(self, dna: DNA):
        self.mode = APPLY
        self._stack = [_Scope(self.points, dna.decisions)]
        self._calls = 0

    def end_run(self):
        scope = self._stack[-1]
        if self.mode == APPLY and scope.cursor != len(scope.points):
            raise DecisionStreamMismatch(
                self._calls, f"program consumed {scope.cursor} of {len(scope.points)} decisions")

    # -- decision points ---------------------------------------------------

    def next_call_index(self) -> int:
        index = self._calls
        self._calls += 1
        return index

    def register(self, point) -> None:
        self._stack[-1].points.append(point)

    def current_decision(self, call_index: int):
        scope = self._stack[-1]
        if scope.cursor >= len(scope.points):
            raise DecisionStreamMismatch(call_index, "more decisions requested than registered")
        point = scope.points[scope.cursor]
        decision = scope.decisions[scope.cursor]
        scope.cursor += 1
        return point, decision

    def push(self, points: list, decisions: list | None, prefix: str = ""):
        self._stack.append(_Scope(points, decisions, prefix))

    def pop(self, call_index: int):
        scope = self._stack.pop()
        if self.mode == APPLY and scope.cursor != len(scope.points):
            raise DecisionStreamMismatch(
                call_index, f"chosen branch consumed {scope.cursor} of {len(scope.points)} decisions")

    def point_id(self) -> str:
        scope = self._stack[-1]
        return f"{scope.prefix}d{len(scope.points)}"


def _context(ctx: EagerContext | None) -> EagerContext:
    ctx = ctx or _current.get()
    if ctx is None:
        raise RuntimeError("no active eager context; call through run_eager or enter an EagerContext")
    return ctx


def _evaluate(candidate, ctx: EagerContext, points: list, decisions: list | None,
              call_index: int, prefix: str = ""):
    """Return a candidate's value, executing it inside a nested scope when it
    is a thunk."""
    if not callable(candidate):
        return candidate
    ctx.push(points, decisions, prefix)
    try:
        return candidate()
    finally:
        ctx.pop(call_index)


def eager_oneof(candidates, hints: str | None = None, ctx: EagerContext | None = None):
    """Inline choice over candidates; zero-argument callables are conditional
    branches whose hyper values register under this point."""
    candidates = list(candidates)
    if not candidates:
        raise EmptyCandidates("eager choice needs at least one candidate")
    ctx = _context(ctx)
    call_index = ctx.next_call_index()
    if ctx.mode == COLLECT:
        point = CategoricalPoint(
            id=ctx.point_id(), k=1, n=len(candidates), distinct=True,
            sorted=False, subspaces=[], hints=hints)
        ctx.register(point)
        values = []
        for i, candidate in enumerate(candidates):
            sub: list = []
            values.append(_evaluate(candidate, ctx, sub, None, call_index,
                                    prefix=f"{point.id}.c{i}."))
            point.subspaces.append(sub)
        return values[0]
    point, decision = ctx.current_decision(call_index)
    if not isinstance(point, CategoricalPoint) or point.n != len(candidates):
        raise DecisionStreamMismatch(call_index, "choice does not match the registered point")
    choice = decision[0]
    return _evaluate(candidates[choice.index], ctx,
                     point.subspaces[choice.index], choice.children, call_index)


def eager_intv(min: int, max: int, hints: str | None = None,
               ctx: EagerContext | None = None) -> int:
    """Inline integer range; the collection pass returns the minimum."""
    if min > max:
        raise BadRange(f"intv: min {min} > max {max}")
    ctx = _context(ctx)
    call_index = ctx.next_call_index()
    if ctx.mode == COLLECT:
        ctx.register(IntPoint(ctx.point_id(), min, max, hints))
        return min
    point, decision = ctx.current_decision(call_index)
    if not isinstance(point, IntPoint) or (point.min, point.max) != (min, max):
        raise DecisionStreamMismatch(call_index, "int range does not match the registered point")
    return decision


def eager_floatv(min: float, max: float, hints: str | None = None,
                 ctx: EagerContext | None = None) -> float:
    """Inline float range; the collection pass returns the minimum."""
    if min > max:
        raise BadRange(f"floatv: min {min} > max {max}")
    ctx = _context(ctx)
    call_index = ctx.next_call_index()
    if ctx.mode == COLLECT:
        ctx.register(FloatPoint(ctx.point_id(), float(min), float(max), hints))
        return float(min)
    point, decision = ctx.current_decision(call_index)
    if not isinstance(point, FloatPoint) or (point.min, point.max) != (float(min), float(max)):
        raise DecisionStreamMismatch(call_index, "float range does not match the registered point")
    return float(decision)


def run_eager(program: Callable[[], float], algorithm: SearchAlgorithm,
              budget: int, seed: int | None = None,
              timing: bool = False) -> FlowReport:
    """Search over a define-by-run program.

    The collection pass runs the program once with defaults (its reward is
    discarded and not counted against the budget); every trial afterwards
    re-runs it in apply mode with a proposed DNA.
    """
    ctx = EagerContext()

    def apply(_child, dna: DNA) -> float:
        ctx.begin_apply(dna)
        reward = float(program())
        ctx.end_run()
        return reward

    with ctx:
        ctx.begin_collect()
        program()
        ctx.end_run()
        spec = ctx.spec()
        report = FlowReport("eager", {"trials": budget}, seed)
        # There is no child tree: the oracle re-runs the program itself.
        _run_trials(report, _loop(algorithm, spec, budget), apply, timing)
    return report
