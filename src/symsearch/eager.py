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

``eager_problem`` makes a program a search problem that every flow takes:
the collected spec and a reward that re-runs the program with a trial's DNA.
``run_eager`` is the joint flow over it.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable

from .algorithms import SearchAlgorithm
from .decisions import DNA, CategoricalPoint, DecisionSpec, FloatPoint, IntPoint
from .errors import DecisionStreamMismatch
from .flows import FlowReport, RewardFn, run_joint
from .hyper import check_categorical, check_range

_current: ContextVar["EagerContext | None"] = ContextVar("eager_context", default=None)
_NO_CONTEXT = ("no active eager context; call through run_eager or the reward of eager_problem, "
               "or enter an EagerContext")


class EagerContext:
    """Registration-ordered decision points shared by one program.

    The current scope is four attributes: ``_points``, the list being filled
    while collecting or consumed while applying; ``_decisions``, the apply
    run's decisions aligned with it, ``None`` while collecting; ``_cursor``,
    the next point to consume; and ``_prefix``, the id prefix of the points
    registered in it.  ``_calls`` counts the run's eager calls."""

    def __init__(self):
        self._token = None
        self.begin_collect()

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
        self.points: list = []
        self._points, self._decisions, self._cursor, self._prefix = self.points, None, 0, ""
        self._calls = 0

    def begin_apply(self, dna: DNA):
        self._points, self._decisions, self._cursor, self._prefix = self.points, dna.decisions, 0, ""
        self._calls = 0

    def end_run(self):
        if self._decisions is not None and self._cursor != len(self._points):
            raise DecisionStreamMismatch(
                self._calls, f"program consumed {self._cursor} of {len(self._points)} decisions")

    def _branch(self, thunk, points: list, decisions: list | None, prefix: str, call_index: int):
        """Run `thunk` with `points` and `decisions` as the current scope.
        An applied branch that returns must have consumed exactly its points;
        one that raises propagates its own exception."""
        saved = self._points, self._decisions, self._cursor, self._prefix
        self._points, self._decisions, self._cursor, self._prefix = points, decisions, 0, prefix
        try:
            value = thunk()
            if decisions is not None and self._cursor != len(points):
                raise DecisionStreamMismatch(
                    call_index, f"chosen branch consumed {self._cursor} of {len(points)} decisions")
            return value
        finally:
            self._points, self._decisions, self._cursor, self._prefix = saved


def _take(ctx: EagerContext, call_index: int):
    """The current scope's next point and its decision, consumed."""
    cursor = ctx._cursor
    if cursor >= len(ctx._points):
        raise DecisionStreamMismatch(call_index, "more decisions requested than registered")
    ctx._cursor = cursor + 1
    return ctx._points[cursor], ctx._decisions[cursor]


def eager_oneof(candidates, hints: str | None = None):
    """Inline choice over candidates; zero-argument callables are conditional
    branches whose hyper values register under this point.  The collection
    pass checks the candidates as ``oneof`` does.  A list or tuple is read in
    place; another iterable is copied once."""
    if not isinstance(candidates, (list, tuple)):
        candidates = list(candidates)
    ctx = _current.get()
    if ctx is None:
        raise RuntimeError(_NO_CONTEXT)
    call_index = ctx._calls
    ctx._calls = call_index + 1
    if ctx._decisions is None:
        check_categorical("categorical:", 1, len(candidates), True, hints)
        point = CategoricalPoint(
            id=f"{ctx._prefix}d{len(ctx._points)}", k=1, n=len(candidates), distinct=True,
            sorted=False, subspaces=[], hints=hints)
        ctx._points.append(point)
        values = []
        for i, candidate in enumerate(candidates):
            sub: list = []
            if callable(candidate):
                candidate = ctx._branch(candidate, sub, None, f"{point.id}.c{i}.", call_index)
            values.append(candidate)
            point.subspaces.append(sub)
        return values[0]
    # Inline on purpose: a prologue helper, _take here and a merged intv/floatv ran eager-program ×0.91.
    cursor = ctx._cursor
    points = ctx._points
    if cursor >= len(points):
        raise DecisionStreamMismatch(call_index, "more decisions requested than registered")
    ctx._cursor = cursor + 1
    point = points[cursor]
    decision = ctx._decisions[cursor]
    if not isinstance(point, CategoricalPoint) or point.n != len(candidates):
        raise DecisionStreamMismatch(call_index, "choice does not match the registered point")
    choice = decision[0]
    candidate = candidates[choice.index]
    if not callable(candidate):
        return candidate
    return ctx._branch(candidate, point.subspaces[choice.index], choice.children, "", call_index)


def eager_intv(min: int, max: int, hints: str | None = None) -> int:
    """Inline integer range; the collection pass checks the bounds as
    ``intv`` does and returns the minimum."""
    ctx = _current.get()
    if ctx is None:
        raise RuntimeError(_NO_CONTEXT)
    call_index = ctx._calls
    ctx._calls = call_index + 1
    if ctx._decisions is None:
        check_range("intv:", True, min, max, hints)
        ctx._points.append(IntPoint(f"{ctx._prefix}d{len(ctx._points)}", min, max, hints))
        return min
    point, decision = _take(ctx, call_index)
    if not isinstance(point, IntPoint) or point.min != min or point.max != max:
        raise DecisionStreamMismatch(call_index, "int range does not match the registered point")
    return decision


def eager_floatv(min: float, max: float, hints: str | None = None) -> float:
    """Inline float range; the collection pass checks the bounds as
    ``floatv`` does and returns the minimum."""
    ctx = _current.get()
    if ctx is None:
        raise RuntimeError(_NO_CONTEXT)
    call_index = ctx._calls
    ctx._calls = call_index + 1
    if ctx._decisions is None:
        check_range("floatv:", False, min, max, hints)
        ctx._points.append(
            FloatPoint(f"{ctx._prefix}d{len(ctx._points)}", float(min), float(max), hints))
        return float(min)
    point, decision = _take(ctx, call_index)
    if not isinstance(point, FloatPoint) or point.min != float(min) or point.max != float(max):
        raise DecisionStreamMismatch(call_index, "float range does not match the registered point")
    return float(decision)


def eager_problem(program: Callable[[], float]) -> tuple[DecisionSpec, RewardFn]:
    """``(spec, reward)`` of a define-by-run program.  The collection pass
    runs here, once.  ``reward(child, dna)`` ignores `child` and re-runs the
    program in apply mode with the full-space `dna`, returning what the
    program returns for the flow to check as a reward."""
    ctx = EagerContext()
    with ctx:
        program()
        ctx.end_run()

    def reward(_child, dna: DNA):
        with ctx:
            ctx.begin_apply(dna)
            value = program()
            ctx.end_run()
        return value

    return ctx.spec(), reward


def run_eager(program: Callable[[], float], algorithm: SearchAlgorithm, budget: int,
              seed: int | None = None) -> FlowReport:
    """``run_joint`` over ``eager_problem(program)``, reported as flow
    ``"eager"``; the collection pass is not counted against the budget."""
    spec, reward = eager_problem(program)
    report = run_joint(spec, algorithm, reward, budget, seed)
    report.flow = "eager"
    return report
