"""Field constraints and the type registry.

A ValueSpec constrains one field of a registered type: its kind plus an
optional range.  Specs are checked in two places only: when an object is
constructed, however it is constructed, and on every rebind that touches the
field.  A spec accepts a hyper value only when every possible
materialization of that node would be accepted, so search spaces can never
materialize into an invalid program, and materialization checks nothing.
That rule is ``ValueSpec._check_hyper``; hyper values know nothing of specs.
"""

from __future__ import annotations

import re
from typing import Callable

from .errors import (
    ConstraintViolation,
    DuplicateTypeName,
    InvalidSpec,
    UnknownType,
)
from .hyper import Categorical, FloatRange, IntRange
from .paths import is_identifier
from .values import (
    HyperValue,
    Mapping as MappingNode,
    ObjectNode,
    Primitive,
    Sequence as SequenceNode,
    SymbolicValue,
    _path_within,
    to_symbolic,
)


class ValueSpec:
    """Base constraint.  ``nullable=True`` additionally admits null."""

    def __init__(self, nullable: bool = False):
        self.nullable = nullable

    def check(self, node: SymbolicValue, path: str = "") -> None:
        """Raise ConstraintViolation unless `node`, at `path`, passes.  Only a
        failure renders a path: `path`, then the refused node's below `node`."""
        try:
            self._check_value(node)
        except ConstraintViolation as exc:
            exc.path = _path_within(node, exc.value).render(path)
            raise

    def _check_value(self, node: SymbolicValue) -> None:
        """:meth:`check`, rendering no path."""
        if isinstance(node, Primitive) and node.value is None:
            if not self.nullable:
                self._fail(node, "null not allowed")
        elif isinstance(node, HyperValue):
            self._check_hyper(node)
        else:
            self._check(node)

    def _check(self, node: SymbolicValue) -> None:
        raise NotImplementedError

    def _check_hyper(self, node: HyperValue) -> None:
        """Raise unless every value `node` can become passes: each candidate
        of a one-of must; a range or a multi-choice splice passes only a
        spec that overrides this."""
        if not isinstance(node, Categorical):
            self._fail(node, f"range [{node.min}, {node.max}] not accepted")
        if node.k > 1:
            self._fail(node, "cannot hold a multi-choice splice")
        for candidate in node.candidates:
            self._check_value(candidate)

    def _fail(self, node, reason):
        raise ConstraintViolation("", self, node, reason)

    def __repr__(self):
        return type(self).__name__


class Any(ValueSpec):
    def __init__(self):
        super().__init__(nullable=True)

    def _check_value(self, node):
        return


class _Ranged(ValueSpec):
    def __init__(self, min=None, max=None, nullable: bool = False):
        super().__init__(nullable)
        if min is not None and max is not None and min > max:
            raise InvalidSpec(f"{type(self).__name__}: min {min!r} > max {max!r}")
        self.min = min
        self.max = max

    def _check(self, node):
        if not (isinstance(node, Primitive) and isinstance(node.value, self._numbers)
                and not isinstance(node.value, bool)):
            self._fail(node, f"expected {self._expected}")
        if not _within(node.value, self.min, self.max):
            self._fail(node, f"out of range [{self.min}, {self.max}]")

    def _check_hyper(self, node):
        """A range of an accepted kind passes when both its bounds do."""
        if not (isinstance(node, self._ranges) and _within(node.min, self.min, self.max)
                and _within(node.max, self.min, self.max)):
            super()._check_hyper(node)

    def __repr__(self):
        return f"{type(self).__name__}(min={self.min!r}, max={self.max!r})"


class Int(_Ranged):
    _numbers = int
    _ranges = IntRange
    _expected = "int"


class Float(_Ranged):
    """Accepts floats and ints within the bounds."""

    _numbers = (int, float)
    _ranges = (IntRange, FloatRange)
    _expected = "float"


class Text(ValueSpec):
    def __init__(self, pattern: str | None = None, nullable: bool = False):
        super().__init__(nullable)
        try:
            self.pattern = re.compile(pattern) if pattern is not None else None
        except re.error as exc:
            raise InvalidSpec(f"bad text pattern {pattern!r}: {exc}") from None

    def _check(self, node):
        if not (isinstance(node, Primitive) and isinstance(node.value, str)):
            self._fail(node, "expected text")
        if self.pattern is not None and self.pattern.fullmatch(node.value) is None:
            self._fail(node, f"does not match {self.pattern.pattern!r}")

    def __repr__(self):
        return f"Text(pattern={self.pattern.pattern!r})" if self.pattern else "Text"


class Enum(ValueSpec):
    def __init__(self, values, nullable: bool = False):
        super().__init__(nullable)
        self.values = list(values)
        if not self.values:
            raise InvalidSpec("Enum requires at least one value")

    def allows(self, value) -> bool:
        return any(type(value) is type(v) and value == v for v in self.values)

    def _check(self, node):
        if not isinstance(node, Primitive) or not self.allows(node.value):
            self._fail(node, f"not one of {self.values!r}")

    def __repr__(self):
        return f"Enum({self.values!r})"


ANY_OBJECT = "any-object"


class ObjectOf(ValueSpec):
    def __init__(self, type_name: str = ANY_OBJECT, nullable: bool = False):
        super().__init__(nullable)
        self.type_name = type_name

    def _check(self, node):
        if not isinstance(node, ObjectNode):
            self._fail(node, "expected an object")
        if self.type_name != ANY_OBJECT and node.type_name != self.type_name:
            self._fail(node, f"expected an object of type {self.type_name!r}")

    def __repr__(self):
        return f"ObjectOf({self.type_name!r})"


class ListOf(ValueSpec):
    def __init__(self, element: ValueSpec, min_len: int | None = None,
                 max_len: int | None = None, nullable: bool = False):
        super().__init__(nullable)
        if min_len is not None and max_len is not None and min_len > max_len:
            raise InvalidSpec(f"ListOf: min_len {min_len} > max_len {max_len}")
        self.element = element
        self.min_len = min_len
        self.max_len = max_len

    def _check(self, node):
        if not isinstance(node, SequenceNode):
            self._fail(node, "expected a sequence")
        if not _within(len(node), self.min_len, self.max_len):
            self._fail(node, f"length outside [{self.min_len}, {self.max_len}]")
        for child in node:
            self.element._check_value(child)

    def _check_hyper(self, node):
        """A multi-choice splice becomes a sequence of its k candidates."""
        if not (isinstance(node, Categorical) and node.k > 1):
            return super()._check_hyper(node)
        if not _within(node.k, self.min_len, self.max_len):
            self._fail(node, f"materializes to a sequence of {node.k}")
        for candidate in node.candidates:
            self.element._check_value(candidate)

    def __repr__(self):
        return f"ListOf({self.element!r})"


class MapOf(ValueSpec):
    def __init__(self, value: ValueSpec, nullable: bool = False):
        super().__init__(nullable)
        self.value = value

    def _check(self, node):
        if not isinstance(node, MappingNode):
            self._fail(node, "expected a mapping")
        for _, child in node.items():
            self.value._check_value(child)

    def __repr__(self):
        return f"MapOf({self.value!r})"


def _within(value, low, high) -> bool:
    """Whether `value` lies inside the optional bounds `low` and `high`."""
    return (low is None or value >= low) and (high is None or value <= high)


# ---------------------------------------------------------------------------
# Type definitions
# ---------------------------------------------------------------------------

_NO_DEFAULT = object()


class Param:
    """One declared field: name, spec and an optional default value."""

    def __init__(self, name: str, spec: ValueSpec, default=_NO_DEFAULT):
        if not is_identifier(name):
            raise InvalidSpec(f"parameter name must be identifier text, got {name!r}")
        if not isinstance(spec, ValueSpec):
            raise InvalidSpec(f"parameter {name!r} needs a ValueSpec, got {spec!r}")
        self.name = name
        self.spec = spec
        self.has_default = default is not _NO_DEFAULT
        self.default = to_symbolic(default) if self.has_default else None
        if self.has_default:
            spec.check(self.default, name)


class TypeDef:
    """A registered symbolic type: ordered params plus optional behaviors.

    ``impl`` makes the type a functor: instances are callable and invoke
    ``impl`` with the bound fields as plain-Python views.  ``recompute_hook``
    is called with the post-edit node whenever a rebind changes anything at
    or below an instance.
    """

    def __init__(self, type_name: str, params: list[Param],
                 impl: Callable | None = None,
                 recompute_hook: Callable | None = None):
        if not is_identifier(type_name):
            raise InvalidSpec(f"type name must be identifier text, got {type_name!r}")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise InvalidSpec(f"duplicate parameter names in {type_name!r}")
        self.type_name = type_name
        self.params = list(params)
        self._by_name = {p.name: p for p in params}
        self.impl = impl
        self.recompute_hook = recompute_hook

    @property
    def is_functor(self) -> bool:
        return self.impl is not None

    def param(self, name: str) -> Param | None:
        return self._by_name.get(name)

    def __call__(self, *args, **kwargs) -> ObjectNode:
        """Construct a validated object node of this type: positional arguments
        map to params in declaration order, and :class:`ObjectNode`'s
        construction rule checks and completes the fields."""
        if len(args) > len(self.params):
            raise TypeError(
                f"{self.type_name} takes at most {len(self.params)} positional arguments")
        fields = {param.name: value for param, value in zip(self.params, args)}
        for name, value in kwargs.items():
            if name in fields:
                raise TypeError(f"{self.type_name} got duplicate value for {name!r}")
            fields[name] = value
        return ObjectNode(self, fields)

    def is_instance(self, node) -> bool:
        return isinstance(node, ObjectNode) and node.type_name == self.type_name

    def __repr__(self):
        return f"TypeDef({self.type_name!r})"


class TypeRegistry:
    """Name -> TypeDef registry.  Registrations complete before any concurrent
    use; the registry is read-only afterwards."""

    def __init__(self):
        self._types: dict[str, TypeDef] = {}

    def register(self, type_def: TypeDef) -> TypeDef:
        """Add `type_def` and return it; calling it builds an object."""
        if type_def.type_name in self._types:
            raise DuplicateTypeName(f"type {type_def.type_name!r} is already registered")
        self._types[type_def.type_name] = type_def
        return type_def

    def resolve(self, type_name: str) -> TypeDef:
        try:
            return self._types[type_name]
        except KeyError:
            raise UnknownType(f"type {type_name!r} is not registered") from None

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._types
