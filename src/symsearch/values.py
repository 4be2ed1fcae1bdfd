"""Symbolic value trees.

Every value in this package is a node in a tree: a primitive (bool, int,
float, text or null), an ordered sequence, a string-keyed mapping, a typed
object with schema-constrained fields, or a hyper value standing in for a
to-be-determined part (see :mod:`symsearch.hyper`).

Trees are value-semantic.  Structural equality (``equal``/``==``) compares
variants, type names, keys and all descendants; ``clone`` produces an
independent deep copy.  The root owns its tree: a node's link to its parent
is weak, so a dropped tree is freed at once, and a subtree held after its
root is gone reports no parent and its paths from itself.  A node belongs to
at most one parent: attaching a value that was ever attached clones it
first.  A pickled node carries its own subtree and no ancestors.  Every kind
copies itself through one routine, ``_copy``, which takes replacement
children by key; ``clone`` is the case with none (materialization builds
the same slots inline).  A copy re-runs no check, since its source already
passed them; only replaced categorical candidates are held to the
constructor's rules.

Manipulation goes through :func:`rebind`, which never mutates its input; it
returns an edited copy.  Its two forms, a mapping of path edits and a
transform, run one rebuild that copies each node of the result once: an
ancestor of a change is rebuilt from its new children plus one clone of each
unchanged sibling.  The rebuild notes the fields to re-check and the hooks
to fire on its way, so no path is walked again.  Inquiry is served by
:func:`get`, :func:`query`, :func:`parent_of` and :func:`path_of`.

Paths are rendered as text only where text is needed.  A child's key is its
path segment.  :func:`query` and the transform carry the parent's text down
and append each child's key by the one-segment rule of
:mod:`symsearch.paths`; :func:`walk` yields :class:`KeyPath` values;
:func:`validate_tree` and the re-check after a rebind render a path only for
the error they raise.
"""

from __future__ import annotations

import itertools
import math
import re
import weakref
from typing import Iterable, Iterator

from .errors import (
    BindingConflict,
    ConstraintViolation,
    IllegalDirective,
    InvalidPattern,
    MissingRequiredField,
    PathNotFound,
    ReservedKey,
    UnknownField,
)
from .paths import KeyPath, as_path, is_identifier, join_segment

RESERVED_KEYS = ("_type", "_hyper")

PRIMITIVE_TYPES = (bool, int, float, str, type(None))


def to_symbolic(value) -> "SymbolicValue":
    """Coerce a plain Python value into a symbolic node.

    Scalars become primitives, lists/tuples become sequences and dicts become
    mappings.  Symbolic nodes pass through unchanged.
    """
    if isinstance(value, SymbolicValue):
        return value
    if isinstance(value, PRIMITIVE_TYPES):
        return Primitive(value)
    if isinstance(value, (list, tuple)):
        return Sequence([to_symbolic(v) for v in value])
    if isinstance(value, dict):
        return Mapping({k: to_symbolic(v) for k, v in value.items()})
    raise TypeError(f"cannot represent {type(value).__name__} as a symbolic value: {value!r}")


class SymbolicValue:
    """Base class for all tree nodes; a kind that can be a parent adds ``__weakref__``."""

    __slots__ = ("_parent",)

    def __init__(self):
        self._parent = None  # (weak reference to the parent node, key) or None

    # -- tree structure -------------------------------------------------

    def child_items(self) -> Iterable[tuple[int | str, "SymbolicValue"]]:
        """(key, child) pairs in canonical order; a key is a list index or
        map key text, which is also the child's path segment."""
        return ()

    def get_child(self, key) -> "SymbolicValue":
        raise PathNotFound(f"{type(self).__name__} has no child {key!r}")

    def _adopt(self, key, child) -> "SymbolicValue":
        """Attach `child` under `key`, cloning it if it was ever attached."""
        node = to_symbolic(child)
        if node._parent is not None:
            node = node.clone()
        node._parent = (weakref.ref(self), key)
        return node

    def __getstate__(self):
        """Each slot of the kind, not the base's link: a pickle holds no ancestors."""
        return {name: getattr(self, name) for cls in type(self).__mro__[:-2]
                for name in cls.__dict__.get("__slots__", ()) if name != "__weakref__"}

    def __setstate__(self, state):
        for name, value in (("_parent", None), *state.items()):
            setattr(self, name, value)
        for key, child in self.child_items():
            child._parent = (weakref.ref(self), key)

    # -- value semantics -------------------------------------------------

    def clone(self) -> "SymbolicValue":
        return self._copy()

    __copy__ = clone  # a shallow copy would take the children from their parent

    def _copy(self, replaced: dict | None = None) -> "SymbolicValue":
        """A fresh copy of this node, taking each child from `replaced` (by
        key) when present there, cloned only if it was ever attached, and
        cloning it otherwise.  The source already passed every check, so
        nothing is re-checked but the rules a categorical keeps for replaced
        candidates."""
        raise NotImplementedError

    def _equals_same_kind(self, other) -> bool:
        raise NotImplementedError

    def __eq__(self, other):
        try:
            node = to_symbolic(other)
        except TypeError:
            return NotImplemented
        return equal(self, node)

    __hash__ = None  # structural equality makes nodes unhashable

    def to_plain(self):
        """Plain-Python view: primitives unwrap, containers convert, objects
        and hyper values stay symbolic."""
        return self


class Primitive(SymbolicValue):
    """A leaf node holding a bool, int, float, text or null value."""

    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        if not isinstance(value, PRIMITIVE_TYPES):
            raise TypeError(f"not a primitive: {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"non-finite float not representable: {value!r}")
        self.value = value

    def _copy(self, replaced=None):
        fresh = Primitive.__new__(Primitive)
        fresh._parent = None
        fresh.value = self.value
        return fresh

    def _equals_same_kind(self, other):
        a, b = self.value, other.value
        if type(a) is not type(b):
            return False
        if isinstance(a, float):
            # Distinguish -0.0 from 0.0 so equal values serialize identically.
            return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
        return a == b

    def to_plain(self):
        return self.value

    def __repr__(self):
        return repr(self.value)


class Sequence(SymbolicValue):
    """An ordered list of child nodes, addressed by index."""

    __slots__ = ("_children", "__weakref__")

    def __init__(self, children: Iterable = ()):
        super().__init__()
        self._children = [self._adopt(i, child) for i, child in enumerate(children)]

    def child_items(self):
        return enumerate(self._children)

    def get_child(self, key):
        if type(key) is int and 0 <= key < len(self._children):
            return self._children[key]
        raise PathNotFound(f"no element {key!r}")

    def _copy(self, replaced=None):
        fresh = Sequence.__new__(Sequence)
        fresh._parent = None
        fresh._children = _copy_children(fresh, [None] * len(self._children),
                                         enumerate(self._children), replaced)
        return fresh

    def _equals_same_kind(self, other):
        if len(self._children) != len(other._children):
            return False
        return all(equal(a, b) for a, b in zip(self._children, other._children))

    def to_plain(self):
        return [c.to_plain() for c in self._children]

    def __len__(self):
        return len(self._children)

    def __iter__(self):
        return iter(self._children)

    def __getitem__(self, index):
        return self._children[index]

    def __repr__(self):
        return repr(self._children)


class Mapping(SymbolicValue):
    """A mapping with identifier-text keys, kept in sorted key order so that
    traversal, equality and serialization agree on one canonical order."""

    __slots__ = ("_entries", "__weakref__")

    def __init__(self, entries: dict | Iterable = ()):
        super().__init__()
        items = entries.items() if isinstance(entries, dict) else entries
        self._entries = {}
        for key, value in sorted(items, key=lambda kv: kv[0]):
            if key in RESERVED_KEYS:
                raise ReservedKey(f"mapping key {key!r} is reserved")
            if not isinstance(key, str) or not is_identifier(key):
                raise ValueError(f"mapping keys must be identifier text, got {key!r}")
            if key in self._entries:
                raise ValueError(f"duplicate mapping key {key!r}")
            self._entries[key] = self._adopt(key, value)

    def child_items(self):
        return self._entries.items()

    def get_child(self, key):
        if key in self._entries:
            return self._entries[key]
        raise PathNotFound(f"no key {key!r}")

    def _copy(self, replaced=None):
        fresh = Mapping.__new__(Mapping)
        fresh._parent = None
        fresh._entries = _copy_children(fresh, {}, self._entries.items(), replaced)
        return fresh

    def _equals_same_kind(self, other):
        if self._entries.keys() != other._entries.keys():
            return False
        return all(equal(v, other._entries[k]) for k, v in self._entries.items())

    def to_plain(self):
        return {k: v.to_plain() for k, v in self._entries.items()}

    def keys(self):
        return self._entries.keys()

    def items(self):
        return self._entries.items()

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, key):
        return self._entries[key]

    def __repr__(self):
        return repr(self._entries)


class ObjectNode(SymbolicValue):
    """An instance of a registered type: a node whose children are its fields,
    each constrained by the type's per-field spec.

    Construction is the one field rule, however an object is built: an
    undeclared name raises UnknownField, then in param order each given
    field is checked against its spec and each absent one takes a clone of
    its default (checked when the param was declared) or, unless the type
    is a functor (callable), is missing.  No field is adopted before all pass.
    """

    __slots__ = ("type_def", "_fields", "__weakref__")

    def __init__(self, type_def, fields: dict):
        super().__init__()
        self.type_def = type_def
        for name in fields:
            if type_def.param(name) is None:
                raise UnknownField(f"{type_def.type_name} has no field {name!r}")
        nodes = {}
        for param in type_def.params:
            if param.name in fields:
                nodes[param.name] = node = to_symbolic(fields[param.name])
                param.spec.check(node, param.name)
            elif param.has_default:
                nodes[param.name] = param.default.clone()
            elif not type_def.is_functor:
                raise MissingRequiredField(f"{type_def.type_name} requires field {param.name!r}")
        self._fields = {name: self._adopt(name, node) for name, node in nodes.items()}

    @property
    def type_name(self) -> str:
        return self.type_def.type_name

    def child_items(self):
        return self._fields.items()

    def get_child(self, key):
        if key in self._fields:
            return self._fields[key]
        raise PathNotFound(f"no bound field {key!r}")

    def _copy(self, replaced=None):
        fresh = ObjectNode.__new__(ObjectNode)
        fresh._parent = None
        fresh.type_def = self.type_def
        fresh._fields = _copy_children(fresh, {}, self._fields.items(), replaced)
        return fresh

    def _equals_same_kind(self, other):
        if self.type_def.type_name != other.type_def.type_name:
            return False
        if self._fields.keys() != other._fields.keys():
            return False
        return all(equal(v, other._fields[k]) for k, v in self._fields.items())

    def is_bound(self, name: str) -> bool:
        return name in self._fields

    def bind(self, **fields) -> "ObjectNode":
        """Incrementally bind unbound fields, returning a new node.

        Binding an already-bound field is a conflict; change bound fields
        through rebind instead.
        """
        for name in fields:
            if name in self._fields:
                raise BindingConflict(f"{self.type_name}.{name} is already bound; change it through "
                                      "rebind, or at call time with override_args=True")
        return ObjectNode(self.type_def, {**self._fields, **fields})

    def __call__(self, override_args: bool = False, **kwargs):
        """Invoke a functor.  Call-time arguments bind for this invocation
        only; rebinding an already-bound field requires ``override_args``."""
        if not self.type_def.is_functor:
            raise TypeError(f"{self.type_name} is not a functor")
        if override_args:
            bound = ObjectNode(self.type_def, {**self._fields, **kwargs})._fields
        else:
            bound = self.bind(**kwargs)._fields
        missing = [p.name for p in self.type_def.params if p.name not in bound]
        if missing:
            raise MissingRequiredField(f"calling {self.type_name} with unbound fields: {', '.join(missing)}")
        return self.type_def.impl(**{name: node.to_plain() for name, node in bound.items()})

    def __getattr__(self, name):
        # Instance slots and methods resolve normally; this only sees misses.
        if name.startswith("_"):
            raise AttributeError(name)
        fields = object.__getattribute__(self, "_fields")
        if name in fields:
            return fields[name]
        raise AttributeError(f"{self.type_name!r} object has no bound field {name!r}")

    def __getitem__(self, key):
        return self._fields[key]

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self._fields.items())
        return f"{self.type_name}({inner})"


def _copy_children(fresh, store, items, replaced):
    """`store` (an empty dict, or a list as long as `items`) filled by key with
    the children that ``_copy`` gives `fresh` from `items`, linked to it."""
    link = weakref.ref(fresh)
    for key, child in items:
        new = child._copy() if replaced is None or key not in replaced else replaced[key]
        if new._parent is not None:
            new = new._copy()
        new._parent = (link, key)
        store[key] = new
    return store


class HyperValue(SymbolicValue):
    """Marker base for to-be-determined nodes; concrete kinds live in
    :mod:`symsearch.hyper`."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Inquiry operations
# ---------------------------------------------------------------------------

def equal(a, b) -> bool:
    """Structural equality over coerced symbolic values."""
    a = to_symbolic(a)
    b = to_symbolic(b)
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    return a._equals_same_kind(b)


def clone(x) -> SymbolicValue:
    return to_symbolic(x).clone()


def get(x: SymbolicValue, path: "KeyPath | str") -> SymbolicValue:
    path = as_path(path)
    node = x
    for depth, segment in enumerate(path.segments):
        try:
            node = node.get_child(segment)
        except PathNotFound:
            prefix = KeyPath(path.segments[: depth + 1]).render()
            raise PathNotFound(f"no node at {prefix!r}") from None
    return node


def has(x: SymbolicValue, path: "KeyPath | str") -> bool:
    try:
        get(x, path)
        return True
    except PathNotFound:
        return False


def parent_of(node: SymbolicValue) -> SymbolicValue | None:
    """The node's parent, or None at a root (as a subtree is once its parent is gone)."""
    return None if node._parent is None else node._parent[0]()


def path_of(node: SymbolicValue) -> KeyPath:
    return _path_within(None, node)


def _path_within(top, node) -> KeyPath:
    """Path of `node` below its ancestor `top`, or below its root when `top`
    is None."""
    segments = []
    while node is not top and (link := node._parent) is not None and (parent := link[0]()) is not None:
        segments.append(link[1])
        node = parent
    return KeyPath(tuple(reversed(segments)))


def walk(x: SymbolicValue, root: KeyPath = KeyPath()) -> Iterator[tuple[KeyPath, SymbolicValue]]:
    """Depth-first pre-order traversal yielding (path, node), root included."""
    stack = [(root, x)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend(reversed([(path.child(seg), c) for seg, c in node.child_items()]))


def query(x: SymbolicValue, selector) -> dict:
    """Collect sub-nodes matching a selector.

    The selector is either an anchored regular expression matched against the
    full rendered path, or a predicate called as ``selector(path, value,
    parent)``.  Matches come back as {rendered path: node} in depth-first
    pre-order.
    """
    if isinstance(selector, str):
        try:
            pattern = re.compile(selector)
        except re.error as exc:
            raise InvalidPattern(f"bad pattern {selector!r}: {exc}") from None
        match = lambda path, node, parent: pattern.fullmatch(path) is not None
    elif callable(selector):
        match = selector
    else:
        raise InvalidPattern(f"selector must be pattern text or a predicate, got {selector!r}")
    found = {}
    stack = [("", x, parent_of(x))]
    while stack:
        text, node, parent = stack.pop()
        if match(text, node, parent):
            found[text] = node
        stack.extend(reversed([(join_segment(text, key), child, node) for key, child in node.child_items()]))
    return found


# ---------------------------------------------------------------------------
# Rebind
# ---------------------------------------------------------------------------

class Set:
    """Replace the node at the path with a new value."""

    def __init__(self, value):
        self.value = value


class Insert:
    """Insert a value before the indexed position of a sequence parent."""

    def __init__(self, value):
        self.value = value


class Delete:
    """Remove the node at the path from its sequence or mapping parent."""


DELETE = Delete()


def rebind(x: SymbolicValue, edits) -> SymbolicValue:
    """Return an edited copy of `x`.

    With a mapping of ``{path: directive-or-value}``, every path is checked
    against `x` before anything is applied, and every path addresses `x`
    itself: Sets and list directives in one sequence use its original
    indices.  Edits below a path that a Set or Delete of the same mapping
    replaces are dropped: they change, check and fire nothing.  A Set equal
    to the node it replaces is no change, and Set and Insert values are
    attached as clones.  With a callable, the transform is applied to every
    node in depth-first post-order and receives the node's rendered path;
    returning a value equal to the input (or None), or the node of `x` at
    that path, means "no change".  A returned value is attached as it is, or
    cloned once when it already sits in a tree; it is not re-visited, and
    what changed below the node it replaces is dropped.

    Both forms run one rebuild that copies each node of the result once and
    notes on its way the nearest object field enclosing each change and each
    object with a recompute hook above one.  Each noted field is then
    re-checked against its spec; when several fail, the one reported covers
    the first change in post-order for a transform, and for a mapping in the
    order Inserts, Deletes, then Sets deepest first, each in mapping order.
    Last, each hook fires once, bottom-up: deepest first, then by path.
    """
    checks, hooks = [], []
    if callable(edits) and not isinstance(edits, dict):
        result, _ = _transform(x, "", None, edits, checks, hooks, itertools.count())
    else:
        result, _ = _apply(_plan(x, edits), checks, hooks)
    if result is x or result._parent is not None:
        result = result.clone()
    for _, value, spec in sorted(checks, key=lambda check: check[0]):
        _check_lazily(spec, value)
    for obj in sorted(hooks, key=_hook_order):
        obj.type_def.recompute_hook(obj)
    return result


class _Edit:
    """One node of a compiled edit plan: the original node it addresses
    (None for an Insert after a sequence's last element), its directive and
    that directive's rank for re-checks, and the plan below it by child key
    (a list index or map key)."""

    __slots__ = ("node", "directive", "order", "below")

    def __init__(self, node):
        self.node = node
        self.directive = self.order = None
        self.below = {}


def _plan(x: SymbolicValue, edits: dict) -> _Edit:
    """`edits` checked against `x` in mapping order and compiled into a trie of
    `_Edit`s; the descent that places a path is its one walk in `x`."""
    plan = [(as_path(path), d if isinstance(d, (Set, Insert, Delete)) else Set(d))
            for path, d in edits.items()]
    top = _Edit(x)
    for index, (path, directive) in enumerate(plan):
        is_set = isinstance(directive, Set)
        if path.is_root and not is_set:
            raise IllegalDirective("insert/delete cannot target the root")
        edit, last = top, len(path.segments) - 1
        for depth, key in enumerate(path.segments):
            if depth == last and not is_set:
                _check_splice(edit.node, path, directive)
            sub = edit.below.get(key)
            if sub is None:
                try:
                    child = edit.node.get_child(key)
                except PathNotFound:
                    child = None  # an Insert after the last element, or a refused path
                sub = edit.below[key] = _Edit(child)
            edit = sub
            if edit.node is None and not (depth == last and isinstance(directive, Insert)):
                raise PathNotFound(f"no node at {KeyPath(path.segments[: depth + 1]).render()!r}")
        if is_set:
            edit.order = (2, -len(path.segments), index)
        else:
            edit.order = (0 if isinstance(directive, Insert) else 1, 0, index)
        edit.directive = directive
    return top


def _check_splice(parent, path: KeyPath, directive) -> None:
    """Raise unless the Insert or Delete at `path` fits the original `parent`;
    the descent then finds a mapping's missing key as it finds any other."""
    key = path.last
    if isinstance(directive, Insert):
        if not isinstance(parent, Sequence) or type(key) is not int:
            raise IllegalDirective(f"insert requires a sequence parent at {path.parent.render()!r}")
        if not 0 <= key <= len(parent):
            raise IllegalDirective(f"insert index {key} out of range 0..{len(parent)}")
    elif isinstance(parent, Sequence):
        if type(key) is not int or not 0 <= key < len(parent):
            raise IllegalDirective(f"delete index out of range at {path.render()!r}")
    elif not isinstance(parent, Mapping):
        raise IllegalDirective(f"delete requires a sequence or mapping parent at {path.parent.render()!r}")


# The rebuild shared by both forms of rebind.  Each step returns the node it
# built and `first`, the order of its first change that no object claimed, or
# None.  A rebuilt object claims the changes below each replaced field: it
# appends (first, new field value, spec) to `checks`, and itself to `hooks`
# when it has a recompute hook.

def _apply(edit: _Edit, checks: list, hooks: list) -> tuple:
    """The node `edit` addresses after the edits at and below it (the node
    itself when nothing changed, else one fresh copy), and its first change."""
    node, directive = edit.node, edit.directive
    if isinstance(directive, Set):
        new = to_symbolic(directive.value)
        if equal(node, new):
            return node, None
        return new.clone(), edit.order
    replaced, firsts, spliced = {}, [], False
    for key, sub in edit.below.items():
        if isinstance(sub.directive, (Insert, Delete)):
            spliced = True
            firsts.append(sub.order)
            if isinstance(sub.directive, Delete) or not sub.below:
                continue
        new, first = _apply(sub, checks, hooks)
        if new is not sub.node:
            replaced[key] = new
            firsts.append(first)
    if spliced:
        return _spliced(node, edit.below, replaced), _earliest(firsts)
    return _rebuilt(node, replaced, firsts, checks, hooks) if replaced else (node, None)


def _spliced(node, below: dict, replaced: dict) -> SymbolicValue:
    """A copy of the sequence or mapping `node` with the Inserts and Deletes
    of `below` applied at its original positions and its `replaced`
    children in place."""
    if isinstance(node, Mapping):
        return Mapping([(key, replaced[key] if key in replaced else child._copy())
                        for key, child in node._entries.items()
                        if key not in below or not isinstance(below[key].directive, Delete)])
    old, children = node._children, []
    for i in range(len(old) + 1):
        directive = below[i].directive if i in below else None
        if isinstance(directive, Insert):
            children.append(to_symbolic(directive.value).clone())
        if i < len(old) and not isinstance(directive, Delete):
            children.append(replaced[i] if i in replaced else old[i]._copy())
    return Sequence(children)


def _transform(node, text, parent, fn, checks, hooks, clock) -> tuple:
    """`node` after the transform (the node itself when nothing under it
    changed, else one copy built from its replaced children and clones of
    the rest, or the value `fn` returned for it), and its first change; a
    change's order is its place in post-order, read from `clock`."""
    checked, hooked = len(checks), len(hooks)
    replaced = firsts = None
    for key, child in node.child_items():
        new_child, first = _transform(child, join_segment(text, key), node, fn, checks, hooks, clock)
        if new_child is not child:
            if replaced is None:
                replaced, firsts = {}, []
            replaced[key] = new_child
            firsts.append(first)
    current, first = (node, None) if replaced is None else _rebuilt(node, replaced, firsts, checks, hooks)
    returned = fn(text, current, parent)
    if returned is None or returned is current or equal(new := to_symbolic(returned), current):
        return current, first
    del checks[checked:], hooks[hooked:]  # found in the copy that `new` replaces
    return new, next(clock)


def _rebuilt(node, replaced: dict, firsts: list, checks: list, hooks: list) -> tuple:
    """``node._copy(replaced)`` and the first of the `firsts` of its replaced
    children; an object instead claims them, noting a re-check of each
    replaced field that holds a change, and its recompute hook."""
    fresh = node._copy(replaced)
    if not isinstance(node, ObjectNode):
        return fresh, _earliest(firsts)
    for name, first in zip(replaced, firsts):
        if first is not None:
            checks.append((first, fresh._fields[name], node.type_def.param(name).spec))
    if node.type_def.recompute_hook is not None:
        hooks.append(fresh)
    return fresh, None


def _earliest(firsts: list):
    return min((first for first in firsts if first is not None), default=None)


def _hook_order(obj: ObjectNode) -> tuple:
    path = path_of(obj)
    return -len(path.segments), path.render()


# ---------------------------------------------------------------------------
# Whole-tree validation
# ---------------------------------------------------------------------------

def validate_tree(root: SymbolicValue) -> None:
    """Re-check every object field against its spec, in pre-order; raises on
    violation.  Paths (relative to `root`) are rendered only for the error."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ObjectNode):
            for param in node.type_def.params:
                if param.name in node._fields:
                    _check_lazily(param.spec, node._fields[param.name], root)
                elif not node.type_def.is_functor:
                    raise MissingRequiredField(
                        f"{node.type_name} at {_path_within(root, node).render()!r} "
                        f"is missing field {param.name!r}"
                    )
        stack.extend(reversed([child for _, child in node.child_items()]))


def _check_lazily(spec, value: SymbolicValue, top=None) -> None:
    """``spec.check(value)``, whose error takes the refused node's path below
    `top` (its root when None)."""
    try:
        spec.check(value)
    except ConstraintViolation as exc:
        exc.path = _path_within(top, exc.value).render()
        raise
