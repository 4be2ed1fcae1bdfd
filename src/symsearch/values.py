"""Symbolic value trees.

Every value in this package is a node in a tree: a primitive (bool, int,
float, text or null), an ordered sequence, a string-keyed mapping, a typed
object with schema-constrained fields, or a hyper value standing in for a
to-be-determined part (see :mod:`symsearch.hyper`).

Trees are value-semantic.  Structural equality (``equal``/``==``) compares
variants, type names, keys and all descendants; ``clone`` produces an
independent deep copy.  A node belongs to at most one parent: attaching a
value that already sits in a tree clones it first.  Every kind copies
itself through one routine, ``_copy``, which takes replacement children by
key; ``clone`` is the case with none.  A copy re-runs no check, since its
source already passed them.

Manipulation goes through :func:`rebind`, which never mutates its input; it
returns an edited copy.  A transform copies each node of the result once:
an ancestor of a change is rebuilt from its new children plus one clone of
each unchanged sibling.  Inquiry is served by :func:`get`, :func:`query`,
:func:`parent_of` and :func:`path_of`.

Paths are rendered as text only where text is needed.  :func:`query` and the
transform carry the parent's text down and append one segment per child;
:func:`walk` yields :class:`KeyPath` values; :func:`validate_tree` and the
re-check after a rebind render a path only for the error they raise.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator

from .errors import (
    BindingConflict,
    ConstraintViolation,
    IllegalDirective,
    InvalidPattern,
    MissingRequiredField,
    PathNotFound,
    ReservedKey,
)
from .paths import KeyPath, ListIndex, MapKey, as_path, is_identifier

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
    """Base class for all tree nodes."""

    __slots__ = ("_parent",)

    def __init__(self):
        self._parent = None  # (parent node, segment) or None

    # -- tree structure -------------------------------------------------

    def _items(self) -> Iterable[tuple[int | str, "SymbolicValue"]]:
        """(key, child) pairs in canonical order; a key is a list index or
        map key text."""
        return ()

    def child_items(self) -> list[tuple[object, "SymbolicValue"]]:
        """(segment, child) pairs in canonical order."""
        return [(child._parent[1], child) for _, child in self._items()]

    def get_child(self, segment) -> "SymbolicValue":
        raise PathNotFound(f"{self._variant_name()} has no child {segment!r}")

    def _adopt(self, segment, child) -> "SymbolicValue":
        """Attach `child` under `segment`, cloning it if it already has a parent."""
        node = to_symbolic(child)
        if node._parent is not None:
            node = node.clone()
        node._parent = (self, segment)
        return node

    def _replace_child(self, old: "SymbolicValue", new) -> "SymbolicValue":
        raise IllegalDirective(f"{self._variant_name()} children cannot be replaced")

    # -- value semantics -------------------------------------------------

    def clone(self) -> "SymbolicValue":
        return self._copy()

    def _copy(self, replaced: dict | None = None) -> "SymbolicValue":
        """A fresh copy of this node, taking each child from `replaced` (by
        key) when present there and cloning it otherwise.  The source already
        passed every check, so nothing is re-checked."""
        raise NotImplementedError

    def _equals_same_kind(self, other) -> bool:
        raise NotImplementedError

    def __eq__(self, other):
        try:
            node = to_symbolic(other)
        except TypeError:
            return NotImplemented
        return equal(self, node)

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # structural equality makes nodes unhashable

    def to_plain(self):
        """Plain-Python view: primitives unwrap, containers convert, objects
        and hyper values stay symbolic."""
        return self

    def _variant_name(self) -> str:
        return type(self).__name__

    @property
    def is_hyper(self) -> bool:
        return isinstance(self, HyperValue)


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

    __slots__ = ("_children",)

    def __init__(self, children: Iterable = ()):
        super().__init__()
        self._children = []
        for child in children:
            self._children.append(self._adopt(ListIndex(len(self._children)), child))

    def _items(self):
        return enumerate(self._children)

    def get_child(self, segment):
        if isinstance(segment, ListIndex) and 0 <= segment.index < len(self._children):
            return self._children[segment.index]
        raise PathNotFound(f"no element {segment!r}")

    def _replace_child(self, old, new):
        i = _index_by_identity(self._children, old)
        node = self._adopt(ListIndex(i), new)
        old._parent = None
        self._children[i] = node
        return node

    def _insert_before(self, anchor: "SymbolicValue | None", value):
        i = len(self._children) if anchor is None else _index_by_identity(self._children, anchor)
        node = self._adopt(ListIndex(i), value)
        self._children.insert(i, node)
        self._reindex()
        return node

    def _remove(self, child):
        i = _index_by_identity(self._children, child)
        self._children[i]._parent = None
        del self._children[i]
        self._reindex()

    def _reindex(self):
        for i, c in enumerate(self._children):
            c._parent = (self, ListIndex(i))

    def _copy(self, replaced=None):
        fresh = Sequence.__new__(Sequence)
        fresh._parent = None
        fresh._children = _copy_children(fresh, self._items(), replaced)
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

    __slots__ = ("_entries",)

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
            self._entries[key] = self._adopt(MapKey(key), value)

    def _items(self):
        return self._entries.items()

    def get_child(self, segment):
        if isinstance(segment, MapKey) and segment.key in self._entries:
            return self._entries[segment.key]
        raise PathNotFound(f"no key {segment!r}")

    def _replace_child(self, old, new):
        key = _key_by_identity(self._entries, old)
        node = self._adopt(MapKey(key), new)
        old._parent = None
        self._entries[key] = node
        return node

    def _remove(self, child):
        key = _key_by_identity(self._entries, child)
        self._entries[key]._parent = None
        del self._entries[key]

    def _copy(self, replaced=None):
        fresh = Mapping.__new__(Mapping)
        fresh._parent = None
        fresh._entries = dict(zip(self._entries, _copy_children(fresh, self._items(), replaced)))
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

    Fields of functor (callable) types may be left unbound; all other types
    require every field bound after defaults are applied.
    """

    __slots__ = ("type_def", "_fields")

    def __init__(self, type_def, fields: dict):
        super().__init__()
        self.type_def = type_def
        self._fields = {}
        for param in type_def.params:
            if param.name in fields:
                self._fields[param.name] = self._adopt(MapKey(param.name), fields[param.name])

    @property
    def type_name(self) -> str:
        return self.type_def.type_name

    def _items(self):
        return self._fields.items()

    def get_child(self, segment):
        if isinstance(segment, MapKey) and segment.key in self._fields:
            return self._fields[segment.key]
        raise PathNotFound(f"no bound field {segment!r}")

    def _replace_child(self, old, new):
        name = _key_by_identity(self._fields, old)
        node = self._adopt(MapKey(name), new)
        old._parent = None
        self._fields[name] = node
        self._reorder()
        return node

    def _reorder(self):
        ordered = {}
        for param in self.type_def.params:
            if param.name in self._fields:
                ordered[param.name] = self._fields[param.name]
        self._fields = ordered

    def _copy(self, replaced=None):
        fresh = ObjectNode.__new__(ObjectNode)
        fresh._parent = None
        fresh.type_def = self.type_def
        fresh._fields = dict(zip(self._fields, _copy_children(fresh, self._items(), replaced)))
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
        result = self.clone()
        for name, value in fields.items():
            param = self.type_def.param(name)
            if param is None:
                raise TypeError(f"{self.type_name} has no field {name!r}")
            if name in result._fields:
                raise BindingConflict(f"{self.type_name}.{name} is already bound")
            node = to_symbolic(value)
            param.spec.check(node, name)
            result._fields[name] = result._adopt(MapKey(name), node)
        result._reorder()
        return result

    def __call__(self, override_args: bool = False, **kwargs):
        """Invoke a functor.  Call-time arguments bind for this invocation
        only; rebinding an already-bound field requires ``override_args``."""
        if not self.type_def.callable:
            raise TypeError(f"{self.type_name} is not a functor")
        bound = dict(self._fields)
        for name, value in kwargs.items():
            param = self.type_def.param(name)
            if param is None:
                raise TypeError(f"{self.type_name} has no field {name!r}")
            if name in bound and not override_args:
                raise BindingConflict(
                    f"{self.type_name}.{name} is already bound; pass override_args=True to rebind at call time"
                )
            node = to_symbolic(value)
            param.spec.check(node, name)
            bound[name] = node
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


class HyperValue(SymbolicValue):
    """Marker base for to-be-determined nodes; concrete kinds live in
    :mod:`symsearch.hyper`."""

    __slots__ = ()

    def check_against(self, spec, path: str) -> None:
        """Raise ConstraintViolation unless every possible materialization of
        this node would satisfy `spec`."""
        raise NotImplementedError


def _copy_children(fresh, items, replaced) -> list:
    """Copies of `items`' children attached to `fresh` under the same
    segments: a child whose key is in `replaced` becomes that node (cloned
    if it already has a parent), every other child a clone."""
    copies = []
    for key, child in items:
        if replaced is None or key not in replaced:
            new = child._copy()
        else:
            new = replaced[key]
            if new._parent is not None:
                new = new._copy()
        new._parent = (fresh, child._parent[1])
        copies.append(new)
    return copies


def _index_by_identity(children: list, node) -> int:
    for i, c in enumerate(children):
        if c is node:
            return i
    raise PathNotFound("node is no longer attached to this parent")


def _key_by_identity(entries: dict, node) -> str:
    for k, v in entries.items():
        if v is node:
            return k
    raise PathNotFound("node is no longer attached to this parent")


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
    return None if node._parent is None else node._parent[0]


def path_of(node: SymbolicValue) -> KeyPath:
    return _path_within(None, node)


def _path_within(top, node) -> KeyPath:
    """Path of `node` below its ancestor `top`, or below its root when `top`
    is None."""
    segments = []
    while node is not top and node._parent is not None:
        node, segment = node._parent
        segments.append(segment)
    return KeyPath(tuple(reversed(segments)))


def _child_text(text: str, key) -> str:
    """Rendered path of the child at `key` (a list index or map key) of the
    node whose rendered path is `text`: one segment appended, in the fixed
    grammar of :meth:`KeyPath.render`."""
    if type(key) is int:
        return f"{text}[{key}]"
    return f"{text}.{key}" if text else key


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
        stack.extend(reversed([(_child_text(text, key), child, node) for key, child in node._items()]))
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


def _as_directive(value):
    if isinstance(value, (Set, Insert, Delete)):
        return value
    return Set(value)


def rebind(x: SymbolicValue, edits) -> SymbolicValue:
    """Return an edited copy of `x`.

    With a mapping of ``{path: directive-or-value}``, every path is validated
    against the original tree before anything is applied, and list directives
    sharing a parent are applied so indices always refer to the original
    children.  With a callable, the transform is applied to every node in
    depth-first post-order and receives the node's rendered path, built by
    appending one segment to its parent's; returning a value equal to the
    input (or None) means "no change", and replacement subtrees are not
    re-visited.  Each node of the result is copied once: a node whose
    subtree changed is rebuilt from its replaced children and a clone of
    each other child.  A returned value is attached as it is, or cloned
    once when it already sits in a tree.

    Changed fields are re-validated against their specs, then each affected
    object's recompute hook fires exactly once, bottom-up.
    """
    if callable(edits) and not isinstance(edits, dict):
        return _rebind_transform(x, edits)
    return _rebind_edits(x, edits)


def _rebind_edits(x: SymbolicValue, edits: dict) -> SymbolicValue:
    plan = [(as_path(path), _as_directive(d)) for path, d in edits.items()]
    for path, directive in plan:
        _validate_directive(x, path, directive)

    work = x.clone()
    root_box = [work]
    changed: list[KeyPath] = []

    inserts, deletes, sets = [], [], []
    for path, directive in plan:
        if isinstance(directive, Insert):
            parent = get(work, path.parent)
            index = path.last.index
            anchor = parent._children[index] if index < len(parent) else None
            inserts.append((parent, anchor, directive.value, path))
        elif isinstance(directive, Delete):
            parent = get(work, path.parent)
            deletes.append((parent, get(work, path), path))
        else:
            sets.append((path, get(work, path), directive.value))

    for parent, anchor, value, path in inserts:
        parent._insert_before(anchor, clone(value))
        changed.append(path.parent)
    for parent, node, path in deletes:
        parent._remove(node)
        changed.append(path.parent)
    # Deeper sets first, so an outer replacement deterministically supersedes
    # edits inside the subtree it replaces.
    for path, old, value in sorted(sets, key=lambda item: -len(item[0].segments)):
        new = to_symbolic(value)
        if equal(old, new):
            continue
        if path.is_root:
            root_box[0] = new.clone() if new._parent is not None else new
        else:
            if old._parent is None:
                continue  # subtree already replaced by an outer set
            parent = old._parent[0]
            parent._replace_child(old, clone(new))
        changed.append(path)

    result = root_box[0]
    _validate_changed_fields(result, changed)
    _fire_hooks(result, changed)
    return result


def _validate_directive(x, path, directive):
    if isinstance(directive, Set):
        get(x, path)  # raises PathNotFound when unresolvable
        return
    if path.is_root:
        raise IllegalDirective("insert/delete cannot target the root")
    parent = get(x, path.parent)
    segment = path.last
    if isinstance(directive, Insert):
        if not isinstance(parent, Sequence) or not isinstance(segment, ListIndex):
            raise IllegalDirective(f"insert requires a sequence parent at {path.parent.render()!r}")
        if not 0 <= segment.index <= len(parent):
            raise IllegalDirective(f"insert index {segment.index} out of range 0..{len(parent)}")
        return
    # Delete
    if isinstance(parent, Sequence):
        if not isinstance(segment, ListIndex) or not 0 <= segment.index < len(parent):
            raise IllegalDirective(f"delete index out of range at {path.render()!r}")
    elif isinstance(parent, Mapping):
        get(x, path)
    else:
        raise IllegalDirective(f"delete requires a sequence or mapping parent at {path.parent.render()!r}")


def _rebind_transform(x: SymbolicValue, fn) -> SymbolicValue:
    changed: list[str] = []
    result = _transform(x, "", None, fn, changed)
    if result is x or result._parent is not None:
        result = result.clone()
    paths = [KeyPath.parse(text) for text in changed]
    _validate_changed_fields(result, paths)
    _fire_hooks(result, paths)
    return result


def _transform(node, text, parent, fn, changed):
    """`node` after the transform: the node itself when nothing under it
    changed, else one copy built from its replaced children and clones of
    the rest.  Appends the rendered path of each changed node to `changed`."""
    replaced = None
    for key, child in node._items():
        new_child = _transform(child, _child_text(text, key), node, fn, changed)
        if new_child is not child:
            if replaced is None:
                replaced = {}
            replaced[key] = new_child
    current = node if replaced is None else node._copy(replaced)
    returned = fn(text, current, parent)
    if returned is None or returned is current:
        return current
    new = to_symbolic(returned)
    if equal(new, current):
        return current
    changed.append(text)
    return new


def _validate_changed_fields(root, changed):
    seen = set()
    for path in changed:
        field = _enclosing_object_field(root, path)
        if field is None:
            continue
        obj, param = field
        key = (id(obj), param.name)
        if key in seen:
            continue
        seen.add(key)
        if param.name in obj._fields:
            _check_lazily(param.spec, obj._fields[param.name])


def _enclosing_object_field(root, path):
    """Nearest (object, param) whose field subtree contains `path`, or None."""
    node = root
    best = None
    for segment in path.segments:
        if isinstance(node, ObjectNode) and isinstance(segment, MapKey):
            param = node.type_def.param(segment.key)
            if param is not None:
                best = (node, param)
        try:
            node = node.get_child(segment)
        except PathNotFound:
            break  # the edit deleted this branch; nothing further encloses it
    return best


def _fire_hooks(root, changed):
    affected = {}
    for path in changed:
        node = root
        depth = 0
        chain = [(node, depth)]
        for segment in path.segments:
            try:
                node = node.get_child(segment)
            except PathNotFound:
                break
            depth += 1
            chain.append((node, depth))
        # The edited position itself does not recompute; its ancestors do.
        for ancestor, d in chain[:-1]:
            if isinstance(ancestor, ObjectNode) and ancestor.type_def.recompute_hook is not None:
                affected[id(ancestor)] = (ancestor, d)
    ordered = sorted(affected.values(), key=lambda item: (-item[1], path_of(item[0]).render()))
    for obj, _ in ordered:
        obj.type_def.recompute_hook(obj)


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
                elif not node.type_def.callable:
                    raise MissingRequiredField(
                        f"{node.type_name} at {_path_within(root, node).render()!r} "
                        f"is missing field {param.name!r}"
                    )
        stack.extend(reversed([child for _, child in node._items()]))


def _check_lazily(spec, value: SymbolicValue, top=None) -> None:
    """``spec.check(value)``, rendering the path of `value` below `top` (its
    root when None) only when the check fails."""
    try:
        spec.check(value)
    except ConstraintViolation:
        spec.check(value, _path_within(top, value).render())
        raise
