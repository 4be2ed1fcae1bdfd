"""Path addressing for symbolic trees.

A path is a sequence of segments leading from the tree root to a node.  A
segment is the key under which the child sits in its parent: an ``int`` for
a list index, and text for a mapping key, an object field name or the
``candidates`` edge of a categorical hyper value.  The text form is fixed:
the root renders as the empty string, a text key renders bare for the first
segment and ``.key`` afterwards, and a list index renders as ``[i]``; so
``KeyPath(("model", "children", 0, "filters"))`` renders as
``model.children[0].filters``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from .errors import PathSyntaxError

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# An index is written one way only: ASCII digits with no leading zero.
_TOKEN_RE = re.compile(r"\.?([A-Za-z_][A-Za-z0-9_]*)|\[(0|[1-9][0-9]*)\]")


def is_identifier(text: str) -> bool:
    return bool(IDENT_RE.fullmatch(text))


def join_segment(text: str, key: int | str) -> str:
    """Rendered path of the child at `key` of the node whose rendered path
    is `text`: the one-segment rule of the grammar."""
    if type(key) is int:
        return f"{text}[{key}]"
    return f"{text}.{key}" if text else key


@dataclass(frozen=True)
class KeyPath:
    """Immutable root-relative path; renders to/parses from the fixed grammar."""

    segments: tuple = ()

    def render(self, prefix: str = "") -> str:
        """This path's text after `prefix`, the text of the node it starts at."""
        return reduce(join_segment, self.segments, prefix)

    @classmethod
    def parse(cls, text: str) -> "KeyPath":
        if text == "":
            return cls()
        segments = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise PathSyntaxError(f"bad path syntax at offset {pos} in {text!r}")
            if m.group(1) is not None:
                # A dotted key is only legal after a preceding segment.
                if text[pos] == "." and not segments:
                    raise PathSyntaxError(f"path cannot start with '.': {text!r}")
                if text[pos] != "." and segments:
                    raise PathSyntaxError(f"missing '.' before key at offset {pos} in {text!r}")
                segments.append(m.group(1))
            else:
                segments.append(int(m.group(2)))
            pos = m.end()
        return cls(tuple(segments))

    def child(self, segment: int | str) -> "KeyPath":
        return KeyPath(self.segments + (segment,))

    @property
    def is_root(self) -> bool:
        return not self.segments

    @property
    def parent(self) -> "KeyPath":
        return KeyPath(self.segments[:-1])

    @property
    def last(self):
        return self.segments[-1]

    def __str__(self) -> str:
        return self.render()


def as_path(path: "KeyPath | str") -> KeyPath:
    if isinstance(path, KeyPath):
        return path
    return KeyPath.parse(path)
