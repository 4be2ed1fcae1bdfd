"""Exception hierarchy shared by all symsearch modules."""

from __future__ import annotations


class SymsearchError(Exception):
    """Base class for every error raised by this package."""


class _FieldError(SymsearchError):
    """An error built from its named `_fields`, in order: its text renders
    them by `_text` when read, and a pickled copy, as from a ``--jobs``
    worker, is rebuilt from them."""

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __str__(self):
        return self._text.format_map(vars(self))


# --- symbolic tree construction and manipulation ---

class DuplicateTypeName(SymsearchError):
    pass


class InvalidSpec(SymsearchError):
    pass


class UnknownType(SymsearchError):
    pass


class ConstraintViolation(_FieldError):
    """A value failed the ValueSpec attached to its field: the refused node,
    its path and the spec, so callers can report precisely what was rejected."""

    _fields = ("path", "spec", "value", "reason")
    reason = ""

    def __str__(self):
        detail = f" ({self.reason})" if self.reason else ""
        return f"value at {self.path!r} violates {self.spec}{detail}: {self.value!r}"


class MissingRequiredField(SymsearchError):
    pass


class UnknownField(SymsearchError, TypeError):
    """A field name the object's type does not declare."""


class BindingConflict(SymsearchError):
    """A functor argument was bound twice without the override flag."""


class PathNotFound(SymsearchError):
    pass


class PathSyntaxError(PathNotFound):
    """Unparseable path text.  Subclass of PathNotFound so callers that only
    distinguish resolvable/unresolvable paths keep working."""


class InvalidPattern(SymsearchError):
    pass


class IllegalDirective(SymsearchError):
    pass


class ReservedKey(SymsearchError):
    pass


class MalformedDocument(SymsearchError):
    pass


# --- hyper values ---

class BadPoint(_FieldError):
    """A point that a ``hyper`` point rule refuses, by route `label` and rule `detail`."""

    _fields, _text = ("label", "detail"), "{label} {detail}"


class EmptyCandidates(BadPoint):
    pass


class BadRange(BadPoint):
    pass


class KTooLarge(BadPoint):
    pass


# --- abstraction layer ---

class NonconformingDNA(_FieldError):
    _fields, _text = ("point_id", "reason"), "decision at {point_id!r}: {reason}"


class ParseError(SymsearchError):
    pass


class ContinuousSpace(SymsearchError):
    pass


# --- algorithms ---

class UnsupportedSpace(SymsearchError):
    pass


class ExhaustedSpace(SymsearchError):
    pass


class UnknownProposal(SymsearchError):
    """Feedback for a DNA this algorithm instance never proposed or seeded."""


class BadSize(SymsearchError, ValueError):
    """A population or tournament size that is not an int in its range."""


# --- flows ---

class DoubleFeedback(SymsearchError):
    pass


class FeedbackSkipped(SymsearchError):
    pass


class EmptySelection(SymsearchError):
    pass


class DecisionStreamMismatch(_FieldError):
    """An eager program requested a different decision sequence than the one
    registered during collection, which signals a non-deterministic program."""

    _fields, _text = ("call_index", "reason"), "eager call #{call_index}: {reason}"


class EmptyRewards(SymsearchError):
    pass


class InvalidReward(SymsearchError):
    """A reward that is not a real number, does not fit a float, or is NaN
    or +inf; an infeasible trial should report -inf instead."""


# --- oracles and CLI ---

class UnknownKey(SymsearchError):
    pass


class ContinuousSpaceForTable(SymsearchError):
    pass


class BadDimensions(SymsearchError):
    pass
