"""Exception hierarchy shared by all symsearch modules."""

from __future__ import annotations


class SymsearchError(Exception):
    """Base class for every error raised by this package."""


# --- symbolic tree construction and manipulation ---

class DuplicateTypeName(SymsearchError):
    pass


class InvalidSpec(SymsearchError):
    pass


class UnknownType(SymsearchError):
    pass


class ConstraintViolation(SymsearchError):
    """A value failed the ValueSpec attached to its field.

    Carries the field path, the spec and the offending value so callers can
    report precisely what was rejected.
    """

    def __init__(self, path: str, spec: object, value: object, reason: str = ""):
        self.path = path
        self.spec = spec
        self.value = value
        detail = f" ({reason})" if reason else ""
        super().__init__(f"value at {path!r} violates {spec}{detail}: {value!r}")


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

class BadPoint(SymsearchError):
    """A point that a ``hyper`` point rule refuses, by route `label` and rule `detail`."""

    def __init__(self, label: str, detail: str):
        super().__init__(label, detail)  # as args, so that a pickled copy rebuilds
        self.label, self.detail = label, detail

    def __str__(self):
        return f"{self.label} {self.detail}"


class EmptyCandidates(BadPoint):
    pass


class BadRange(BadPoint):
    pass


class KTooLarge(BadPoint):
    pass


# --- abstraction layer ---

class NonconformingDNA(SymsearchError):
    def __init__(self, point_id: str, reason: str):
        self.point_id = point_id
        self.reason = reason
        super().__init__(f"decision at {point_id!r}: {reason}")


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


class DecisionStreamMismatch(SymsearchError):
    """An eager program requested a different decision sequence than the one
    registered during collection, which signals a non-deterministic program."""

    def __init__(self, call_index: int, reason: str):
        self.call_index = call_index
        super().__init__(f"eager call #{call_index}: {reason}")


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
