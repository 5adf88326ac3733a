"""Exception hierarchy shared by all rstboost modules.

The class of an error fixes the command line's exit status: a ``UsageError``
exits 1, a ``DataError`` exits 2, and any other error is an internal fault
(exit 3).  ``json_typed`` is the one type rule for settings read from JSON.
"""


def json_typed(value, kind: type) -> bool:
    """Whether a JSON value has a setting's type ``kind``: a float setting also takes an
    int, and a bool is not an int."""
    return type(value) is kind or (kind, type(value)) == (float, int)


class RstBoostError(Exception):
    """Base class for all toolkit errors."""


class UsageError(RstBoostError):
    """A bad argument or configuration: the caller's to fix (exit 1)."""


class DataError(RstBoostError):
    """A bad input file or a mismatch between inputs (exit 2)."""


class MalformedSyntax(DataError):
    """Bracketed input that cannot be tokenized or parsed."""


class InvalidTree(DataError):
    """A structurally invalid discourse tree (non-binary node, bad label, ...)."""


class InvalidConfig(UsageError):
    """A configuration object violates its invariants."""


class InvalidInput(UsageError):
    """An argument outside an operation's documented domain."""


class IllegalAction(RstBoostError):
    """A shift-reduce action applied in a state where it is not legal."""


class DimensionMismatch(RstBoostError):
    """Array or configuration dimensions that do not line up."""


class IllegalGold(RstBoostError):
    """A gold label that is masked out as illegal in its state."""


class InvalidPrefix(UsageError):
    """An ensemble prefix index outside 1..len(steps)."""


class EmptyTreebank(DataError):
    """An operation that needs at least one treebank entry got none."""


class DocumentMismatch(DataError):
    """Two trees or treebanks that are being compared cover different documents."""


class RelationInventoryMismatch(DataError):
    """An evaluation treebank uses relations unknown to the model."""
