"""Exception hierarchy shared by all rstboost modules.

The class of an error fixes the command line's exit status: a ``UsageError``
exits 1, a ``DataError`` exits 2, and any other error is an internal fault
(exit 3).  ``config_from_json`` reads every config from JSON (the model file's three
and ``synth --config``), with ``json_typed`` as the one type rule and
``check_keys`` as the one key rule, which the model file's other objects follow too.
"""

import dataclasses
import typing


def json_typed(value, kind) -> bool:
    """Whether a JSON value has a setting's type ``kind``: a float setting also takes an
    int, a bool is not an int, and a ``tuple[T, ...]`` setting takes a list of ``T``."""
    if typing.get_origin(kind) is tuple:
        return type(value) is list and all(json_typed(v, typing.get_args(kind)[0]) for v in value)
    return type(value) is kind or (kind, type(value)) == (float, int)


def check_keys(what: str, values: dict, keys, path: str | None = None) -> None:
    """Refuse (InvalidConfig) the JSON object ``values``, a ``what``, if it has a key not in
    ``keys``, or, when given its key ``path`` in its file (a prefix such as
    ``"boost_config."``, ``""`` at the top), if it lacks one: such an object is complete."""
    if unknown := sorted(set(values) - set(keys)):
        raise InvalidConfig(f"unknown {what} keys: {unknown}")
    if path is not None and (missing := [path + key for key in keys if key not in values]):
        raise InvalidConfig(f"missing {what} keys: {missing}")


def config_from_json(cls, values: dict, path: str | None = None):
    """The dataclass ``cls`` built from the JSON object ``values``: every key must name a
    field, every value must have its field's ``json_typed`` type, a field that is itself a
    dataclass is read by this function, and lists become tuples.  Given the object's key
    ``path`` (see ``check_keys``), as a model file's configs are, every field must be
    present; without it, as in ``synth --config``, the fields left out keep their defaults."""
    kinds = typing.get_type_hints(cls)
    check_keys(cls.__name__, values, kinds, path)
    fields = {}
    for name, value in values.items():
        kind = kinds[name]
        if dataclasses.is_dataclass(kind):
            value = config_from_json(kind, value, None if path is None else f"{path}{name}.")
        elif not json_typed(value, kind):
            shown = kind if typing.get_origin(kind) else kind.__name__
            raise InvalidConfig(f"{cls.__name__}.{name} must be {shown}, got {value!r}")
        fields[name] = tuple(value) if type(value) is list else value
    return cls(**fields)


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
    """An operation that needs at least one treebank entry, or one declared relation,
    got none."""


class DocumentMismatch(DataError):
    """Two trees or treebanks that are being compared cover different documents."""


class RelationInventoryMismatch(DataError):
    """An evaluation treebank uses relations unknown to the model."""
