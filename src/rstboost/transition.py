"""Shift-reduce transition system over binary discourse trees.

A parser state is a stack of partial subtrees plus a cursor into the EDU
queue.  Shift pushes the next EDU as a leaf; Reduce(nuclearity, relation)
pops the top two subtrees and pushes their labeled parent.  Every valid
tree over n EDUs has exactly one derivation: n shifts and n-1 reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import IllegalAction, InvalidInput
from .treebank import DiscourseNode, Internal, Leaf, postorder


@dataclass(frozen=True)
class Shift:
    def __str__(self) -> str:
        return "SHIFT"


@dataclass(frozen=True)
class Reduce:
    nuclearity: str
    relation: str

    def __str__(self) -> str:
        return f"REDUCE {self.nuclearity} {self.relation}"


Action = Union[Shift, Reduce]
SHIFT = Shift()


@dataclass(frozen=True)
class ParserState:
    stack: tuple[DiscourseNode, ...]
    queue_cursor: int
    n_edus: int

    @property
    def is_terminal(self) -> bool:
        return len(self.stack) == 1 and self.queue_cursor > self.n_edus

    @property
    def can_shift(self) -> bool:
        return self.queue_cursor <= self.n_edus

    @property
    def can_reduce(self) -> bool:
        return len(self.stack) >= 2


def initial_state(n_edus: int) -> ParserState:
    if n_edus < 1:
        raise InvalidInput(f"n_edus must be >= 1, got {n_edus}")
    return ParserState(stack=(), queue_cursor=1, n_edus=n_edus)


def apply(state: ParserState, action: Action) -> ParserState:
    """Apply one action, returning a new state (inputs are never mutated)."""
    if isinstance(action, Shift):
        if not state.can_shift:
            raise IllegalAction("Shift with an empty queue")
        return ParserState(
            stack=state.stack + (Leaf(state.queue_cursor),),
            queue_cursor=state.queue_cursor + 1,
            n_edus=state.n_edus,
        )
    if not state.can_reduce:
        raise IllegalAction(f"Reduce with {len(state.stack)} item(s) on the stack")
    left, right = state.stack[-2], state.stack[-1]
    node = Internal(action.nuclearity, action.relation, left, right)
    return ParserState(
        stack=state.stack[:-2] + (node,),
        queue_cursor=state.queue_cursor,
        n_edus=state.n_edus,
    )


def oracle(tree: DiscourseNode) -> list[Action]:
    """Gold action sequence: post-order, Shift at leaves, Reduce at internals."""
    return [SHIFT if isinstance(node, Leaf) else Reduce(node.nuclearity, node.relation)
            for node in postorder(tree)]
