"""Sparse fixed-width feature rows for parser states.

Layout: three hashed bag-of-words blocks of ``hash_dim`` buckets each
(stack top span, stack second span, front-of-queue EDU), followed by four
structural scalars.  Token hashing uses BLAKE2b truncated to 64 bits and
keyed with ``hash_seed``, so rows are identical across runs, processes,
and platforms.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .treebank import DiscourseNode, Document
from .transition import ParserState

N_STRUCTURAL = 4
SPAN_CLIP = 8  # clip for the stack-depth and span-length scalars

CENTER = "center"
NUCLEUS = "nucleus"


@dataclass(frozen=True)
class EncoderConfig:
    max_span_tokens: int = 8
    hash_dim: int = 1024
    truncation_strategy: str = NUCLEUS
    hash_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_span_tokens < 1:
            raise InvalidConfig("max_span_tokens must be >= 1")
        if self.hash_dim < 8:
            raise InvalidConfig("hash_dim must be >= 8")
        if self.truncation_strategy not in (CENTER, NUCLEUS):
            raise InvalidConfig(
                f"unknown truncation strategy {self.truncation_strategy!r}"
            )

    @property
    def width(self) -> int:
        return 3 * self.hash_dim + N_STRUCTURAL


def truncate_center(tokens: list[str] | tuple[str, ...], max_len: int) -> list[str]:
    """Drop tokens from the middle, keeping ceil(L/2) head + floor(L/2) tail."""
    tokens = list(tokens)
    if len(tokens) <= max_len:
        return tokens
    head = math.ceil(max_len / 2)
    tail = max_len - head
    return tokens[:head] + (tokens[len(tokens) - tail:] if tail else [])


def represent_span(node: DiscourseNode, doc: Document, cfg: EncoderConfig) -> list[str]:
    """Token window for a stack item under the configured truncation strategy.  ``center``
    gives ``truncate_center`` of the span's tokens, reading only EDUs at its two ends."""
    limit = cfg.max_span_tokens
    if cfg.truncation_strategy == NUCLEUS:
        return truncate_center(doc.edus[node.head - 1], limit)
    lo, hi = node.span
    head: list[str] = []
    for edu_id in range(lo, hi + 1):
        head += doc.edus[edu_id - 1]
        if len(head) > limit:  # the span does not fit: read the window's tail from the back
            tail: list[str] = []
            while len(tail) < limit // 2:
                tail[:0] = doc.edus[hi - 1]
                hi -= 1
            return head[:limit - limit // 2] + tail[len(tail) - limit // 2:]
    return head  # the whole span fits


def hash_token(token: str, hash_seed: int) -> int:
    """Stable 64-bit token hash: BLAKE2b over '<seed>:<token>' bytes."""
    digest = hashlib.blake2b(
        f"{hash_seed}:{token}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _bag(tokens: list[str] | tuple[str, ...],
         cfg: EncoderConfig) -> tuple[list[int], list[float]]:
    """Hashed bag as (ascending buckets, weights), weight = count / max(1, len(tokens))."""
    counts: dict[int, int] = {}
    for token in tokens:
        bucket = hash_token(token, cfg.hash_seed) % cfg.hash_dim
        counts[bucket] = counts.get(bucket, 0) + 1
    n = max(1, len(tokens))
    buckets = sorted(counts)
    return buckets, [counts[bucket] / n for bucket in buckets]


def row_key(state: ParserState, cfg: EncoderConfig) -> tuple:
    """All that ``encode_state``'s row and the legality mask read of a state of a given
    document: the queue cursor, the stack depth, and the top two items' ``(span, head)``
    under ``nucleus`` truncation or only their ``span`` under ``center``."""
    nucleus = cfg.truncation_strategy == NUCLEUS
    return (state.queue_cursor, len(state.stack),
            *[(node.span, node.head) if nucleus else node.span for node in state.stack[-2:]])


def encode_state(state: ParserState, doc: Document, cfg: EncoderConfig,
                 bags: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Encode a parser state as one sparse row ``(indices, values)`` of width
    3*hash_dim + 4: int64 indices in ascending order and their nonzero
    float64 values.

    ``bags`` optionally memoizes each token tuple's hashed bag; it must only
    be shared between states of one document under one ``cfg``.
    """
    d = cfg.hash_dim
    bags = {} if bags is None else bags
    indices: list[int] = []
    values: list[float] = []

    def fill(offset: int, tokens: list[str] | tuple[str, ...]) -> None:
        key = tuple(tokens)
        bag = bags.get(key)
        if bag is None:
            bag = bags[key] = _bag(tokens, cfg)
        indices.extend([offset + bucket for bucket in bag[0]])
        values.extend(bag[1])

    top = state.stack[-1] if len(state.stack) >= 1 else None
    second = state.stack[-2] if len(state.stack) >= 2 else None
    if top is not None:
        fill(0, represent_span(top, doc, cfg))
    if second is not None:
        fill(d, represent_span(second, doc, cfg))
    if state.queue_cursor <= state.n_edus:
        fill(2 * d, doc.edus[state.queue_cursor - 1])

    def span_len(node: DiscourseNode | None) -> float:
        if node is None:
            return 0.0
        lo, hi = node.span
        return min(hi - lo + 1, SPAN_CLIP) / SPAN_CLIP

    for k, value in enumerate((min(len(state.stack), SPAN_CLIP) / SPAN_CLIP,
                               (state.n_edus - state.queue_cursor + 1) / state.n_edus,
                               span_len(top), span_len(second))):
        if value:
            indices.append(3 * d + k)
            values.append(value)
    return np.array(indices, dtype=np.int64), np.array(values, dtype=np.float64)
