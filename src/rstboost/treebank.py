"""Discourse treebank data model, bracketed serialization, and synthesis; the
generator's one settings type, ``SynthSettings``, holds every rule on its values.

A treebank is a list of (document, tree) pairs.  A document is a sequence of
EDUs (elementary discourse units), each a tuple of tokens, and EDU ``i`` is
``edus[i - 1]``; trees are strictly binary, with a nuclearity tag (NN / NS / SN)
and a relation label at every internal node.

File format (one record per block, blocks separated by a blank line)::

    #relations attribution cause elaboration
    #doc wsj_0601 news
    (NS elaboration (leaf "it rained") (leaf "so we left"))

The optional ``#relations`` header declares inventory labels that may not be
used by any record; the loaded inventory is the sorted union of declared and
used labels.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Iterable, Iterator, Union

from .errors import InvalidConfig, InvalidTree, MalformedSyntax

NUCLEARITIES = ("NN", "NS", "SN")

_RELATION_RE = re.compile(r"[a-z_-]+\Z")
# A domain tag is written unquoted into a record header and a metric CSV cell.
_DOMAIN_TAG_RE = re.compile(r"[\w.-]+\Z")


def tokenize_text(text: str) -> tuple[str, ...]:
    """Lowercase + whitespace-split; the only tokenizer used anywhere."""
    return tuple(text.lower().split())


@dataclass(frozen=True)
class Leaf:
    edu_id: int

    @property
    def span(self) -> tuple[int, int]:
        return (self.edu_id, self.edu_id)

    @property
    def head(self) -> int:
        return self.edu_id


@dataclass(frozen=True, eq=False, repr=False)
class Internal:
    """A binary node; ``==``, ``hash`` and ``repr`` walk it iteratively and ignore ``span``
    and ``head``, the head-nucleus EDU (the nucleus child's head; NN ties break left)."""

    nuclearity: str
    relation: str
    left: "DiscourseNode"
    right: "DiscourseNode"
    span: tuple[int, int] = field(init=False)
    head: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "span", (self.left.span[0], self.right.span[1]))
        nucleus = self.right if self.nuclearity == "SN" else self.left
        object.__setattr__(self, "head", nucleus.head)

    def _key(self) -> tuple:
        # Post-order labels, leaves as bare EDU ids: with binary nodes this fixes the tree.
        return tuple((n.nuclearity, n.relation) if isinstance(n, Internal) else n.edu_id
                     for n in postorder(self))

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._key() == other._key() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts, todo = [], [self]
        while todo:
            item = todo.pop()
            if isinstance(item, Internal):
                todo += [")", item.right, ", right=", item.left]
                item = (f"Internal(nuclearity={item.nuclearity!r}, "
                        f"relation={item.relation!r}, left=")
            parts.append(item if isinstance(item, str) else repr(item))
        return "".join(parts)


DiscourseNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class Document:
    doc_id: str
    edus: tuple[tuple[str, ...], ...]  # EDU i's tokens are edus[i - 1]

    @property
    def n_edus(self) -> int:
        return len(self.edus)


@dataclass(frozen=True)
class Treebank:
    name: str
    domain_tag: str
    relation_inventory: tuple[str, ...]
    entries: tuple[tuple[Document, DiscourseNode], ...]

    def __len__(self) -> int:
        return len(self.entries)


def postorder(tree: DiscourseNode) -> list[DiscourseNode]:
    """Every node, children before parents and left before right.

    Walks with an explicit stack, so a tree of any depth works.
    """
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Internal):
            stack.append(node.left)
            stack.append(node.right)
    out.reverse()  # pre-order with the right child first, reversed, is post-order
    return out


def iter_internal(node: DiscourseNode) -> Iterator[Internal]:
    return (n for n in postorder(node) if isinstance(n, Internal))


# ---------------------------------------------------------------------------
# Bracketed format
# ---------------------------------------------------------------------------

# A string's characters: any but `"` and `\`, or one of the escapes `\"` and `\\`.
_CHARS = r'[^"\\]*(?:\\["\\][^"\\]*)*'
# One alternative per token kind: open, close, string, symbol, and a stray quote, which
# starts a string with no end; it reads to the first bad escape or to the end of input.
_TOKEN_RE = re.compile(rf'(\()|(\))|("{_CHARS}")|([^\s()"]+)|"{_CHARS}(\\.?|\Z)', re.DOTALL)


def _lex(text: str) -> list[tuple[str, str]]:
    """Tokenize into (kind, value) pairs; kind in {open, close, symbol, string}.  A string
    with no end or an escape other than ``\\"`` and ``\\\\`` raises MalformedSyntax."""
    out = []
    for opened, closed, string, symbol, bad in _TOKEN_RE.findall(text):
        if opened or closed:
            out.append(("open", opened) if opened else ("close", closed))
        elif string:
            out.append(("string", re.sub(r"\\(.)", r"\1", string[1:-1])
                        if "\\" in string else string[1:-1]))
        elif symbol:
            out.append(("symbol", symbol))
        else:
            raise MalformedSyntax("unterminated string literal" if not bad else
                                  "dangling escape at end of input" if bad == "\\" else
                                  f"unsupported escape {bad}")
    return out


def _take(tokens: Iterator[tuple[str, str]]) -> tuple[str, str]:
    tok = next(tokens, None)
    if tok is None:
        raise MalformedSyntax("unexpected end of input (unbalanced parentheses?)")
    return tok


def parse_bracketed(text: str, doc_id: str = "doc") -> tuple[Document, DiscourseNode]:
    """Parse one bracketed tree; the leaves' token tuples become EDUs 1..n, left to right.

    It rejects empty leaves, non-binary nodes, unknown nuclearity and bad
    relation labels, so every pair it returns passes :func:`validate` without
    an inventory, and ``load_treebank`` does not validate again.
    """
    tokens = iter(_lex(text))
    edus: list[tuple[str, ...]] = []
    frames: list[tuple[str, str, list[DiscourseNode]]] = []  # open internal nodes
    while True:
        kind, value = _take(tokens)
        if kind == "close" and frames:
            nuclearity, relation, children = frames.pop()
            if len(children) != 2:
                raise InvalidTree(f"internal node has {len(children)} children; "
                                  "trees must be strictly binary")
            node: DiscourseNode = Internal(nuclearity, relation, *children)
        elif kind != "open":
            raise MalformedSyntax(f"expected '(' but found {value!r}")
        else:
            kind, head = _take(tokens)
            if kind != "symbol":
                raise MalformedSyntax(f"expected a node keyword after '(' but found {head!r}")
            if head != "leaf":
                if head not in NUCLEARITIES:
                    raise InvalidTree(
                        f"unknown nuclearity tag {head!r} (expected NN, NS, or SN)")
                kind, relation = _take(tokens)
                if kind != "symbol" or not _RELATION_RE.match(relation):
                    raise MalformedSyntax(
                        f"bad relation label {relation!r} (expected [a-z_-]+)")
                frames.append((head, relation, []))
                continue
            kind, leaf_text = _take(tokens)
            if kind != "string" or _take(tokens)[0] != "close":
                raise MalformedSyntax("leaf node must contain exactly one quoted string")
            edus.append(tokenize_text(leaf_text))
            if not edus[-1]:
                raise InvalidTree("leaf with empty text (EDUs must have at least one token)")
            node = Leaf(edu_id=len(edus))
        if not frames:
            break
        frames[-1][2].append(node)
    if next(tokens, None) is not None:
        raise MalformedSyntax("trailing input after the closing parenthesis")
    return Document(doc_id, tuple(edus)), node


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def serialize_bracketed(doc: Document, tree: DiscourseNode) -> str:
    """Canonical single-line rendering; inverse of :func:`parse_bracketed`."""
    done: list[str] = []  # rendered subtrees not yet claimed by a parent
    for node in postorder(tree):
        if isinstance(node, Leaf):
            text = " ".join(doc.edus[node.edu_id - 1])
            done.append(f'(leaf "{_escape(text)}")')
        else:
            right = done.pop()
            done[-1] = f"({node.nuclearity} {node.relation} {done[-1]} {right})"
    return done[0]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(
    doc: Document,
    tree: DiscourseNode,
    relation_inventory: tuple[str, ...] | None = None,
) -> list[str]:
    """Return a list of invariant violations (empty list = valid).

    Each message names the offending node path (root, root.left, ...).
    """
    violations: list[str] = []
    n = doc.n_edus
    if n < 1:
        violations.append("doc: document has no EDUs")
    for i, edu in enumerate(doc.edus):
        if not edu:
            violations.append(f"doc.edus[{i}]: empty token list")

    # A path is rendered only for a violation, from (parent link, step) pairs.
    def render(link: tuple | None) -> str:
        steps = []
        while link is not None:
            link, step = link
            steps.append(step)
        return "root" + "".join(reversed(steps))

    leaf_ids: list[tuple[tuple | None, int]] = []
    stack: list[tuple[DiscourseNode, tuple | None]] = [(tree, None)]
    while stack:
        node, link = stack.pop()
        if isinstance(node, Leaf):
            leaf_ids.append((link, node.edu_id))
            continue
        if node.nuclearity not in NUCLEARITIES:
            violations.append(f"{render(link)}: unknown nuclearity {node.nuclearity!r}")
        if not _RELATION_RE.match(node.relation):
            violations.append(
                f"{render(link)}: malformed relation label {node.relation!r}")
        elif relation_inventory is not None and node.relation not in relation_inventory:
            violations.append(
                f"{render(link)}: relation {node.relation!r} not in the declared inventory"
            )
        stack.append((node.right, (link, ".right")))
        stack.append((node.left, (link, ".left")))

    in_range = True
    for link, edu_id in leaf_ids:
        if not 1 <= edu_id <= n:
            violations.append(f"{render(link)}: leaf edu_id {edu_id} outside 1..{n}")
            in_range = False
    ids = [i for _, i in leaf_ids]
    if in_range:
        if ids != sorted(ids):
            violations.append("root: leaf edu_ids are not in left-to-right order")
        elif ids != list(range(1, n + 1)):
            violations.append(f"root: leaves cover {ids} instead of 1..{n}")
    return violations


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def relations_header(line: str) -> list[str] | None:
    """The labels of a ``#relations`` header, or None for a line without the keyword; a
    keyword not ended by whitespace or a label outside ``[a-z_-]+`` raises MalformedSyntax."""
    if not line.startswith("#relations"):
        return None
    keyword, *labels = line.split()
    if keyword != "#relations":
        raise MalformedSyntax(f"bad #relations header {line!r} (expected '#relations <labels>')")
    for relation in labels:
        if not _RELATION_RE.match(relation):
            raise MalformedSyntax(f"bad #relations label {relation!r} (expected [a-z_-]+)")
    return labels


def load_treebank(path: str | Path, text: str | None = None) -> Treebank:
    """Load a treebank file, or its ``text`` if the caller has read it already; raises
    MalformedSyntax/InvalidTree naming the record (a domain tag must match ``[\\w.-]+``)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8") if text is None else text
    declared: list[str] = []
    entries: list[tuple[Document, DiscourseNode]] = []
    domain_tags: list[str] = []

    blocks = [b for b in re.split(r"\n\s*\n", text) if b.strip()]
    record_no = 0
    for block in blocks:
        lines = block.strip().splitlines()
        labels = relations_header(lines[0])
        if labels is not None:
            declared += labels
            lines = lines[1:]
            if not lines:
                continue
        record_no += 1
        header = lines[0].split()
        if len(header) != 3 or header[0] != "#doc":
            raise MalformedSyntax(
                f"record {record_no}: expected '#doc <doc_id> <domain_tag>' header, "
                f"got {lines[0]!r}"
            )
        doc_id, domain_tag = header[1], header[2]
        if not _DOMAIN_TAG_RE.match(domain_tag):
            raise MalformedSyntax(
                f"record {record_no} ({doc_id}): domain tag {domain_tag!r} must match [\\w.-]+")
        body = "\n".join(lines[1:])
        try:
            doc, tree = parse_bracketed(body, doc_id=doc_id)
        except (MalformedSyntax, InvalidTree) as exc:
            raise type(exc)(f"record {record_no} ({doc_id}): {exc}") from exc
        entries.append((doc, tree))
        domain_tags.append(domain_tag)

    used = {node.relation for _, tree in entries for node in iter_internal(tree)}
    inventory = tuple(sorted(used.union(declared)))
    tags = set(domain_tags)
    tag = tags.pop() if len(tags) == 1 else "mixed" if tags else ""
    return Treebank(path.stem, tag, inventory, tuple(entries))


def load_documents(path: str | Path, text: str) -> tuple[list[Document], str]:
    """A file's documents and domain tag: a treebank if its first non-blank line, leading
    whitespace ignored as ``load_treebank`` ignores it, starts with ``#doc`` or is a
    ``#relations`` header, else raw EDUs tagged ``raw`` (one per line, a blank or
    whitespace-only line between documents, named ``raw-0000``, ...)."""
    lines = text.splitlines()
    first = next((line.lstrip() for line in lines if line.strip()), "")
    if first.startswith("#doc") or relations_header(first) is not None:
        tb = load_treebank(path, text)
        return [doc for doc, _ in tb.entries], tb.domain_tag
    docs = []
    edus: list[tuple[str, ...]] = []
    for line in [*lines, ""]:  # the final blank line ends the last document
        if tokens := tokenize_text(line):
            edus.append(tokens)
        elif edus:
            docs.append(Document(f"raw-{len(docs):04d}", tuple(edus)))
            edus = []
    return docs, "raw"


def _atomic_write(path: str | Path, data: str | Iterable[bytes]) -> None:
    """Write ``data`` beside ``path``, then rename it over ``path``; a failed write,
    an exception raised while ``data`` is iterated among them, leaves any old file at
    ``path`` as it was and no temporary file.  A ``str`` is written as UTF-8 text; an
    iterable of bytes is written chunk by chunk, so the file need never be whole in
    memory."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data, encoding="utf-8")
        else:
            with tmp.open("wb") as f:
                f.writelines(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_treebank(tb: Treebank, path: str | Path) -> None:
    parts = []
    if tb.relation_inventory:
        parts.append("#relations " + " ".join(tb.relation_inventory))
    for doc, tree in tb.entries:
        parts.append(
            f"#doc {doc.doc_id} {tb.domain_tag}\n{serialize_bracketed(doc, tree)}"
        )
    _atomic_write(path, "\n\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

# The most EDUs one ``synth`` run may generate: about 1 GB and 13 s of generation.
MAX_SYNTH_EDUS = 1_000_000


@dataclass(frozen=True)
class SynthSettings:
    """The synthetic generator's settings, with the README's defaults.

    ``synth`` writes ``n_train`` training and ``n_test`` test documents of domain a and
    ``n_test`` test documents of domain b.  ``p_domain`` is the probability that a
    domain-specific rule fires: per internal node it draws the relation from the
    domain's relation set, and per filler token it draws from the domain's lexicon.
    """

    n_train: int = 200
    n_test: int = 100
    edu_range: tuple[int, ...] = (2, 10)
    shared_vocab: int = 120
    domain_vocab: int = 40
    p_domain: float = 0.5
    domain_a: str = "news"
    domain_b: str = "chat"
    shared_relations: tuple[str, ...] = (
        "attribution", "background", "cause", "contrast", "elaboration", "joint")
    domain_relations_a: tuple[str, ...] = ("condition", "evidence")
    domain_relations_b: tuple[str, ...] = ("restatement", "temporal")

    def __post_init__(self) -> None:
        for name in ("n_train", "n_test"):
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be >= 0")
        if len(self.edu_range) != 2 or not 1 <= self.edu_range[0] <= self.edu_range[1]:
            raise InvalidConfig(f"edu_range {list(self.edu_range)} is a bad EDU range; "
                                "need 1 <= min <= max")
        if (edus := (self.n_train + 2 * self.n_test) * self.edu_range[1]) > MAX_SYNTH_EDUS:
            raise InvalidConfig(f"synth would make up to {edus:,} EDUs ((n_train + 2 * n_test) "
                                f"* edu_range[1]); the limit is {MAX_SYNTH_EDUS:,}")
        if self.shared_vocab < 1:
            raise InvalidConfig("shared_vocab must be >= 1")
        if not 0.0 <= self.p_domain <= 1.0:
            raise InvalidConfig("p_domain must lie in [0, 1]")
        if self.p_domain > 0 and self.domain_vocab < 1:
            raise InvalidConfig("domain_vocab must be >= 1 when p_domain > 0")
        if self.domain_a == self.domain_b:  # the two test sets would share one file
            raise InvalidConfig(f"domain_a and domain_b are both {self.domain_a!r}")
        if not self.shared_relations:
            raise InvalidConfig("shared_relations must be non-empty")
        for side in "ab":
            if not _DOMAIN_TAG_RE.match(tag := getattr(self, f"domain_{side}")):
                raise InvalidConfig(f"domain_{side}: domain tag {tag!r} must match [\\w.-]+")
            if self.p_domain > 0 and not getattr(self, f"domain_relations_{side}"):
                raise InvalidConfig(f"domain_relations_{side} is empty but p_domain > 0")
        for name in ("shared_relations", "domain_relations_a", "domain_relations_b"):
            for rel in getattr(self, name):
                if not _RELATION_RE.match(rel):
                    raise InvalidConfig(f"{name}: relation label {rel!r} must match [a-z_-]+")


def nuclearity_for_relation(relation: str) -> str:
    """Fixed relation -> nuclearity coupling used by the generator.

    Derived from the relation string so that the same label behaves
    identically across treebanks and seeds.
    """
    h = hashlib.blake2b(relation.encode("utf-8"), digest_size=8).digest()
    return ("NS", "SN", "NN")[int.from_bytes(h, "little") % 3]


def _gen_structure(rng: Random, lo: int, hi: int, cfg: SynthSettings,
                   domain_relations: tuple[str, ...]) -> DiscourseNode:
    """End-splitting of [lo, hi]; each node's relation draw fixes its split side.

    Relations whose nuclearity is NS or NN peel the leftmost EDU as the
    nucleus leaf; SN relations peel the rightmost.  This keeps every node's
    head nucleus a direct leaf child, which is what makes the surface cues
    injected by :func:`_inject_cues` visible to a stack encoder.  Relations
    are drawn from the root down, then the tree is built from the bottom up.
    """
    peeled: list[tuple[str, str, int]] = []
    while lo < hi:
        active = domain_relations if rng.random() < cfg.p_domain else cfg.shared_relations
        relation = active[rng.randrange(len(active))]
        nuc = nuclearity_for_relation(relation)
        peeled.append((nuc, relation, hi if nuc == "SN" else lo))
        if nuc == "SN":
            hi -= 1
        else:
            lo += 1
    tree: DiscourseNode = Leaf(lo)
    for nuc, relation, edu_id in reversed(peeled):
        pair = (tree, Leaf(edu_id)) if nuc == "SN" else (Leaf(edu_id), tree)
        tree = Internal(nuc, relation, *pair)
    return tree


# Surface cue tokens, two redundant tokens per cue so that a single hash
# collision with a lexicon word cannot erase the signal.
#
# * hold/link mark EDUs by attachment direction: "hold" EDUs wait on the
#   stack (left children), "link" EDUs merge immediately after being
#   shifted (right children).
# * more/done mark the head EDU of every non-root constituent by the same
#   direction one level up: "more" constituents are right children (another
#   merge follows), "done" constituents are left children (a shift follows).
# * relation markers land in the satellite / second-nucleus constituent's
#   head EDU.
CUE_HOLD = ("c_hold", "q_hold")
CUE_LINK = ("c_link", "q_link")
CUE_MORE = ("c_more", "q_more")
CUE_DONE = ("c_done", "q_done")


def relation_markers(relation: str) -> tuple[str, str]:
    """The marker token pair owned by a relation."""
    return (f"m_{relation}", f"z_{relation}")


def _inject_cues(tree: DiscourseNode, cues: dict[int, dict]) -> None:
    for node in iter_internal(tree):
        for child, kind, cont in (
            (node.left, CUE_HOLD, CUE_DONE),
            (node.right, CUE_LINK, CUE_MORE),
        ):
            if isinstance(child, Leaf):
                cues[child.edu_id]["kind"] = kind
            else:
                cues[child.head]["cont"] = cont
        satellite = node.left if node.nuclearity == "SN" else node.right
        cues[satellite.head]["marker"] = relation_markers(node.relation)


def _fillers(rng: Random, cfg: SynthSettings, tag: str) -> list[str]:
    out = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < cfg.p_domain:
            out.append(f"d{tag}{rng.randrange(cfg.domain_vocab)}")
        else:
            out.append(f"w{rng.randrange(cfg.shared_vocab)}")
    return out


def _gen_document(rng: Random, doc_id: str, cfg: SynthSettings, tag: str,
                  domain_relations: tuple[str, ...]) -> tuple[Document, DiscourseNode]:
    n = rng.randint(*cfg.edu_range)
    tree = _gen_structure(rng, 1, n, cfg, domain_relations)
    cues: dict[int, dict] = {i: {} for i in range(1, n + 1)}
    _inject_cues(tree, cues)
    # Cues at the edges, fillers in the middle: the cues survive center truncation as well.
    edus = tuple((*cue.get("kind", ()), *cue.get("cont", ()), *_fillers(rng, cfg, tag),
                  *cue.get("marker", ())) for cue in cues.values())
    return Document(doc_id, edus), tree


def synthesize_treebank(cfg: SynthSettings, side: str, n_docs: int, name: str,
                        seed: int) -> Treebank:
    """Deterministically generate ``n_docs`` documents of domain ``side`` ("a" or "b")
    whose labels are cued in the text.

    Every relation owns a marker token injected into the head EDU of its
    satellite (or second-nucleus) constituent, and every EDU carries an
    attachment cue, so both tree shape and labels are recoverable from
    bag-of-words features over parser states.  The treebank declares both
    domains' relations, so that a model trained on one domain can be
    evaluated on the other.
    """
    tag, relations = getattr(cfg, f"domain_{side}"), getattr(cfg, f"domain_relations_{side}")
    entries = [_gen_document(Random(seed * 1_000_003 + d), f"{name}-{d:04d}", cfg, tag, relations)
               for d in range(n_docs)]  # one random stream per document
    inventory = tuple(sorted({*cfg.shared_relations, *cfg.domain_relations_a,
                              *cfg.domain_relations_b}))
    return Treebank(name, tag, inventory, tuple(entries))
