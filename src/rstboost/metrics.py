"""Parseval-style scoring over labeled discourse constituents.

One constituent per internal node (the root included), so a binary tree
over n EDUs yields exactly n-1 constituents and micro precision equals
recall for same-document comparisons.  Matching levels:

* span match: identical (start, end) EDU interval;
* nuclearity match: span match plus identical nuclearity;
* relation match: span match plus identical relation (nuclearity is NOT
  required, keeping the two label diagnostics independent).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .boosting import BoostedEnsemble, decode_batch
from .errors import DocumentMismatch, EmptyTreebank, RelationInventoryMismatch
from .treebank import DiscourseNode, Treebank, iter_internal

CSV_HEADER = "m,domain,docs,span_p,span_r,span_f1,nuc_p,nuc_r,nuc_f1,rel_p,rel_r,rel_f1"


def _prf(matches: int, pred: int, gold: int) -> tuple[float, float, float]:
    p = matches / pred if pred else 0.0
    r = matches / gold if gold else 0.0
    f1 = 2 * p * r / (p + r) if (p + r) else 0.0
    return p, r, f1


@dataclass(frozen=True)
class ParsevalScores:
    gold_count: int
    pred_count: int
    span_matches: int
    nuc_matches: int
    rel_matches: int

    @property
    def span_f1(self) -> float:
        return _prf(self.span_matches, self.pred_count, self.gold_count)[2]

    def __add__(self, other: "ParsevalScores") -> "ParsevalScores":
        return ParsevalScores(
            self.gold_count + other.gold_count,
            self.pred_count + other.pred_count,
            self.span_matches + other.span_matches,
            self.nuc_matches + other.nuc_matches,
            self.rel_matches + other.rel_matches,
        )

    def levels(self) -> dict[str, tuple[float, float, float]]:
        """(precision, recall, F1) per matching level, in report order."""
        return {name: _prf(matches, self.pred_count, self.gold_count)
                for name, matches in (("span", self.span_matches),
                                      ("nuclearity", self.nuc_matches),
                                      ("relation", self.rel_matches))}

    def to_dict(self) -> dict:
        out: dict = {"support": {"gold": self.gold_count, "pred": self.pred_count}}
        for name, prf in self.levels().items():
            out[name] = dict(zip(("p", "r", "f1"), prf))
        return out


ZERO_SCORES = ParsevalScores(0, 0, 0, 0, 0)


def score(gold: DiscourseNode, pred: DiscourseNode) -> ParsevalScores:
    """Micro counts for a gold and a predicted tree over the same EDUs, from one
    ``{span: (nuclearity, relation)}`` map of each tree's internal nodes."""
    g, p = ({node.span: (node.nuclearity, node.relation) for node in iter_internal(tree)}
            for tree in (gold, pred))
    if len(g) != len(p):
        raise DocumentMismatch(
            f"gold tree covers {len(g) + 1} EDUs but predicted tree covers {len(p) + 1}"
        )
    span_m = nuc_m = rel_m = 0
    for span, (nuclearity, relation) in p.items():
        labels = g.get(span)
        if labels is None:
            continue
        span_m += 1
        nuc_m += labels[0] == nuclearity
        rel_m += labels[1] == relation
    return ParsevalScores(len(g), len(p), span_m, nuc_m, rel_m)


def score_entries(pairs) -> ParsevalScores:
    """Micro-aggregate (gold, pred) tree pairs by summing counts."""
    total = ZERO_SCORES
    for gold, pred in pairs:
        total = total + score(gold, pred)
    return total


def check_evaluable(tb: Treebank, inventory: tuple[str, ...]) -> None:
    """Refuse (a data error) a treebank with no entries or with relations not in ``inventory``."""
    if len(tb.entries) == 0:
        raise EmptyTreebank(f"treebank {tb.name!r} has no entries to evaluate")
    if unknown := set(tb.relation_inventory) - set(inventory):
        raise RelationInventoryMismatch(
            f"treebank {tb.name!r} uses relations unknown to the model: {sorted(unknown)}")


def _evaluate_prefixes(ensemble: BoostedEnsemble, prefixes,
                       tb: Treebank) -> dict[int, ParsevalScores]:
    """Decode every document for all ``prefixes`` in one batch and micro-score each."""
    check_evaluable(tb, ensemble.relation_inventory)
    decoded = decode_batch(ensemble, [doc for doc, _ in tb.entries], prefixes)
    return {
        m: score_entries((tree, d[m]) for (_, tree), d in zip(tb.entries, decoded))
        for m in prefixes
    }


def evaluate_treebank(ensemble: BoostedEnsemble, m: int, tb: Treebank) -> ParsevalScores:
    """Parse every document with prefix m and micro-score against gold."""
    return _evaluate_prefixes(ensemble, [m], tb)[m]


@dataclass(frozen=True)
class CurveRow:
    m: int
    domain: str
    docs: int
    scores: ParsevalScores


@dataclass(frozen=True)
class CurveTable:
    rows: tuple[CurveRow, ...]
    # per-prefix span-F1 gap (in-domain minus mean out-of-domain); None when
    # the in/out partition is not uniquely determined by the training tag
    gaps: dict[int, float] | None

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for row in self.rows:
            cells = [str(row.m), row.domain, str(row.docs)] + [
                f"{v:.4f}" for prf in row.scores.levels().values() for v in prf]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def boost_curve(ensemble: BoostedEnsemble, treebanks: list[Treebank]) -> CurveTable:
    """Evaluate every (prefix m, treebank) cell for m = 1..n_steps; each treebank is
    decoded for every m by one ``decode_batch`` call."""
    if not treebanks:
        raise EmptyTreebank("boost_curve needs at least one treebank")
    n = len(ensemble.steps)
    rows = []
    span_f1: list[dict[int, float]] = []
    for tb in treebanks:
        scores = _evaluate_prefixes(ensemble, range(1, n + 1), tb)
        rows.extend(CurveRow(m, tb.domain_tag, len(tb.entries), s)
                    for m, s in scores.items())
        span_f1.append({m: s.span_f1 for m, s in scores.items()})

    gaps = None
    in_idx = [i for i, tb in enumerate(treebanks)
              if tb.domain_tag == ensemble.train_domain_tag]
    out_idx = [i for i in range(len(treebanks)) if i not in in_idx]
    if len(in_idx) == 1 and out_idx:
        gaps = {
            m: span_f1[in_idx[0]][m]
            - sum(span_f1[i][m] for i in out_idx) / len(out_idx)
            for m in range(1, n + 1)
        }
    return CurveTable(tuple(rows), gaps)
