"""Link-quality metrics: precision, recall, F-measure (Section 7.1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.links import Link, LinkSet


@dataclass(frozen=True)
class Quality:
    """Precision/recall/F of a candidate set against a ground truth."""

    precision: float
    recall: float
    true_positives: int
    candidate_count: int
    ground_truth_count: int

    @property
    def f_measure(self) -> float:
        """Harmonic mean of precision and recall (0 when both are 0)."""
        if self.precision + self.recall == 0.0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)

    def __str__(self):
        return (
            f"P={self.precision:.3f} R={self.recall:.3f} F={self.f_measure:.3f} "
            f"(|C|={self.candidate_count}, |G|={self.ground_truth_count})"
        )


def evaluate_links(candidates: LinkSet | Iterable[Link], ground_truth: LinkSet | Iterable[Link]) -> Quality:
    """P = |C∩G|/|C|, R = |C∩G|/|G| over two link collections.

    Empty candidate sets score precision 0 by convention (nothing asserted,
    nothing correct); empty ground truth scores recall 0 (nothing to find
    signals a misconfigured experiment rather than success).
    """
    candidate_set = set(candidates)
    truth_set = set(ground_truth)
    true_positives = len(candidate_set & truth_set)
    precision = true_positives / len(candidate_set) if candidate_set else 0.0
    recall = true_positives / len(truth_set) if truth_set else 0.0
    return Quality(
        precision=precision,
        recall=recall,
        true_positives=true_positives,
        candidate_count=len(candidate_set),
        ground_truth_count=len(truth_set),
    )


def new_correct_links(
    initial: LinkSet | Iterable[Link],
    final: LinkSet | Iterable[Link],
    ground_truth: LinkSet | Iterable[Link],
) -> set[Link]:
    """Correct links in ``final`` that were absent from ``initial`` — the
    paper's "new links discovered by ALEX" counts."""
    initial_set = set(initial)
    truth_set = set(ground_truth)
    return {link for link in final if link in truth_set and link not in initial_set}
