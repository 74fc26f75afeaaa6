"""Turn per-sample uncertainty records into thresholds and CPT rows.

The threshold between low and high uncertainty is the lowest uncertainty
estimate among misclassified samples; a sample counts as HIGH when its
uncertainty is >= the threshold (inclusive, so the threshold-defining
misclassified sample itself counts as HIGH). Correctly classified samples
with high uncertainty deliberately count toward p_high: uncertain
decisions are to be avoided, right or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bn import row_key, row_keys
from .errors import DataError, UsageError

INFINITE_THRESHOLD = math.inf


@dataclass(frozen=True)
class CalibrationRecord:
    sample_id: str
    uncertainty: float
    correct: bool
    parent_states: dict[str, str] | None = None


@dataclass(frozen=True)
class ThresholdResult:
    value: float
    no_incorrect: bool = False  # all samples classified correctly


@dataclass(frozen=True)
class CalibrationResult:
    threshold: float
    p_high: float
    n_high: int
    n_total: int


@dataclass(frozen=True)
class ConditionalRow:
    p_high: float
    n_high: int
    n_total: int
    estimated: bool  # False: no records for this parent assignment


def compute_threshold(records) -> ThresholdResult:
    records = list(records)
    if not records:
        raise UsageError("compute_threshold: empty record set")
    incorrect = [r.uncertainty for r in records if not r.correct]
    if not incorrect:
        return ThresholdResult(INFINITE_THRESHOLD, no_incorrect=True)
    return ThresholdResult(min(incorrect))


def _ratio(records, threshold):
    n_high = sum(1 for r in records if r.uncertainty >= threshold)
    return n_high, len(records)


def estimate_prior(records, threshold: float) -> CalibrationResult:
    records = list(records)
    if not records:
        raise UsageError("estimate_prior: empty record set")
    n_high, n_total = _ratio(records, threshold)
    return CalibrationResult(threshold, n_high / n_total, n_high, n_total)


def estimate_conditional(records, threshold: float,
                         parent_order) -> dict[str, ConditionalRow]:
    """Group records by parent assignment and estimate p_high per group.

    Groups without records get a flagged default of 0.5: prior information
    is allowed to be incomplete, not silently invented.
    """
    records = list(records)
    parent_order = tuple(parent_order)
    if not records:
        raise UsageError("estimate_conditional: empty record set")
    if not parent_order:
        raise UsageError("estimate_conditional: no parents declared")
    if "" in parent_order or len(set(parent_order)) < len(parent_order):
        raise UsageError(
            f"estimate_conditional: parents need distinct non-empty names, "
            f"got {list(parent_order)}")

    groups: dict[str, list] = {}
    for r in records:
        states = r.parent_states or {}
        if set(states) != set(parent_order):
            raise DataError(
                f"sample {r.sample_id!r}: parent states {sorted(states)} "
                f"do not match declared parents {sorted(parent_order)}")
        key = row_key(tuple(states[p] for p in parent_order))
        groups.setdefault(key, []).append(r)

    rows = {}
    for key in row_keys(parent_order):
        members = groups.get(key, [])
        if not members:
            rows[key] = ConditionalRow(0.5, 0, 0, estimated=False)
            continue
        n_high, n_total = _ratio(members, threshold)
        rows[key] = ConditionalRow(n_high / n_total, n_high, n_total, True)
    return rows
