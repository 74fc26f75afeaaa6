import math

import pytest

from archuncert.calibration import (CalibrationRecord, compute_threshold,
                                    estimate_conditional, estimate_prior)
from archuncert.errors import DataError, UsageError


def rec(uncertainty, correct, sample_id="s", parents=None):
    return CalibrationRecord(sample_id, uncertainty, correct, parents)


THREE = [rec(0.2, True, "a"), rec(0.5, False, "b"), rec(0.7, True, "c")]


class TestThreshold:
    def test_min_over_incorrect(self):
        assert compute_threshold(THREE).value == 0.5

    def test_all_correct_gives_sentinel(self):
        result = compute_threshold([rec(0.2, True), rec(0.9, True)])
        assert math.isinf(result.value)
        assert result.no_incorrect

    def test_single_record(self):
        result = compute_threshold([rec(0.9, False)])
        assert result.value == 0.9
        assert not result.no_incorrect

    def test_empty_set(self):
        with pytest.raises(UsageError):
            compute_threshold([])


class TestPrior:
    def test_empty_set(self):
        with pytest.raises(UsageError) as exc:
            estimate_prior([], 0.5)
        assert str(exc.value) == "estimate_prior: empty record set"

    def test_two_of_three_at_or_above(self):
        result = estimate_prior(THREE, 0.5)
        assert result.p_high == 2 / 3
        assert (result.n_high, result.n_total) == (2, 3)

    def test_inclusive_boundary_counts_defining_sample(self):
        # the misclassified sample that defines the threshold must be HIGH
        threshold = compute_threshold(THREE).value
        result = estimate_prior(THREE, threshold)
        assert result.n_high >= 1

    def test_infinite_threshold_gives_zero(self):
        result = estimate_prior(THREE, math.inf)
        assert result.p_high == 0.0

    def test_all_at_threshold(self):
        result = estimate_prior([rec(0.4, True), rec(0.4, False)], 0.4)
        assert result.p_high == 1.0

    def test_order_invariant(self):
        assert estimate_prior(list(reversed(THREE)), 0.5) == \
            estimate_prior(THREE, 0.5)


class TestConditional:
    @pytest.mark.parametrize("records, parents, message", [
        ([], ["EU"], "estimate_conditional: empty record set"),
        (THREE, [], "estimate_conditional: no parents declared"),
    ])
    def test_empty_inputs(self, records, parents, message):
        with pytest.raises(UsageError) as exc:
            estimate_conditional(records, 0.5, parents)
        assert str(exc.value) == message

    def test_per_group_counting(self):
        records = [rec(0.6, True, "a", {"EU": "H"}),
                   rec(0.4, True, "b", {"EU": "H"}),
                   rec(0.1, True, "c", {"EU": "L"})]
        rows = estimate_conditional(records, 0.5, ["EU"])
        assert rows["H"].p_high == 0.5
        assert (rows["H"].n_high, rows["H"].n_total) == (1, 2)
        assert rows["L"].p_high == 0.0
        assert (rows["L"].n_high, rows["L"].n_total) == (0, 1)
        assert rows["H"].estimated and rows["L"].estimated

    def test_empty_group_defaults_flagged(self):
        records = [rec(0.6, True, "a", {"EU": "H"})]
        rows = estimate_conditional(records, 0.5, ["EU"])
        assert rows["L"].p_high == 0.5
        assert not rows["L"].estimated

    def test_single_group_equals_prior(self):
        records = [rec(r.uncertainty, r.correct, r.sample_id, {"EU": "H"})
                   for r in THREE]
        rows = estimate_conditional(records, 0.5, ["EU"])
        prior = estimate_prior(THREE, 0.5)
        assert rows["H"].p_high == prior.p_high
        assert rows["H"].n_total == prior.n_total

    def test_group_sizes_sum_to_total(self):
        records = [rec(0.1 * i, i % 2 == 0, f"s{i}",
                       {"EU": "H" if i % 3 else "L"}) for i in range(1, 10)]
        rows = estimate_conditional(records, 0.5, ["EU"])
        assert sum(r.n_total for r in rows.values()) == len(records)

    def test_mismatched_parents_name_the_sample(self):
        records = [rec(0.6, True, "good", {"EU": "H"}),
                   rec(0.4, True, "odd-one", {"SU": "H"})]
        with pytest.raises(DataError, match="odd-one"):
            estimate_conditional(records, 0.5, ["EU"])

    @pytest.mark.parametrize("parents", [["EU", "EU"], [""], ["EU", ""]])
    def test_parents_need_distinct_names(self, parents):
        with pytest.raises(UsageError) as exc:
            estimate_conditional([rec(0.6, True, "a", {"EU": "H"})], 0.5,
                                 parents)
        assert str(exc.value) == ("estimate_conditional: parents need "
                                  f"distinct non-empty names, got {parents}")
