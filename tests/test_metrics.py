import itertools
import json
import re
from fractions import Fraction

import pytest

from shopclerk.errors import UsageError
from shopclerk.metrics import (
    ContributionInputs,
    TrialRecord,
    ai_contribution_ratio,
    mean_completion_time,
    pass_hat_k,
    pass_hat_k_counts,
    read_annotations_csv,
    read_trial_records,
    relative_improvement,
    time_reduction,
)


def trials_for(*counts):
    """Trial records from (n, c) pairs, one synthetic task per pair."""
    trials = []
    for t, (n, c) in enumerate(counts):
        for i in range(n):
            trials.append(TrialRecord(task_id=f"task{t}", success=i < c))
    return trials


def enumeration_oracle(n: int, c: int, k: int) -> Fraction:
    """Fraction of k-subsets of the outcome multiset that are all successes."""
    outcomes = [True] * c + [False] * (n - c)
    subsets = list(itertools.combinations(range(n), k))
    winning = sum(1 for idx in subsets if all(outcomes[i] for i in idx))
    return Fraction(winning, len(subsets))


def test_single_task_direct_combinatorics():
    assert pass_hat_k(trials_for((5, 3)), 2) == Fraction(3, 10)


def test_two_task_mean():
    assert pass_hat_k(trials_for((5, 5), (5, 0)), 5) == Fraction(1, 2)


def test_formula_matches_enumeration_oracle_exhaustively():
    for n in range(1, 7):
        for c in range(n + 1):
            for k in range(1, n + 1):
                assert pass_hat_k_counts(n, c, k) == enumeration_oracle(n, c, k), (n, c, k)


def test_monotone_nonincreasing_in_k():
    for n in range(1, 7):
        for c in range(n + 1):
            values = [pass_hat_k_counts(n, c, k) for k in range(1, n + 1)]
            assert all(a >= b for a, b in zip(values, values[1:])), (n, c)


def test_perfect_iff_all_successes():
    for n in range(1, 7):
        for c in range(n + 1):
            for k in range(1, n + 1):
                value = pass_hat_k_counts(n, c, k)
                assert 0 <= value <= 1
                assert (value == 1) == (c == n)


def test_k_beyond_n_is_usage_error():
    with pytest.raises(UsageError):
        pass_hat_k(trials_for((5, 3)), 6)


def test_unequal_trial_counts_rejected():
    trials = trials_for((5, 3), (4, 2))
    with pytest.raises(UsageError):
        pass_hat_k(trials, 2)


def test_contribution_ratio_examples():
    assert ai_contribution_ratio(ContributionInputs(3, 4, 6)) == pytest.approx(0.3)
    assert ai_contribution_ratio(ContributionInputs(4, 4, 0)) == 1.0
    assert ai_contribution_ratio(ContributionInputs(0, 4, 6)) == 0.0


def test_contribution_ratio_validation():
    with pytest.raises(UsageError):
        ContributionInputs(5, 4, 0)
    with pytest.raises(UsageError):
        ContributionInputs(0, 0, 0)


def test_relative_improvement_values_round_to_reported_ones():
    product = relative_improvement(31.39, 89.82)
    logistics = relative_improvement(64.56, 65.15)
    assert round(product * 100, 2) == 186.14
    assert round(logistics * 100, 2) == 0.91
    assert round((product + logistics) / 2 * 100, 2) == 93.53


def test_time_reduction_value():
    assert round(time_reduction(11.59, 5.93) * 100, 2) == 48.84


def test_relative_improvement_scale_invariance():
    base = relative_improvement(31.39, 89.82)
    for scale in (0.5, 3.0, 100.0):
        assert relative_improvement(31.39 * scale, 89.82 * scale) == pytest.approx(base)


def test_relative_improvement_rejects_nonpositive_baseline():
    with pytest.raises(UsageError):
        relative_improvement(0.0, 5.0)
    with pytest.raises(UsageError):
        time_reduction(-1.0, 5.0)


def test_mean_completion_time_and_filters():
    trials = []
    for ms, modality in ((10, "unimodal"), (20, "unimodal"), (30, "multimodal")):
        trials.append(TrialRecord("t", True, wall_time_ms=ms, modality=modality))
    assert mean_completion_time(trials) == 20
    assert mean_completion_time(trials, "multimodal") == 30
    with pytest.raises(UsageError):
        mean_completion_time([], "multimodal")


def test_mean_time_singletons_echo_inputs():
    trials = []
    trials.append(TrialRecord("a", True, wall_time_ms=5.93, modality="multimodal"))
    trials.append(TrialRecord("b", True, wall_time_ms=5.19, modality="unimodal"))
    assert mean_completion_time(trials, "multimodal") == pytest.approx(5.93)
    assert mean_completion_time(trials, "unimodal") == pytest.approx(5.19)


def test_filter_with_no_matches_is_usage_error():
    trials = []
    trials.append(TrialRecord("a", True, modality="unimodal"))
    with pytest.raises(UsageError):
        mean_completion_time(trials, "multimodal")


def test_annotations_csv_round_trip(tmp_path):
    path = tmp_path / "ann.csv"
    rows = ["session_id,message_id,source,judged_valid"]
    rows += [f"s1,m{i},ai,{1 if i < 3 else 0}" for i in range(4)]
    rows += [f"s1,c{i},cr,1" for i in range(6)]
    path.write_text("\n".join(rows) + "\n")
    inputs = read_annotations_csv(path)
    assert (inputs.valid_ai, inputs.total_ai, inputs.total_cr) == (3, 4, 6)
    assert ai_contribution_ratio(inputs) == pytest.approx(0.3)


def test_annotations_csv_reports_bad_line_numbers(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text(
        "session_id,message_id,source,judged_valid\n"
        "s1,m1,ai,1\n"
        "s1,m2,robot,1\n"
        "s1,m3,ai,maybe\n"
    )
    with pytest.raises(UsageError, match=r"\[3, 4\]"):
        read_annotations_csv(path)


def test_annotations_csv_reports_a_row_by_its_own_line_after_a_quoted_newline(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text(
        "session_id,message_id,source,judged_valid\n"
        's1,"m1\nsecond line",ai,1\n'
        "s1,m2,robot,1\n"
    )
    with pytest.raises(UsageError, match=r"lines: \[4\]$"):
        read_annotations_csv(path)


def test_annotations_csv_with_a_field_over_the_csv_limit_names_the_file_and_line(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("session_id,message_id,source,judged_valid\n"
                    "s1,m1,ai,1\n"
                    f"s1,{'m' * 200_000},ai,1\n")
    with pytest.raises(UsageError, match=rf"^annotations file {re.escape(str(path))} line 3: "
                                         r"field larger than field limit"):
        read_annotations_csv(path)


def test_annotations_csv_requires_columns(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("who,what\nx,y\n")
    with pytest.raises(UsageError, match="columns"):
        read_annotations_csv(path)


def test_read_trial_records(tmp_path):
    for i, success in enumerate((True, True, False)):
        (tmp_path / f"t-{i}.result.json").write_text(json.dumps({
            "task_id": "t", "trial_index": i, "success": success,
            "wall_time_ms": 7.0, "modality": "unimodal",
        }))
    trials = read_trial_records(tmp_path)
    assert [(r.task_id, r.success) for r in trials] == [("t", True), ("t", True), ("t", False)]
    with pytest.raises(UsageError):
        read_trial_records(tmp_path / "empty")
