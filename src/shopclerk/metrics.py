"""Evaluation metrics: pass^k, contribution ratio, improvements, times."""

import io
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import NamedTuple

from .errors import UsageError
from .files import LIST, OBJECT, STRING, closed, read_json, read_text


class TrialRecord(NamedTuple):
    task_id: str
    success: bool
    wall_time_ms: float = 0.0
    modality: str = "unimodal"


def pass_hat_k_counts(n: int, c: int, k: int) -> Fraction:
    """Probability that k trials drawn without replacement are all successes."""
    if not 0 <= c <= n:
        raise UsageError(f"need 0 <= c <= n, got c={c} n={n}")
    if k < 1 or k > n:
        raise UsageError(f"need 1 <= k <= n, got k={k} n={n}")
    if c < k:
        return Fraction(0)
    return Fraction(comb(c, k), comb(n, k))


def pass_hat_k(trials: Iterable, k: int) -> Fraction:
    """Mean over tasks of C(c,k)/C(n,k), exact rational arithmetic; tasks need equal n.

    A trial is any record with task_id and success, such as a TrialRecord or
    an episode.EpisodeResult.
    """
    counts: dict[str, tuple[int, int]] = {}  # task_id -> (n trials, c successes)
    for trial in trials:
        n, c = counts.get(trial.task_id, (0, 0))
        counts[trial.task_id] = (n + 1, c + trial.success)
    if not counts:
        raise UsageError("no trials recorded")
    ns = {n for n, _ in counts.values()}
    if len(ns) > 1:
        raise UsageError(f"trial counts differ across tasks: {sorted(ns)}")
    total = Fraction(0)
    for task_id, (n, c) in counts.items():
        if k > n:
            raise UsageError(f"k={k} exceeds n={n} for task {task_id}")
        total += pass_hat_k_counts(n, c, k)
    return total / len(counts)


class ContributionInputs(namedtuple("_ContributionInputs", "valid_ai total_ai total_cr")):
    __slots__ = ()

    def __new__(cls, valid_ai: int, total_ai: int, total_cr: int):
        if not 0 <= valid_ai <= total_ai:
            raise UsageError("need 0 <= valid_ai <= total_ai")
        if total_ai + total_cr <= 0:
            raise UsageError("ratio undefined: no messages at all")
        return tuple.__new__(cls, (valid_ai, total_ai, total_cr))


def ai_contribution_ratio(inputs: ContributionInputs) -> float:
    """Share of all service messages that are AI-written and judged appropriate."""
    return inputs.valid_ai / (inputs.total_ai + inputs.total_cr)


def relative_improvement(baseline: float, treatment: float) -> float:
    if baseline <= 0:
        raise UsageError(f"baseline must be positive, got {baseline}")
    return (treatment - baseline) / baseline


def time_reduction(baseline: float, treatment: float) -> float:
    """Fractional drop from baseline to treatment."""
    if baseline <= 0:
        raise UsageError(f"baseline must be positive, got {baseline}")
    return (baseline - treatment) / baseline


def mean_completion_time(trials: Iterable, modality: str | None = None) -> float:
    """Mean wall_time_ms of the trials, or of those with the given modality."""
    rows = [r for r in trials if modality is None or r.modality == modality]
    if not rows:
        raise UsageError(f"no trials match modality filter {modality!r}")
    return sum(r.wall_time_ms for r in rows) / len(rows)


# --- file readers ---


def read_annotations_csv(path: str | Path) -> ContributionInputs:
    """Judged-message counts from a CSV with columns
    session_id, message_id, source, judged_valid."""
    import csv

    required = {"session_id", "message_id", "source", "judged_valid"}
    total_ai = total_cr = valid_ai = 0
    bad_lines: list[int] = []
    reader = csv.DictReader(io.StringIO(read_text(path, "annotations file")))
    try:
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise UsageError(
                f"annotation CSV needs columns {sorted(required)}, got {reader.fieldnames}"
            )
        for row in reader:
            source = (row.get("source") or "").strip()
            judged = (row.get("judged_valid") or "").strip()
            # DictReader files the cells past the header under None
            if source not in ("ai", "cr") or judged not in ("0", "1") or None in row:
                bad_lines.append(reader.line_num)  # a row's last line, quoted newlines counted
                continue
            if source == "ai":
                total_ai += 1
                valid_ai += int(judged)
            else:
                total_cr += 1
    except csv.Error as exc:  # a field over the csv module's size limit, say
        # DictReader.line_num moves only once a row is read; its inner reader's is current
        raise UsageError(f"annotations file {path} line {reader.reader.line_num}: {exc}") from None
    if bad_lines:
        raise UsageError(
            f"annotations file {path}: malformed annotation rows at lines: {bad_lines}")
    return ContributionInputs(valid_ai=valid_ai, total_ai=total_ai, total_cr=total_cr)


# The shape of a *.result.json, as episode.EpisodeResult.to_dict writes it.
TRIAL_RECORD_SCHEMA = closed(
    ["task_id", "success"], task_id=STRING, trial_index={"type": "integer"},
    success={"type": "boolean"}, modality=STRING, wall_time_ms={"type": "number"},
    usage=OBJECT, error={"type": ["string", "null"]}, check_report=LIST, replies=LIST)


def read_trial_records(directory: str | Path) -> list[TrialRecord]:
    """The trials of the *.result.json files that episode runs wrote, in file-name order."""
    directory = Path(directory)
    files = sorted(directory.glob("*.result.json"))
    if not files:
        raise UsageError(f"no *.result.json files under {directory}")
    trials = []
    for file in files:
        row = read_json(file, "trial record", TRIAL_RECORD_SCHEMA)
        trials.append(TrialRecord(row["task_id"], row["success"], row.get("wall_time_ms", 0.0),
                                  row.get("modality", "unimodal")))
    return trials


def format_fraction(value: Fraction, places: int = 4) -> str:
    return f"{float(value):.{places}f}"
