"""Suite and ablation drivers: many episodes in, one report out."""

import json
from pathlib import Path

from . import decision
from .config import AgentConfig
from .episode import EpisodeResult, run_episode
from .errors import UsageError
from .files import writing_into
from .metrics import format_fraction, mean_completion_time, pass_hat_k
from .tasks import Task
from .toolkit import Usage


def run_trials(
    tasks: list[Task],
    config: AgentConfig,
    chat_for,
    vision,
    n_trials: int,
    workers: int = 1,
    templates: tuple[decision.PromptTemplate, decision.PromptTemplate] | None = None,
) -> list[EpisodeResult]:
    """n_trials episodes per task, each chatting with chat_for(task) and describing with
    vision; with workers > 1 they run on threads, so every backend must be safe to share.
    Every episode shares the (propose, evaluate) templates, read here once when not given."""
    templates = templates or decision.load_templates(config.template_dir)

    def one(task: Task, trial: int) -> EpisodeResult:
        return run_episode(task, config, chat_for(task), vision, trial, templates)

    jobs = [(task, trial) for task in tasks for trial in range(n_trials)]
    if workers <= 1:
        return [one(task, trial) for task, trial in jobs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(one, task, trial) for task, trial in jobs]
        return [f.result() for f in futures]


def summarize(
    name: str,
    flags: dict,
    results: list[EpisodeResult],
    k_values: list[int],
) -> dict:
    """One variant's row of report.json; failures counts episodes that errored
    out, not task misses."""
    pass_k = {str(k): float(pass_hat_k(results, k)) for k in k_values}
    mean_times: dict[str, float | None] = {"all": mean_completion_time(results)}
    for modality in ("multimodal", "unimodal"):
        try:
            mean_times[modality] = mean_completion_time(results, modality)
        except UsageError:
            mean_times[modality] = None
    return {
        "name": name,
        "flags": flags,
        "pass_hat_k": pass_k,
        "mean_time_ms": mean_times,
        "usage": {name: sum(getattr(r.usage, name) for r in results) for name in Usage._fields},
        "episodes": len(results),
        "failures": sum(r.error is not None for r in results),
    }


def check_k_values(k_values: list[int], n_trials: int) -> None:
    """A UsageError unless every pass^k can be taken over n_trials trials."""
    if any(not 1 <= k <= n_trials for k in k_values):
        raise UsageError(f"every k in {k_values} must be in 1..n_trials={n_trials}")


def run_ablation(
    tasks: list[Task],
    variants: list[tuple[str, AgentConfig]],
    chat_for,
    vision,
    n_trials: int,
    k_values: list[int],
    workers: int = 1,
    templates: list | None = None,
) -> tuple[list[dict], list[EpisodeResult]]:
    """One report row per (name, config) variant over the full suite, as summarize builds it;
    templates, when given, holds each variant's (propose, evaluate) templates."""
    check_k_values(k_values, n_trials)
    reports = []
    all_results: list[EpisodeResult] = []
    for i, (name, config) in enumerate(variants):
        results = run_trials(tasks, config, chat_for, vision, n_trials, workers,
                             templates[i] if templates else None)
        reports.append(summarize(name, config.to_dict(), results, k_values))
        all_results.extend(results)
    return reports, all_results


def report_table(reports: list[dict], k_values: list[int]) -> str:
    """Aligned text table, one row per variant."""
    headers = ["variant", *(f"pass^{k}" for k in k_values),
               "t_multi(ms)", "t_uni(ms)", "prompt_chars", "calls", "failures"]
    rows = []
    for report in reports:
        times = (report["mean_time_ms"][modality] for modality in ("multimodal", "unimodal"))
        rows.append([report["name"],
                     *(format_fraction(report["pass_hat_k"][str(k)]) for k in k_values),
                     *("-" if ms is None else f"{ms:.1f}" for ms in times),
                     str(report["usage"]["prompt_chars"]), str(report["usage"]["backend_calls"]),
                     str(report["failures"])])
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = [headers, ["-" * w for w in widths], *rows]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in lines)


def write_report(reports: list[dict], k_values: list[int], directory) -> None:
    directory = Path(directory)
    with writing_into(directory):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "report.json").write_text(json.dumps(reports, indent=2, sort_keys=True),
                                               encoding="utf-8")
        (directory / "report.txt").write_text(report_table(reports, k_values) + "\n",
                                              encoding="utf-8")
