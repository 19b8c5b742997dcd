import json

import pytest

from shopclerk.backends import ScriptedBackend
from shopclerk.bench import report_table, run_ablation, run_trials, summarize, write_report
from shopclerk.config import AgentConfig, agent_config_from_dict
from shopclerk.errors import UsageError
from shopclerk.tasks import load_suite, load_task


def scripts_in(scripts_dir):
    """chat_for over a scripts directory: each task plays its own script."""
    def chat_for(task):
        return ScriptedBackend.from_file(scripts_dir / f"{task.task_id}.json")

    return chat_for


@pytest.fixture()
def three_tasks(suite_dir, vision_fixtures):
    wanted = ("kettle-capacity", "mug-price-stock", "damaged-kettle-refund")
    return [load_task(suite_dir / f"{t}.json", vision_fixtures) for t in wanted]


def test_trial_counting_contract(three_tasks, scripts_dir, vision_fixtures):
    variants = [
        ("a", AgentConfig()),
        ("b", agent_config_from_dict({"aci": "off"}, AgentConfig())),
    ]
    reports, results = run_ablation(three_tasks, variants, scripts_in(scripts_dir), vision_fixtures,
                                    n_trials=5, k_values=[1, 5])
    assert len(results) == 2 * 3 * 5
    assert len(reports) == 2
    assert all(r["episodes"] == 15 for r in reports)


def test_k_values_bounded_by_n_trials(three_tasks, scripts_dir, vision_fixtures):
    with pytest.raises(UsageError):
        run_ablation(three_tasks, [("a", AgentConfig())], scripts_in(scripts_dir), vision_fixtures,
                     n_trials=5, k_values=[7])


@pytest.mark.parametrize("k_values", [[0], [1, -2]])
def test_k_below_one_is_rejected_before_any_episode(three_tasks, vision_fixtures, k_values):
    def chat_for(task):
        raise AssertionError("no episode may start")

    with pytest.raises(UsageError, match=r"must be in 1\.\.n_trials=2"):
        run_ablation(three_tasks, [("a", AgentConfig())], chat_for, vision_fixtures,
                     n_trials=2, k_values=k_values)


def test_aci_ablation_direction_on_multimodal(suite_dir, scripts_dir, vision_fixtures):
    tasks = [t for t in load_suite(suite_dir, vision_fixtures) if t.modality == "multimodal"]
    variants = [
        ("aci-off", agent_config_from_dict({"aci": "off"}, AgentConfig())),
        ("aci-on", AgentConfig()),
    ]
    reports, _ = run_ablation(tasks, variants, scripts_in(scripts_dir), vision_fixtures,
                              n_trials=2, k_values=[1])
    off, on = reports
    assert on["usage"]["prompt_chars"] < off["usage"]["prompt_chars"]
    # a deterministic mean completion time: 0.01 ms per prompt char, 2 ms per backend call
    simulated_ms = lambda row: (0.01 * row["usage"]["prompt_chars"]
                                + 2.0 * row["usage"]["backend_calls"]) / row["episodes"]
    assert simulated_ms(on) < simulated_ms(off)


def test_parallel_workers_match_serial(three_tasks, scripts_dir, vision_fixtures):
    chat_for = scripts_in(scripts_dir)
    config = AgentConfig()
    serial = run_trials(three_tasks, config, chat_for, vision_fixtures, n_trials=2, workers=1)
    parallel = run_trials(three_tasks, config, chat_for, vision_fixtures, n_trials=2, workers=4)
    key = lambda r: (r.task_id, r.trial_index, r.success, r.usage.prompt_chars)
    assert sorted(map(key, serial)) == sorted(map(key, parallel))


def test_summarize_counts_episode_errors(three_tasks, vision_fixtures):
    def broken(task):
        return ScriptedBackend([])  # exhausts immediately

    results = run_trials(three_tasks, AgentConfig(), broken, vision_fixtures, n_trials=1)
    report = summarize("broken", {}, results, k_values=[1])
    assert report["failures"] == 3
    assert report["pass_hat_k"]["1"] == 0.0


def test_report_table_and_files(tmp_path, three_tasks, scripts_dir, vision_fixtures):
    variants = [("default", AgentConfig())]
    reports, _ = run_ablation(three_tasks, variants, scripts_in(scripts_dir), vision_fixtures,
                              n_trials=2, k_values=[1, 2])
    table = report_table(reports, [1, 2])
    assert "pass^1" in table.splitlines()[0]
    assert "default" in table
    write_report(reports, [1, 2], tmp_path)
    assert json.loads((tmp_path / "report.json").read_text()) == reports
    for row in reports:
        assert set(row) == {"name", "flags", "pass_hat_k", "mean_time_ms", "usage",
                            "episodes", "failures"}
    assert "pass^2" in (tmp_path / "report.txt").read_text()
