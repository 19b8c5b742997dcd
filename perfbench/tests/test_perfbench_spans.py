"""The benchmark's probes: span coverage per workload, prefix reuse, metric names, bare checkout."""

import json
import random
import shutil
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request, tmp_path_factory):
    """One untraced and one traced repetition of a workload."""
    workload = workloads.WORKLOADS[request.param]
    harness = run.Harness(workload, workloads.prepare(workload, 5, tmp_path_factory.mktemp("in")))
    tracer = probes.Tracer()
    with ExitStack() as stack:
        probes.install(stack, harness.recorder.patches())
        untraced = harness.rep()
        probes.install(stack, tracer.patches())
        traced_rep = harness.rep()
    return workload, harness, tracer, untraced, traced_rep


def test_every_expected_span_fires(traced):
    workload, harness, tracer, _, _ = traced
    fired = {name for name, (n, _) in tracer.totals().items() if n}
    expected = run.EXPECTED_SPANS | run.EXPECTED_BY_WORKLOAD.get(workload.name, set())
    assert expected <= fired
    assert not harness.checker.problems


def test_spans_land_where_the_workload_puts_them(traced):
    workload, harness, tracer, _, _ = traced
    per_episode = {name: n / harness.episodes_per_rep for name, (n, _) in tracer.totals({1}).items()}
    if workload.name == "suite":
        # one script parse per episode at the time the benchmark was defined;
        # parsing once per task moves it below 1, never to 0
        assert 0 < per_episode["backends.load_script"] <= 1
    if workload.name == "order-desk":
        assert per_episode["memory.search"] >= 1
        assert tracer.counters({1})["mutations"] == harness.episodes_per_rep * workloads.DESK_TURNS
    if workload.name == "long-session":
        assert per_episode["vision.describe"] >= 1
        assert tracer.counters({1})["render.elided"] > 0


def test_traced_run_reports_every_per_layer_metric_in_benchmark_json(traced):
    _, _, tracer, untraced, traced_rep = traced
    metrics = run._per_layer(tracer, {1}, untraced.eps, traced_rep.eps, 1.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in metrics.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_prefix_reuse_matches_brute_force():
    from shopclerk.backends import ChatMessage, ChatRequest

    rng = random.Random(0)
    model = probes.ModelSide()
    model.new_episode()
    prompts, expected = [], 0
    for _ in range(60):
        prompt = "".join(rng.choice("ab") for _ in range(rng.randint(1, 12)))
        expected += max((len(_shared(prompt, p)) for p in prompts), default=0)
        prompts.append(prompt)
        model.record(ChatRequest(messages=(ChatMessage("user", prompt),)))
    assert model.reuse_chars["propose"] == expected
    assert model.prompt_chars["propose"] == sum(map(len, prompts))


def _shared(a: str, b: str) -> str:
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return a[:n]


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
