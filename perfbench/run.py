"""shopclerk benchmark: closed-loop `shopclerk bench` runs over generated or bundled suites.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

Workloads are defined in workloads.py. A run calls ``cli.main(["bench", ...])``
in process, once per repetition, until --seconds have passed; every episode
of every repetition goes through the correctness gate. ``--trace 0`` prints
the end-to-end metrics, measured untraced. ``--trace 1`` prints the per-layer
metrics of traced repetitions, interleaved with the untraced and ``--workers 2``
repetitions they are compared against. The last line of standard output is one
JSON object; the exit code is 1 when any check fails. FINDINGS.md explains the
workloads, how timings are taken, and what each per-layer metric should move.
"""

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import ExitStack, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 9
MIN_REPS = 5
# On a shared 2-vCPU host the speed a process gets drifts by up to 2x, in phases
# from milliseconds to tens of seconds, and contention only ever adds time. Every
# serial repetition of a workload runs the same segments (set-up, turn, tail of
# each episode) in the same order, so end-to-end timings take each segment at its
# fastest over the run's repetitions: the program's cost when it has a core to
# itself. Over six 15 s long-session runs, the median repetition spread by 0.23
# (quartile distance over median), the fastest 5% of repetitions by 0.21 and the
# sum of per-segment minima by 0.12. Traced runs, whose repetitions are not all
# serial, compare the median of their fastest FAST_SHARE of repetitions.
FAST_SHARE = 0.05

# (name, unit): the end-to-end metrics printed with --trace 0, all measured untraced
END_TO_END = (
    ("episodes_per_s", "1/s"),
    ("turn_ms_p50", "ms"),
    ("turn_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("prompt_chars_per_episode", "chars"),
    ("backend_calls_per_episode", "count"),
    ("describe_calls_per_episode", "count"),
    ("prefix_reuse_share", "ratio"),
)

# spans every workload must fire: a missing one means a wrapper patched a stale name
EXPECTED_SPANS = {
    "bench.run_trials", "episode.run", "episode.session_init", "episode.turn",
    "backends.load_script", "backends.complete", "decision.load_template", "decision.propose",
    "decision.evaluate", "shop_tools.build_registry", "toolkit.catalog_text", "toolkit.invoke",
    "memory.render_context", "placeholders.split_parts", "placeholders.deabstract",
    "world.from_dict", "world.seed_store", "world.snapshot", "tasks.check_success",
    "vision.describe", "placeholders.resolve",
}
EXPECTED_BY_WORKLOAD = {
    "order-desk": {"memory.search", "memory.put"},
}


def _import_shopclerk() -> None:
    """Put the checkout's own shopclerk first on the path, and only that one."""
    if not (SRC / "shopclerk" / "__init__.py").is_file():
        raise SystemExit(f"error: no shopclerk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shopclerk

    if Path(shopclerk.__file__).resolve().parent != SRC / "shopclerk":
        raise SystemExit(f"error: imported shopclerk from {shopclerk.__file__}, not {SRC}")


def _fingerprint(result) -> str:
    from shopclerk.memory import message_to_dict

    wm = result.transcript
    blob = json.dumps([[message_to_dict(m, wm.session_id) for m in wm.turns], result.replies],
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Checker:
    """The correctness gate, applied to every episode of every repetition.

    An episode fails when it errors, misses its success check, produces a
    transcript that differs from the same (task, trial) in an earlier
    repetition, or when replaying its trace's mutation events onto a fresh
    world misses one of the task's state assertions.
    """

    def __init__(self, suite_tasks):
        self.tasks = {t.task_id: t for t in suite_tasks}
        self.fingerprints: dict[tuple[str, int], str] = {}
        self.attempted = 0
        self.failed = 0
        self.successes = 0
        self.usage = {"prompt_chars": 0, "backend_calls": 0, "describe_calls": 0}
        self.problems: list[str] = []

    def _problem(self, result) -> str | None:
        from shopclerk.tasks import SuccessCriteria, check_success
        from shopclerk.world import replay_mutations

        if result.error is not None:
            return f"episode error: {result.error}"
        if not result.success:
            return "success check failed"
        fingerprint = _fingerprint(result)
        first = self.fingerprints.setdefault((result.task_id, result.trial_index), fingerprint)
        if first != fingerprint:
            return "transcript differs from an earlier repetition"
        assertions = self.tasks[result.task_id].success.state_assertions
        if assertions:
            events = [e for e in result.trace.events if e["kind"] == "mutation"]
            replayed = replay_mutations(self.tasks[result.task_id].reset(), events)
            ok, _ = check_success(replayed, result.transcript,
                                  SuccessCriteria(state_assertions=assertions))
            if not ok:
                return "replayed mutation events miss a state assertion"
        return None

    def check(self, exit_code: int, results: list, expected: int) -> None:
        if exit_code != 0:
            self.problems.append(f"shopclerk bench exited with {exit_code}")
        missing = expected - len(results)
        if missing:
            self.attempted += missing
            self.failed += missing
            self.problems.append(f"{missing} episodes never reported a result")
        for result in results:
            self.attempted += 1
            for key in self.usage:
                self.usage[key] += getattr(result.usage, key)
            self.successes += result.success and result.error is None
            problem = self._problem(result)
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{result.task_id} t{result.trial_index}: {problem}")


@dataclass
class Rep:
    """One `shopclerk bench` call: episodes/s inside run_trials and its timeline's segments."""

    eps: float
    segments_ns: array  # compact, so peak RSS does not grow with the number of repetitions


def fastest(reps: list[Rep]) -> list[int]:
    """Positions of the fastest FAST_SHARE of repetitions (at least MIN_REPS), fastest first."""
    order = sorted(range(len(reps)), key=lambda i: reps[i].eps, reverse=True)
    return order[: max(MIN_REPS, round(len(reps) * FAST_SHARE))]


def best_segments(reps: list[Rep]) -> list[int]:
    """Each segment's fastest time over repetitions of one shape."""
    return [min(column) for column in zip(*(rep.segments_ns for rep in reps))]


class Harness:
    """Repeated in-process `shopclerk bench` calls over one workload's inputs."""

    def __init__(self, workload, inputs):
        from probes import Recorder
        from shopclerk.tasks import load_suite
        from shopclerk.vision import FixtureVisionBackend

        fixtures = FixtureVisionBackend.from_file(inputs.fixtures)
        suite_tasks = load_suite(inputs.suite, vision_fixtures=fixtures)
        self.workload = workload
        self.inputs = inputs
        self.checker = Checker(suite_tasks)
        self.recorder = Recorder()
        self.episodes_per_rep = len(suite_tasks)
        self.shape: tuple[str, ...] | None = None  # the mark kind opening each serial segment

    def argv(self, workers: int = 1) -> list[str]:
        """One trial per task: a repetition is short and runs each segment once."""
        return ["bench", "--suite", str(self.inputs.suite), "--scripts", str(self.inputs.scripts),
                "--fixtures", str(self.inputs.fixtures), "--n-trials", "1", "--k", "1",
                "--workers", str(workers)]

    def rep(self, workers: int = 1) -> Rep:
        from shopclerk import cli

        with redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(workers))
        results, marks = self.recorder.take()
        self.checker.check(code, results, self.episodes_per_rep)
        ns, episodes = self.recorder.last_trials
        if workers == 1:
            kinds = tuple(kind for kind, _ in marks[:-1])
            self.shape = self.shape or kinds
            if kinds != self.shape:
                self.checker.problems.append("a serial repetition ran different segments")
        segments = array("q", (b - a for (_, a), (_, b) in zip(marks, marks[1:])))
        return Rep(episodes / (ns / 1e9), segments)


def setup_seconds(harness) -> float:
    """One fresh-process set-up: import, fixture and suite load, up to the first episode."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), *harness.argv()],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _p(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(harness, seconds: float) -> tuple[dict, list[str]]:
    from probes import ModelSide, install

    model = ModelSide()
    setup: list[float] = []
    reps: list[Rep] = []
    with ExitStack() as stack:
        install(stack, harness.recorder.patches())
        with ExitStack() as capture:  # the warm-up repetition also counts model-side traffic
            install(capture, model.patches())
            harness.rep()
        # set-up probes are spread over the run, so no single slow phase of the host holds them all
        start = time.perf_counter()
        while (len(reps) < MIN_REPS or len(setup) < SETUP_PROBES
               or time.perf_counter() < start + seconds):
            if time.perf_counter() >= start + seconds * len(setup) / SETUP_PROBES:
                setup.append(setup_seconds(harness))
            reps.append(harness.rep())
    best = best_segments(reps)
    turn_ms = [ns / 1e6 for kind, ns in zip(harness.shape, best) if kind == "turn"]
    checker = harness.checker
    n = checker.attempted
    values = {
        "episodes_per_s": harness.episodes_per_rep / (sum(best) / 1e9),
        "turn_ms_p50": _p(turn_ms, 50),
        "turn_ms_p99": _p(turn_ms, 99),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": checker.successes / n,
        "prompt_chars_per_episode": checker.usage["prompt_chars"] / n,
        "backend_calls_per_episode": checker.usage["backend_calls"] / n,
        "describe_calls_per_episode": checker.usage["describe_calls"] / n,
        "prefix_reuse_share": model.reuse_share(),
    }
    notes = [
        f"repetitions={len(reps)} timed, each of their {len(best)} segments taken at its fastest; "
        f"turn percentiles over {len(turn_ms)} turns; episodes checked={n}; "
        f"setup probes={len(setup)}",
        f"episodes_per_s of the median repetition={statistics.median(r.eps for r in reps):.3f}",
        f"episode_error_share={checker.failed / n:.6f}",
    ]
    return {name: (values[name], unit) for name, unit in END_TO_END}, notes


def _per_layer(tracer, reps: set[int], untraced_eps: float, traced_eps: float,
               speedup: float) -> dict:
    spans = tracer.totals(reps)
    counts = tracer.counters(reps)
    model = tracer.model
    episodes = counts["episodes"]

    def calls(name):
        return spans.get(name, [0, 0])[0] / episodes

    def ms(name):
        return spans.get(name, [0, 0])[1] / 1e6 / episodes

    def ratio(a, b):
        return a / b if b else 0.0

    renders = spans.get("memory.render_context", [0, 0])[0]
    invokes = spans.get("toolkit.invoke", [0, 0])[0]
    resolves = spans.get("placeholders.resolve", [0, 0])[0]
    rows = [
        ("backends.load_script_calls", calls("backends.load_script"), "count"),
        ("backends.load_script_ms", ms("backends.load_script"), "ms"),
        ("decision.load_template_calls", calls("decision.load_template"), "count"),
        ("decision.load_template_ms", ms("decision.load_template"), "ms"),
        ("shop_tools.build_registry_calls", calls("shop_tools.build_registry"), "count"),
        ("shop_tools.build_registry_ms", ms("shop_tools.build_registry"), "ms"),
        ("toolkit.catalog_text_calls", calls("toolkit.catalog_text"), "count"),
        ("toolkit.catalog_text_ms", ms("toolkit.catalog_text"), "ms"),
        ("episode.session_init_ms", ms("episode.session_init"), "ms"),
        ("memory.render_context_calls", calls("memory.render_context"), "count"),
        ("memory.render_context_ms", ms("memory.render_context"), "ms"),
        ("memory.context_chars_mean", ratio(counts.get("render.chars", 0), renders), "chars"),
        ("memory.elided_share", ratio(counts.get("render.elided", 0), renders), "ratio"),
        ("backends.complete_ms", ms("backends.complete"), "ms"),
        ("placeholders.split_parts_ms", ms("placeholders.split_parts"), "ms"),
        ("placeholders.deabstract_ms", ms("placeholders.deabstract"), "ms"),
        ("placeholders.resolve_calls", calls("placeholders.resolve"), "count"),
        ("placeholders.resolve_cache_hit_ratio",
         ratio(counts.get("resolve.hits", 0), resolves), "ratio"),
        ("vision.describe_calls", calls("vision.describe"), "count"),
        ("vision.describe_ms", ms("vision.describe"), "ms"),
        ("memory.search_calls", calls("memory.search"), "count"),
        ("memory.search_ms", ms("memory.search"), "ms"),
        ("memory.put_calls", calls("memory.put"), "count"),
        ("world.from_dict_ms", ms("world.from_dict"), "ms"),
        ("world.seed_store_ms", ms("world.seed_store"), "ms"),
        ("world.snapshot_ms", ms("world.snapshot"), "ms"),
        ("world.mutations", counts.get("mutations", 0) / episodes, "count"),
        ("tasks.check_success_ms", ms("tasks.check_success"), "ms"),
        ("toolkit.invoke_calls", calls("toolkit.invoke"), "count"),
        ("toolkit.invoke_self_ms", ms("toolkit.invoke"), "ms"),
        ("toolkit.error_share", ratio(counts.get("invoke.errors", 0), invokes), "ratio"),
    ]
    for kind in model.KINDS:
        rows += [
            (f"backends.{kind}.calls", model.calls[kind] / model.episodes, "count"),
            (f"backends.{kind}.prompt_chars", model.prompt_chars[kind] / model.episodes, "chars"),
            (f"backends.{kind}.prefix_reuse_chars", model.reuse_chars[kind] / model.episodes,
             "chars"),
        ]
    rows += [
        ("decision.propose_self_ms", ms("decision.propose"), "ms"),
        ("decision.evaluate_self_ms", ms("decision.evaluate"), "ms"),
        ("decision.plans_kept_ratio",
         ratio(counts.get("propose.kept", 0), counts.get("propose.rows", 0)), "ratio"),
        ("episode.rounds_per_turn", ratio(counts.get("rounds", 0), counts.get("turns", 0)),
         "count"),
        ("episode.clarification_share",
         ratio(counts.get("clarifications", 0), counts.get("turns", 0)), "ratio"),
        ("bench.parallel_speedup", speedup, "ratio"),
        ("trace.overhead_share", 1.0 - traced_eps / untraced_eps, "ratio"),
    ]
    return {name: (value, unit) for name, value, unit in rows}


# set-up work the ROADMAP baseline attributes ~36% of harness CPU to (13 / 10 / 7.5 / 5 %)
ROADMAP_SETUP_SPANS = ("backends.load_script", "toolkit.catalog_text", "decision.load_template",
                       "shop_tools.build_registry")


def per_layer(harness, seconds: float, trace_path: Path) -> tuple[dict, list[str]]:
    from probes import Tracer, install

    tracer = Tracer()
    # untraced, two-worker and traced repetitions take turns, so a slow phase
    # of the host hits all three alike
    phases: dict[str, list[Rep]] = {"untraced": [], "two_workers": [], "traced": []}
    with ExitStack() as stack:
        install(stack, harness.recorder.patches())
        harness.rep()  # warm-up
        deadline = time.perf_counter() + seconds
        while len(phases["traced"]) < MIN_REPS or time.perf_counter() < deadline:
            phases["untraced"].append(harness.rep())
            phases["two_workers"].append(harness.rep(workers=2))
            with ExitStack() as traced_stack:
                install(traced_stack, tracer.patches())
                phases["traced"].append(harness.rep())
    untraced, two_workers, traced = (
        statistics.median(reps[i].eps for i in fastest(reps)) for reps in phases.values())
    rep_ids = {i + 1 for i in fastest(phases["traced"])}  # the tracer numbers its reps from 1
    metrics = _per_layer(tracer, rep_ids, untraced, traced, two_workers / untraced)

    fired = {name for name, (n, _) in tracer.totals().items() if n}
    expected = EXPECTED_SPANS | EXPECTED_BY_WORKLOAD.get(harness.workload.name, set())
    for name in sorted(expected - fired):
        harness.checker.problems.append(f"span {name} never fired: its wrapper patched a stale name")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(trace_path)
    spans = tracer.totals(rep_ids)
    episodes = tracer.counters(rep_ids)["episodes"]
    episode_ms = 1000.0 / untraced
    notes = [f"episodes/s untraced={untraced:.3f}, --workers 2={two_workers:.3f}, "
             f"traced={traced:.3f} (each the median of its fastest repetitions)",
             f"spans={len(tracer.spans)} written to {trace_path.relative_to(ROOT)}"]
    setup_share = 0.0
    for name in ROADMAP_SETUP_SPANS:
        share = spans.get(name, [0, 0])[1] / 1e6 / episodes / episode_ms
        setup_share += share
        notes.append(f"share of untraced episode time in {name}: {share:.4f}")
    notes.append(f"share of untraced episode time in the four set-up layers: {setup_share:.4f}")
    notes += _workload_shares(harness, metrics)
    return metrics, notes


def _workload_shares(harness, metrics: dict) -> list[str]:
    """The measured share of each property a workload was chosen for."""
    from shopclerk.placeholders import find_urls

    turns = [turn.utterance for task in harness.checker.tasks.values() for turn in task.buyer_script]
    with_url = sum(1 for text in turns if find_urls(text))
    invokes = metrics["toolkit.invoke_calls"][0]
    mutating = metrics["world.mutations"][0] / invokes if invokes else 0.0
    return [f"buyer turns carrying a URL: {with_url}/{len(turns)} = {with_url / len(turns):.4f}",
            f"renders that elide: {metrics['memory.elided_share'][0]:.4f}",
            f"tool calls that mutate the world: {mutating:.4f}"]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the last output line carries."""
    _import_shopclerk()
    from workloads import WORKLOADS, prepare

    workload = WORKLOADS[workload_name]
    work_dir = OUT / "inputs" / f"{workload_name}-{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        harness = Harness(workload, prepare(workload, seed, work_dir))
        if trace:
            trace_path = OUT / "traces" / f"{workload_name}-{seed}.jsonl"
            metrics, notes = per_layer(harness, seconds, trace_path)
        else:
            metrics, notes = end_to_end(harness, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    checker = harness.checker
    return {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "notes": notes,
        "problems": checker.problems,
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("notes"):
        print(f"# {line}")
    for name, row in result["metrics"].items():
        print(f"{name:<40} {row['value']:>16.6f} {row['unit']}")
    problems = result.pop("problems")
    for problem in problems[:20]:
        print(f"correctness: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
