"""Command-line entry point: run, bench, ablate, metrics, chat, replay."""

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .backends import RecordingBackend, RemoteBackend, ReplayBackend, ScriptedBackend
from .config import AgentConfig, agent_config_from_dict, variant_from_dict
from .episode import run_episode, write_result
from .errors import ClerkError, ConfigError, UsageError
from .files import LIST, OBJECT, STRING, make_dir, read_json, read_jsonl
from .tasks import load_suite, load_task
from .vision import FixtureVisionBackend

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_PKG_DATA = Path(__file__).parent / "data"
DEFAULT_FIXTURES = _PKG_DATA / "vision_fixtures.json"
DEFAULT_SUITE = _PKG_DATA / "suite"
DEFAULT_SCRIPTS = _PKG_DATA / "scripts"


def _add_backend_flags(parser: argparse.ArgumentParser, single_task: bool) -> None:
    if single_task:
        parser.add_argument("--script", help="scripted backend: path to a script JSON file")
        parser.add_argument("--record", help="record exchanges into this store file")
    parser.add_argument("--replay", help="replay backend: path to a recorded store")
    parser.add_argument("--remote", action="store_true",
                        help="remote backend from SHOPCLERK_CHAT_URL / _KEY")
    parser.add_argument("--fixtures",
                        help="vision fixture JSON (default: describe over the chat backend "
                             "with --remote or --replay, else the bundled fixtures)")


def _add_agent_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--n-candidates", type=int, dest="n_candidates")
    parser.add_argument("--confidence-floor", type=float, dest="confidence_floor")
    parser.add_argument("--aci", choices=["on", "off"])
    parser.add_argument("--strategy", choices=["tool", "planner"])
    parser.add_argument("--decision-module", choices=["on", "off"], dest="decision_module")


def _agent_config(args) -> AgentConfig:
    base = AgentConfig()
    if args.config:
        base = agent_config_from_dict(read_json(args.config, "config file", OBJECT),
                                      where=f"config file {args.config}")
    flags = {key: getattr(args, key) for key in AgentConfig._fields
             if getattr(args, key, None) is not None}
    return agent_config_from_dict(flags, base, where="flags")


def _episode_backends(args):
    """The one backend-selection rule of run, chat, bench and ablate, applied once per command.

    Returns (vision, chat_for). vision is the fixture set tasks are validated
    against and every episode describes with: an explicit --fixtures file,
    else None under --remote and --replay (the session describes over its
    chat backend), else the bundled fixtures. chat_for(task) gives a task's
    chat backend: the one ReplayBackend of --replay, read here and shared by
    every episode and worker thread; the one backend of a --script file; a
    fresh RemoteBackend per call, so no two threads share an HTTP session; or
    the task's script under --scripts. run and chat take exactly one of
    --script, --replay and --remote; bench and ablate at most one of --replay,
    --remote and --scripts, else the bundled scripts. --record (run, chat) wraps it.
    """
    suite = hasattr(args, "scripts")  # bench and ablate
    script, record = getattr(args, "script", None), getattr(args, "record", None)
    if suite:
        flags = {"--replay": args.replay, "--remote": args.remote, "--scripts": args.scripts}
    else:
        flags = {"--script": script, "--replay": args.replay, "--remote": args.remote}
    if sum(map(bool, flags.values())) > 1 or not (suite or any(flags.values())):
        raise ConfigError(f"select {'at most' if suite else 'exactly'} one backend: "
                          + "{}, {}, or {}".format(*flags))
    vision = None
    if args.fixtures or not (args.remote or args.replay):
        vision = FixtureVisionBackend.from_file(args.fixtures or DEFAULT_FIXTURES)
    one = None
    if args.replay or script:
        one = ReplayBackend(args.replay) if args.replay else ScriptedBackend.from_file(script)

    def chat_for(task):
        if args.remote:
            chat = RemoteBackend()
        else:
            chat = one or ScriptedBackend.from_file(
                os.path.join(args.scripts or DEFAULT_SCRIPTS, f"{task.task_id}.json"))
        return RecordingBackend(chat, record) if record else chat

    return vision, chat_for


def _at_least(floor: int, *flags: tuple[str, int]) -> None:
    for flag, value in flags:
        if value < floor:
            raise UsageError(f"{flag} must be >= {floor}, got {value}")


def cmd_run(args) -> int:
    _at_least(0, ("--trial", args.trial))
    config = _agent_config(args)
    vision, chat_for = _episode_backends(args)
    task = load_task(args.task, vision_fixtures=vision)
    chat = chat_for(task)
    if args.out:
        make_dir(args.out, "--out")
    result = run_episode(task, config, chat, vision, trial_index=args.trial)
    if args.out:
        write_result(result, args.out)
    print(f"task={result.task_id} success={str(result.success).lower()} "
          f"replies={len(result.replies)} prompt_chars={result.usage.prompt_chars} "
          f"backend_calls={result.usage.backend_calls}")
    if result.error:
        print(f"episode error: {result.error}", file=sys.stderr)
    for row in result.report_rows:
        print(f"  {'PASS' if row['ok'] else 'FAIL'}  {row['predicate']}")
    return EXIT_OK if result.success else EXIT_FAILURE


def _parse_k_values(raw: str) -> list[int]:
    try:
        k_values = [int(x) for x in raw.split(",") if x]
    except ValueError:
        raise UsageError(f"bad k list: {raw!r}") from None
    if not k_values:
        raise UsageError(f"empty k list: {raw!r}")
    return k_values


# --vary axis -> the ablation matrix it stands for
VARY_AXES = {
    "aci": ({"name": "aci-off", "aci": "off"}, {"name": "aci-on", "aci": "on"}),
    "decision": ({"name": "decision-off", "decision_module": "off"},
                 {"name": "decision-on", "decision_module": "on"}),
    "strategy": ({"name": "tool", "strategy": "tool"}, {"name": "planner", "strategy": "planner"}),
}


def _variants(args, base: AgentConfig) -> list[tuple[str, AgentConfig]]:
    """(name, config) for each --matrix row or --vary variant; bench, with neither, runs
    the one `default`."""
    if args.vary:
        return [variant_from_dict(row, base) for row in VARY_AXES[args.vary]]
    if not args.matrix:
        return [("default", base)]
    variants, first_row = [], {}
    for i, row in enumerate(read_json(args.matrix, "matrix file", LIST)):
        name, config = variant_from_dict(row, base, f"matrix file {args.matrix} row {i}")
        if name in first_row:
            raise ConfigError(f"matrix file {args.matrix} row {i}: name {name!r} "
                              f"is also the name of row {first_row[name]}")
        first_row[name] = i
        variants.append((name, config))
    return variants


def cmd_suite(args) -> int:
    """bench and ablate: every variant over the suite, one report row each; bench also
    writes each episode's trial files under --out."""
    from .bench import check_k_values, report_table, run_ablation, write_report

    _at_least(1, ("--n-trials", args.n_trials), ("--workers", args.workers))
    base = _agent_config(args)
    vision, chat_for = _episode_backends(args)
    tasks = load_suite(args.suite, vision_fixtures=vision)
    if args.modality:
        tasks = [t for t in tasks if t.modality == args.modality]
        if not tasks:
            raise UsageError(f"no {args.modality} tasks in suite")
    variants = _variants(args, base)
    k_values = _parse_k_values(args.k)
    check_k_values(k_values, args.n_trials)  # before --out is made
    if args.out:
        make_dir(Path(args.out, "trials" if args.command == "bench" else ""), "--out")
    reports, results = run_ablation(tasks, variants, chat_for, vision, args.n_trials, k_values,
                                    workers=args.workers)
    print(report_table(reports, k_values))
    if args.out:
        write_report(reports, k_values, args.out)
        if args.command == "bench":
            for result in results:
                write_result(result, Path(args.out) / "trials")
    return EXIT_FAILURE if any(r["failures"] for r in reports) else EXIT_OK


def cmd_metrics(args) -> int:
    from .metrics import (ai_contribution_ratio, format_fraction, pass_hat_k, read_annotations_csv,
                          read_trial_records, relative_improvement, time_reduction)

    if not (args.annotations or args.records or args.improvement or args.time_reduction):
        raise UsageError("metrics needs --annotations, --records, --improvement, or --time-reduction")
    k_values = _parse_k_values("1,5" if args.k is None else args.k)
    if args.k is not None and not args.records:
        raise UsageError("--k needs --records")
    if args.annotations:
        inputs = read_annotations_csv(args.annotations)
        ratio = ai_contribution_ratio(inputs)
        print(f"ai_contribution_ratio={ratio:.4f} "
              f"(valid_ai={inputs.valid_ai} total_ai={inputs.total_ai} total_cr={inputs.total_cr})")
    if args.records:
        trials = read_trial_records(args.records)
        for k in k_values:
            value = pass_hat_k(trials, k)
            print(f"pass^{k}={format_fraction(value)}")
    if args.improvement:
        gains = []
        for pair in args.improvement:
            baseline, treatment = _parse_pair(pair)
            gain = relative_improvement(baseline, treatment)
            gains.append(gain)
            print(f"relative_improvement({baseline}, {treatment})={gain * 100:.2f}%")
        if len(gains) > 1:
            print(f"mean_relative_improvement={sum(gains) / len(gains) * 100:.2f}%")
    if args.time_reduction:
        baseline, treatment = _parse_pair(args.time_reduction)
        drop = time_reduction(baseline, treatment)
        print(f"time_reduction({baseline}, {treatment})={drop * 100:.2f}%")
    return EXIT_OK


def _parse_pair(raw: str) -> tuple[float, float]:
    try:
        baseline, treatment = (float(x) for x in raw.split(":"))
    except ValueError:
        raise UsageError(f"expected BASELINE:TREATMENT, got {raw!r}") from None
    if not (math.isfinite(baseline) and math.isfinite(treatment)):
        raise UsageError(f"BASELINE:TREATMENT must be finite numbers, got {raw!r}")
    return baseline, treatment


def cmd_chat(args) -> int:
    config = _agent_config(args)
    if not args.task:  # the bundled demo, played by its own script unless a backend is chosen
        args.task = str(_PKG_DATA / "demo" / "task.json")
        if not (args.script or args.replay or args.remote):
            args.script = str(_PKG_DATA / "demo" / "script.json")
    vision, chat_for = _episode_backends(args)
    task = load_task(args.task, vision_fixtures=vision)
    chat = chat_for(task)

    from .episode import AgentSession

    session = AgentSession(task.reset(), chat, vision, config, session_id="chat")
    print(f"shopclerk chat over task {task.task_id}; /trace shows actions, blank line or EOF quits")
    while True:
        try:
            line = input("buyer> " if sys.stdin.isatty() else "").strip()
        except EOFError:
            print()
            return EXIT_OK
        if not line or line == "/quit":
            return EXIT_OK
        if line == "/trace":
            for event in session.trace.events:
                print(json.dumps(event, sort_keys=True, default=str))
            continue
        seen = len(session.trace.events)
        try:
            reply = session.handle_buyer_turn(line)
        except ClerkError as exc:
            print(f"[error] {exc}", file=sys.stderr)
            continue
        _print_turn(session.trace.events[seen:])
        print(f"agent> {reply}")


def _print_turn(events) -> None:
    """The REPL view of one turn's trace events, in trace order: each round's scores and each
    tool call, printed once its result is in."""
    rounds = 0
    for event in events:
        if event["kind"] == "decision":
            print(f"  round {rounds}:")
            rounds += 1
            for label_row in event["evaluations"]:
                marker = "*" if label_row["plan_id"] == event["selected"] else " "
                plan_text = event["plans"][label_row["plan_id"]]
                print(f"   {marker}{label_row['label']} conf={label_row['confidence']:.2f} "
                      f"{plan_text}")
        elif event["kind"] == "tool_call":
            call = event["call"]
        elif event["kind"] == "tool_result":
            result = event["result"]
            status = "error" if result["is_error"] else "ok"
            [part] = result["content"]
            print(f"  tool {call['tool']}({call['arguments']}) -> {status}: {part['text'][:120]}")


# a trace line as replay reads it: any event with a string kind
TRACE_LINE_SCHEMA = {"type": "object", "required": ["kind"], "properties": {"kind": STRING}}


def cmd_replay(args) -> int:
    from .memory import read_transcript, render_turn

    wm = read_transcript(args.transcript)
    print(f"session {wm.session_id}: {len(wm)} turns")
    for msg in wm.turns:
        print(render_turn(msg))
    if args.trace:
        for _, row in read_jsonl(args.trace, "trace", TRACE_LINE_SCHEMA):
            print(f"  [{row['kind']}] " + json.dumps(row, sort_keys=True)[:160])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shopclerk",
        description="Tool-using customer-service agent, simulated shop, and eval harness",
    )
    parser.add_argument("--version", action="version", version=f"shopclerk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one task episode")
    p_run.add_argument("--task", required=True)
    p_run.add_argument("--trial", type=int, default=0)
    p_run.add_argument("--out", help="directory for result/transcript/trace artifacts")
    _add_backend_flags(p_run, single_task=True)
    _add_agent_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    # no abbreviations on suite commands: --script would otherwise pass for --scripts
    suite = {}
    for name, help_text, k_default in (
        ("bench", "run the task suite and print pass^k", "1,2,3,4,5"),
        ("ablate", "compare agent configurations over the suite", "1,5"),
    ):
        p_suite = suite[name] = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p_suite.add_argument("--suite", default=str(DEFAULT_SUITE))
        p_suite.add_argument("--scripts", help="directory of per-task scripts (default: bundled)")
        p_suite.add_argument("--n-trials", type=int, default=5, dest="n_trials")
        p_suite.add_argument("--k", default=k_default)
        p_suite.add_argument("--workers", type=int, default=1)
        p_suite.add_argument("--out")
        _add_backend_flags(p_suite, single_task=False)
        _add_agent_flags(p_suite)
        p_suite.set_defaults(func=cmd_suite)
    suite["bench"].set_defaults(matrix=None, vary=None, modality=None)
    matrix_or_axis = suite["ablate"].add_mutually_exclusive_group(required=True)
    matrix_or_axis.add_argument("--matrix", help="JSON list of variant configs")
    matrix_or_axis.add_argument("--vary", choices=list(VARY_AXES))
    suite["ablate"].add_argument("--modality", choices=["unimodal", "multimodal"])

    p_metrics = sub.add_parser("metrics", help="recompute metrics from recorded files")
    p_metrics.add_argument("--annotations", help="CSV of judged messages")
    p_metrics.add_argument("--records", help="directory of *.result.json trials")
    p_metrics.add_argument("--k", help="pass^k values for --records (default: 1,5)")
    p_metrics.add_argument("--improvement", action="append",
                           help="BASELINE:TREATMENT pair; repeatable, prints mean")
    p_metrics.add_argument("--time-reduction", dest="time_reduction",
                           help="BASELINE:TREATMENT pair")
    p_metrics.set_defaults(func=cmd_metrics)

    p_chat = sub.add_parser("chat", help="interactive buyer REPL with decision traces")
    p_chat.add_argument("--task", help="world/task file (default: bundled demo)")
    _add_backend_flags(p_chat, single_task=True)
    _add_agent_flags(p_chat)
    p_chat.set_defaults(func=cmd_chat)

    p_replay = sub.add_parser("replay", help="pretty-print a recorded transcript")
    p_replay.add_argument("--transcript", required=True)
    p_replay.add_argument("--trace")
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClerkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
