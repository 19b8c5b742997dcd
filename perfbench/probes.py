"""What the benchmark wraps inside shopclerk: results and turn times, model-side counts, spans.

Every wrapper replaces the name its caller looks up at call time. Where a
caller binds a function with ``from ... import``, the caller's own module
attribute is patched too (``episode.render_context``, ``episode.build_registry``,
``episode.check_success`` and the rest), so a renamed or rebound function
shows as a missing span rather than as a silent zero.
"""

import bisect
import json
import threading
from contextlib import ExitStack
from time import perf_counter_ns
from unittest import mock

from shopclerk import backends, bench, decision, episode, memory, placeholders, shop_tools
from shopclerk import tasks, toolkit, vision, world


def install(stack: ExitStack, patches) -> None:
    """Apply (owner, attribute, replacement) patches until the stack closes."""
    for owner, attr, new in patches:
        stack.enter_context(mock.patch.object(owner, attr, new))


class Recorder:
    """Collects each EpisodeResult and a timeline of each run_trials call.

    The timeline is a list of (kind, perf_counter_ns) marks: "begin" at
    run_trials entry, "turn" and "reply" around each buyer turn, "episode"
    when an episode returns, "end" at run_trials exit. Consecutive marks
    bound the segments of the call; a serial repetition of a deterministic
    suite produces the same kinds of segments in the same order every time.
    """

    def __init__(self):
        self.results = []
        self.marks: list[tuple[str, int]] = []
        self.last_trials: tuple[int, int] = (0, 0)  # (ns, episodes) of the latest run_trials

    def patches(self):
        run_trials = bench.run_trials
        run_episode = bench.run_episode
        handle_buyer_turn = episode.AgentSession.handle_buyer_turn

        def timed_run_trials(*args, **kwargs):
            start = perf_counter_ns()
            self.marks.append(("begin", start))
            out = run_trials(*args, **kwargs)
            end = perf_counter_ns()
            self.marks.append(("end", end))
            self.last_trials = (end - start, len(out))
            return out

        def recorded_run_episode(*args, **kwargs):
            result = run_episode(*args, **kwargs)
            self.marks.append(("episode", perf_counter_ns()))
            self.results.append(result)
            return result

        def timed_turn(session, utterance):
            self.marks.append(("turn", perf_counter_ns()))
            report = handle_buyer_turn(session, utterance)
            self.marks.append(("reply", perf_counter_ns()))
            return report

        return [
            (bench, "run_trials", timed_run_trials),
            (bench, "run_episode", recorded_run_episode),
            (episode.AgentSession, "handle_buyer_turn", timed_turn),
        ]

    def take(self) -> tuple[list, list[tuple[str, int]]]:
        """The results and timeline marks recorded since the last call."""
        out = self.results, self.marks
        self.results, self.marks = [], []
        return out


def _common_prefix(a: str, b: str) -> int:
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def call_kind(request) -> str:
    return "evaluate" if request.label_alphabet else "propose"


class ModelSide:
    """Backend calls, prompt chars and reusable prefix per call kind.

    A request's reusable prefix is the longest prefix it shares with any
    earlier request of the same episode: an offline stand-in for a
    provider's prefix cache. The closest earlier prompt in sorted order is
    a neighbour of the new one, so two comparisons find it.
    """

    KINDS = ("propose", "evaluate")

    def __init__(self):
        self.calls = dict.fromkeys(self.KINDS, 0)
        self.prompt_chars = dict.fromkeys(self.KINDS, 0)
        self.reuse_chars = dict.fromkeys(self.KINDS, 0)
        self.episodes = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def new_episode(self) -> None:
        self._local.seen = []
        with self._lock:
            self.episodes += 1

    def record(self, request) -> None:
        prompt = "\n".join(m.content for m in request.messages)
        seen = self._local.seen
        i = bisect.bisect_left(seen, prompt)
        reuse = max((_common_prefix(prompt, seen[j]) for j in (i - 1, i) if 0 <= j < len(seen)),
                    default=0)
        seen.insert(i, prompt)
        kind = call_kind(request)
        with self._lock:
            self.calls[kind] += 1
            self.prompt_chars[kind] += request.prompt_chars()
            self.reuse_chars[kind] += reuse

    def reuse_share(self) -> float:
        total = sum(self.prompt_chars.values())
        return sum(self.reuse_chars.values()) / total if total else 0.0

    def patches(self):
        run_episode = bench.run_episode
        complete = backends.ScriptedBackend.complete

        def fresh_episode(*args, **kwargs):
            self.new_episode()
            return run_episode(*args, **kwargs)

        def recorded_complete(backend, request):
            response = complete(backend, request)
            self.record(request)
            return response

        return [(bench, "run_episode", fresh_episode),
                (backends.ScriptedBackend, "complete", recorded_complete)]


class Tracer:
    """In-memory spans (name, start, end, parent) around each layer's public functions.

    A span is a list ``[name, start_ns, end_ns, parent, rep, child_ns]``;
    ``rep`` numbers the ``bench.run_trials`` call the span ran in, from 1,
    and is 0 outside one (set-up and checks). Per-episode metrics fold the
    spans and counters of chosen repetitions. Bookkeeping done after a span
    closes is added to the parent's child time, so it counts as tracing
    overhead and not as the parent's self time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = {}  # rep -> counter -> value
        self.rep = 0
        self.reps_seen = 0
        self.model = ModelSide()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, key: str, n: int = 1) -> None:
        if self.rep:
            with self._lock:
                counts = self.counts.setdefault(self.rep, {})
                counts[key] = counts.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        spans = self.spans
        local = self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = [name, perf_counter_ns(), 0, parent, self.rep, 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                spans.append(span)
                if parent is not None:
                    parent[5] += span[2] - span[1]
            if after is not None:
                started = perf_counter_ns()
                after(args, result)
                if parent is not None:
                    parent[5] += perf_counter_ns() - started
            return result

        return traced

    # --- counters taken where the work happens ---

    def _episode_done(self, args, result) -> None:
        events = result.trace.events
        self.count("episodes")
        self.count("turns", len(result.replies))
        self.count("rounds", sum(1 for e in events if e["kind"] == "decision"))
        self.count("mutations", sum(1 for e in events if e["kind"] == "mutation"))
        self.count("clarifications", sum(1 for r in result.replies
                                         if r == episode.CLARIFICATION_REPLY))

    def _rendered(self, args, text) -> None:
        self.count("render.chars", len(text))
        self.count("render.elided", text.startswith(memory.ELISION_MARKER))

    def _completed(self, args, response) -> None:
        request = args[1]
        if self.rep:
            self.model.record(request)
        if call_kind(request) == "propose":
            match = decision.FENCED_JSON_RE.search(response.text)
            rows = json.loads(match.group(1)) if match else []
            self.count("propose.rows", len(rows.get("plans", [])) if isinstance(rows, dict)
                       else len(rows))

    def _proposed(self, args, plans) -> None:
        self.count("propose.kept", len(plans))

    def _invoked(self, args, result) -> None:
        self.count("invoke.errors", result.is_error)

    def _checked_resolve(self, resolve):
        def resolve_with_hit(placeholder, table, *rest, **kwargs):
            instruction = rest[2] if len(rest) > 2 else kwargs.get("instruction")
            entry = table.lookup(placeholder)
            hit = entry is not None and (instruction or "") in entry.resolved
            self.count("resolve.hits", hit)
            return resolve(placeholder, table, *rest, **kwargs)

        return resolve_with_hit

    def patches(self):
        def scoped(fn):
            def numbered(*args, **kwargs):
                self.reps_seen += 1
                self.rep = self.reps_seen
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.rep = 0

            return numbered

        run_episode = bench.run_episode

        def fresh_episode(*args, **kwargs):
            self.model.new_episode()
            return run_episode(*args, **kwargs)

        w = self.wrap
        A = episode.AgentSession
        return [
            (bench, "run_trials", scoped(w("bench.run_trials", bench.run_trials))),
            (bench, "run_episode", w("episode.run", fresh_episode, self._episode_done)),
            (A, "__init__", w("episode.session_init", A.__init__)),
            (A, "handle_buyer_turn", w("episode.turn", A.handle_buyer_turn)),
            (backends, "load_script", w("backends.load_script", backends.load_script)),
            (backends.ScriptedBackend, "complete",
             w("backends.complete", backends.ScriptedBackend.complete, self._completed)),
            (decision, "load_template", w("decision.load_template", decision.load_template)),
            (decision, "propose", w("decision.propose", decision.propose, self._proposed)),
            (decision, "evaluate", w("decision.evaluate", decision.evaluate)),
            (episode, "build_registry", w("shop_tools.build_registry", episode.build_registry)),
            (shop_tools, "build_registry",
             w("shop_tools.build_registry", shop_tools.build_registry)),
            (toolkit.ToolRegistry, "catalog_text",
             w("toolkit.catalog_text", toolkit.ToolRegistry.catalog_text)),
            (toolkit.ToolRegistry, "invoke",
             w("toolkit.invoke", toolkit.ToolRegistry.invoke, self._invoked)),
            (episode, "render_context",
             w("memory.render_context", episode.render_context, self._rendered)),
            (memory, "render_context",
             w("memory.render_context", memory.render_context, self._rendered)),
            (episode, "split_parts", w("placeholders.split_parts", episode.split_parts)),
            (placeholders, "split_parts", w("placeholders.split_parts", placeholders.split_parts)),
            (episode, "deabstract_text", w("placeholders.deabstract", episode.deabstract_text)),
            (placeholders, "deabstract_text",
             w("placeholders.deabstract", placeholders.deabstract_text)),
            (placeholders, "resolve",
             w("placeholders.resolve", self._checked_resolve(placeholders.resolve))),
            (vision.FixtureVisionBackend, "describe",
             w("vision.describe", vision.FixtureVisionBackend.describe)),
            (memory.LongTermStore, "search", w("memory.search", memory.LongTermStore.search)),
            (memory.LongTermStore, "put", w("memory.put", memory.LongTermStore.put)),
            (tasks, "world_from_dict", w("world.from_dict", tasks.world_from_dict)),
            (world, "world_from_dict", w("world.from_dict", world.world_from_dict)),
            (episode, "seed_store", w("world.seed_store", episode.seed_store)),
            (world, "seed_store", w("world.seed_store", world.seed_store)),
            (world.World, "snapshot", w("world.snapshot", world.World.snapshot)),
            (episode, "check_success", w("tasks.check_success", episode.check_success)),
            (tasks, "check_success", w("tasks.check_success", tasks.check_success)),
        ]

    # --- folds over the spans ---

    def totals(self, reps=None) -> dict[str, list[int]]:
        """name -> [span count, self ns], over the given repetitions or over every span."""
        out: dict[str, list[int]] = {}
        for name, start, end, _, rep, child in self.spans:
            if reps is None or rep in reps:
                row = out.setdefault(name, [0, 0])
                row[0] += 1
                row[1] += end - start - child
        return out

    def counters(self, reps) -> dict[str, int]:
        out: dict[str, int] = {}
        for rep in reps:
            for key, value in self.counts.get(rep, {}).items():
                out[key] = out.get(key, 0) + value
        return out

    def write_jsonl(self, path) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rep, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": ids.get(id(parent)), "rep": rep,
                }) + "\n")
