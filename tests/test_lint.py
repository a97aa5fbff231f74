"""simlint rule-engine tests: per-rule fixtures, suppressions, baseline,
and the JSON report schema."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import Baseline, Finding, lint_paths, lint_source
from repro.lint.engine import render_json, render_text
from repro.lint.rules import all_rules, layering
from repro.lint.sarif import render_sarif, sarif_dict


def rules_hit(source, module="repro.core.snippet", select=None):
    """Rule ids triggered by a source snippet, as a set."""
    source = textwrap.dedent(source)
    findings = lint_source(source, module=module)
    hits = {f.rule for f in findings}
    if select is not None:
        hits &= {select}
    return hits


# -- SL001: unseeded/global random ------------------------------------------------------


class TestUnseededRandom:
    def test_global_call_flagged(self):
        src = """
        import random

        def jitter():
            return random.random()
        """
        assert rules_hit(src) == {"SL001"}

    def test_aliased_import_flagged(self):
        src = """
        import random as rnd

        def pick(items):
            return rnd.choice(items)
        """
        assert rules_hit(src) == {"SL001"}

    def test_from_import_flagged(self):
        src = """
        from random import shuffle
        """
        assert rules_hit(src) == {"SL001"}

    def test_unseeded_random_instance_flagged(self):
        src = """
        import random

        rng = random.Random()
        """
        assert rules_hit(src) == {"SL001"}

    def test_system_random_flagged(self):
        src = """
        import random

        rng = random.SystemRandom()
        """
        assert rules_hit(src) == {"SL001"}

    def test_seeded_random_instance_clean(self):
        src = """
        import random

        def build(seed: int):
            rng = random.Random(seed)
            return rng.random()
        """
        assert rules_hit(src) == set()

    def test_annotation_use_clean(self):
        src = """
        import random

        def scan(rng: random.Random) -> float:
            return rng.random()
        """
        assert rules_hit(src) == set()


# -- SL002: wall-clock reads ------------------------------------------------------------


class TestWallClock:
    def test_time_time_flagged(self):
        src = """
        import time

        def now_ms():
            return time.time() * 1000.0
        """
        assert rules_hit(src) == {"SL002"}

    def test_perf_counter_flagged(self):
        src = """
        import time

        start = time.perf_counter()
        """
        assert rules_hit(src) == {"SL002"}

    def test_datetime_now_flagged(self):
        src = """
        import datetime

        stamp = datetime.datetime.now()
        """
        assert rules_hit(src) == {"SL002"}

    def test_from_time_import_flagged(self):
        src = """
        from time import perf_counter_ns
        """
        assert rules_hit(src) == {"SL002"}

    def test_repro_perf_exempt(self):
        src = """
        import time

        start = time.perf_counter_ns()
        """
        assert rules_hit(src, module="repro.perf.profiler") == set()

    def test_sleep_clean(self):
        src = """
        import time

        def pause():
            time.sleep(0.1)
        """
        assert rules_hit(src) == set()

    def test_obs_export_exempt(self):
        # repro.obs.export may stamp trace files with their generation
        # time; simulated timestamps still come only from the event loop.
        src = """
        import time

        def stamp():
            return time.time()
        """
        assert rules_hit(src, module="repro.obs.export") == set()

    def test_runner_pool_exempt(self):
        # repro.runner is orchestration, not simulation: timeouts, retry
        # backoff, and deadlines are wall-clock by nature.  The golden
        # digest tests prove no host time leaks into results.
        src = """
        import time

        deadline = time.monotonic() + 60.0
        """
        assert rules_hit(src, module="repro.runner.pool") == set()

    def test_runner_prefix_not_exempt(self):
        # The allowlist is prefix-per-package, not substring: a module
        # merely named like the runner is still checked.
        src = """
        import time

        start = time.monotonic()
        """
        assert rules_hit(src, module="repro.runners") == {"SL002"}

    def test_svc_exempt(self):
        # repro.svc is orchestration one layer above the runner: request
        # timeouts, breaker cooldowns, and latency histograms are
        # host-clock by nature; the chaos bit-identity tests prove none
        # of it leaks into results.
        src = """
        import time

        opened_at = time.monotonic()
        """
        assert rules_hit(src, module="repro.svc.breaker") == set()

    def test_svc_prefix_not_exempt(self):
        # Package-boundary matching again: "repro.svcx" is not the
        # service package.
        src = """
        import time

        start = time.monotonic()
        """
        assert rules_hit(src, module="repro.svcx.breaker") == {"SL002"}

    def test_obs_observer_not_exempt(self):
        # The allowlist covers only the exporter — the observer itself
        # records simulated time and must never touch the host clock.
        src = """
        import time

        def stamp():
            return time.time()
        """
        assert rules_hit(src, module="repro.obs.observer") == {"SL002"}


# -- SL003: unsorted set iteration in core/disk -----------------------------------------


class TestUnorderedIteration:
    def test_for_over_set_literal_flagged(self):
        src = """
        def scan():
            for disk in {2, 0, 1}:
                print(disk)
        """
        assert "SL003" in rules_hit(src)

    def test_for_over_set_call_flagged(self):
        src = """
        def scan(items):
            for item in set(items):
                print(item)
        """
        assert "SL003" in rules_hit(src)

    def test_dict_comp_over_set_local_flagged(self):
        src = """
        def budgets(size):
            free = {d for d in range(4) if d % 2}
            return {d: size for d in free}
        """
        assert "SL003" in rules_hit(src)

    def test_set_returning_method_flagged(self):
        src = """
        class Policy:
            def _free_disks(self):
                return {d for d in range(4)}

            def fill(self):
                for disk in self._free_disks():
                    print(disk)
        """
        assert "SL003" in rules_hit(src)

    def test_dict_keys_flagged(self):
        src = """
        def walk(table):
            for key in table.keys():
                print(key)
        """
        assert "SL003" in rules_hit(src)

    def test_known_set_attribute_flagged(self):
        src = """
        def walk(cache):
            return [b for b in cache.resident]
        """
        assert "SL003" in rules_hit(src)

    def test_sorted_iteration_clean(self):
        src = """
        def scan(items):
            out = []
            for item in sorted(set(items)):
                out.append(item)
            return out
        """
        assert rules_hit(src) == set()

    def test_order_free_reduction_clean(self):
        src = """
        def low(cache, protected):
            return min(b for b in cache.resident if b not in protected)
        """
        assert rules_hit(src) == set()

    def test_outside_core_disk_not_checked(self):
        src = """
        def scan(items):
            for item in set(items):
                print(item)
        """
        assert rules_hit(src, module="repro.analysis.snippet") == set()

    def test_list_over_set_still_flagged(self):
        src = """
        def scan(items):
            for item in list(set(items)):
                print(item)
        """
        assert "SL003" in rules_hit(src)


# -- SL004: float equality on simulated time --------------------------------------------


class TestTimeEquality:
    def test_time_equality_flagged(self):
        src = """
        def check(service_ms, expected_ms):
            return service_ms == expected_ms
        """
        assert "SL004" in rules_hit(src)

    def test_attribute_time_flagged(self):
        src = """
        def stalled(episode):
            return episode.start_ms != episode.end_ms
        """
        assert "SL004" in rules_hit(src)

    def test_ordering_clean(self):
        src = """
        def positive(compute_ms):
            return compute_ms > 0
        """
        assert rules_hit(src) == set()

    def test_non_time_name_clean(self):
        src = """
        def same(speedup, factor):
            return speedup == factor
        """
        assert rules_hit(src) == set()

    def test_integrality_check_clean(self):
        src = """
        def integral(fetch_time):
            return fetch_time != int(fetch_time)
        """
        assert rules_hit(src) == set()


# -- SL005: list head operations --------------------------------------------------------


class TestListHead:
    def test_pop_zero_flagged(self):
        src = """
        def drain(queue):
            return queue.pop(0)
        """
        assert rules_hit(src) == {"SL005"}

    def test_insert_zero_flagged(self):
        src = """
        def push(queue, item):
            queue.insert(0, item)
        """
        assert rules_hit(src) == {"SL005"}

    def test_pop_last_clean(self):
        src = """
        def drain(queue):
            return queue.pop()
        """
        assert rules_hit(src) == set()

    def test_insert_middle_clean(self):
        src = """
        def place(queue, index, item):
            queue.insert(index, item)
        """
        assert rules_hit(src) == set()

    def test_outside_hot_paths_not_checked(self):
        src = """
        def drain(queue):
            return queue.pop(0)
        """
        assert rules_hit(src, module="repro.analysis.snippet") == set()


# -- SL006: policy contract -------------------------------------------------------------


class TestPolicyContract:
    def test_unknown_hook_flagged(self):
        src = """
        from repro.core.policy import PrefetchPolicy

        class Typo(PrefetchPolicy):
            def on_disk_ready(self, disk, now):
                pass
        """
        assert "SL006" in rules_hit(src)

    def test_wrong_arity_flagged(self):
        src = """
        from repro.core.policy import PrefetchPolicy

        class Wrong(PrefetchPolicy):
            def on_miss(self, cursor):
                pass
        """
        assert "SL006" in rules_hit(src)

    def test_trace_mutation_flagged(self):
        src = """
        from repro.core.policy import PrefetchPolicy

        class Mutator(PrefetchPolicy):
            def before_reference(self, cursor, now):
                self.sim.blocks.append(0)
        """
        assert "SL006" in rules_hit(src)

    def test_trace_item_assignment_flagged(self):
        src = """
        from repro.core.policy import PrefetchPolicy

        class Mutator(PrefetchPolicy):
            def before_reference(self, cursor, now):
                self.sim.compute_ms[cursor] = 0.0
        """
        assert "SL006" in rules_hit(src)

    def test_conforming_policy_clean(self):
        src = """
        from repro.core.policy import PrefetchPolicy

        class Fine(PrefetchPolicy):
            def before_reference(self, cursor, now):
                head = self.sim.compute_ms[:10]
                return sum(head)

            def on_disk_idle(self, disk, now):
                pass
        """
        assert rules_hit(src) == set()

    def test_observer_hook_wrappers_clean(self):
        # The repro.obs instrumentation pattern: hook wrappers are local
        # closures installed on the *instance*, not methods of a Policy
        # class — SL006's contract checks must not fire on them.
        src = """
        class Observer:
            def attach(self, sim):
                policy = sim.policy
                inner = policy.before_reference

                def before_reference(cursor, now):
                    self.counter += 1
                    return inner(cursor, now)

                policy.before_reference = before_reference
        """
        assert rules_hit(src, module="repro.obs.snippet", select="SL006") == set()

    def test_observer_style_policy_class_still_checked(self):
        # The exemption is structural (closures, not classes): a *Policy*
        # class with a malformed hook still fires even if it claims to be
        # tracing instrumentation.
        src = """
        from repro.core.policy import PrefetchPolicy

        class TracingPolicy(PrefetchPolicy):
            def before_reference(self, cursor):
                pass
        """
        assert "SL006" in rules_hit(src, module="repro.obs.snippet")

    def test_registry_checked_across_modules(self):
        registry = textwrap.dedent(
            """
            from nowhere import NotAPolicy

            POLICIES = {
                "bogus": NotAPolicy,
            }
            """
        )
        findings = lint_source(
            registry, module="repro.core", path="core/__init__.py"
        )
        assert {f.rule for f in findings} == {"SL006"}
        assert "bogus" in findings[0].message


# -- SL007: mutable defaults ------------------------------------------------------------


class TestMutableDefault:
    def test_list_default_flagged(self):
        src = """
        def record(value, seen=[]):
            seen.append(value)
            return seen
        """
        assert rules_hit(src) == {"SL007"}

    def test_dict_call_default_flagged(self):
        src = """
        def config(options=dict()):
            return options
        """
        assert rules_hit(src) == {"SL007"}

    def test_kwonly_set_default_flagged(self):
        src = """
        def gather(*, acc={1}):
            return acc
        """
        assert rules_hit(src) == {"SL007"}

    def test_none_default_clean(self):
        src = """
        def record(value, seen=None):
            if seen is None:
                seen = []
            seen.append(value)
            return seen
        """
        assert rules_hit(src) == set()

    def test_tuple_default_clean(self):
        src = """
        def choose(cursor, exclude=()):
            return exclude
        """
        assert rules_hit(src) == set()


# -- SL008: bare except -----------------------------------------------------------------


class TestBareExcept:
    def test_bare_except_flagged(self):
        src = """
        def fetch(disk):
            try:
                disk.read()
            except:
                pass
        """
        assert rules_hit(src) == {"SL008"}

    def test_base_exception_flagged(self):
        src = """
        def fetch(disk):
            try:
                disk.read()
            except BaseException:
                pass
        """
        assert rules_hit(src) == {"SL008"}

    def test_specific_exception_clean(self):
        src = """
        def fetch(disk):
            try:
                disk.read()
            except KeyError:
                return None
        """
        assert rules_hit(src) == set()


# -- SL009: float-sentinel identity comparison ------------------------------------------


class TestFloatSentinelIdentity:
    def test_is_infinite_flagged(self):
        src = """
        INFINITE = float("inf")

        def drop(next_use, fetch_pos):
            if next_use is not INFINITE and next_use <= fetch_pos:
                return True
            return False
        """
        assert rules_hit(src) == {"SL009"}

    def test_is_float_inf_call_flagged(self):
        src = """
        def cold(next_use):
            return next_use is float("inf")
        """
        assert rules_hit(src) == {"SL009"}

    def test_attribute_sentinel_flagged(self):
        src = """
        def cold(next_use, nextref):
            return next_use is nextref.INFINITE
        """
        assert rules_hit(src) == {"SL009"}

    def test_equality_against_sentinel_clean(self):
        src = """
        INFINITE = float("inf")

        def cold(next_use):
            return next_use == INFINITE
        """
        assert rules_hit(src) == set()

    def test_integer_sentinel_comparison_clean(self):
        src = """
        def drop(index, victim, cursor, fetch_pos):
            return index.next_use(victim, cursor) <= fetch_pos
        """
        assert rules_hit(src) == set()

    def test_is_none_clean(self):
        src = """
        def pick(victim):
            return victim is not None
        """
        assert rules_hit(src) == set()

    def test_old_nextref_pattern_fires(self):
        """The exact pattern the batched core removed from repro.core."""
        src = """
        from repro.core.nextref import INFINITE

        def victim_ok(sim, victim, cursor, fetch_position):
            next_use = sim.index.next_use(victim, cursor)
            if next_use is not INFINITE and next_use <= fetch_position:
                return False
            return True
        """
        assert rules_hit(src) == {"SL009"}


# -- suppression comments ---------------------------------------------------------------


class TestSuppressions:
    def test_targeted_suppression(self):
        src = """
        def drain(queue):
            return queue.pop(0)  # simlint: disable=SL005
        """
        assert rules_hit(src) == set()

    def test_blanket_suppression(self):
        src = """
        def drain(queue):
            return queue.pop(0)  # simlint: disable
        """
        assert rules_hit(src) == set()

    def test_wrong_rule_does_not_suppress(self):
        src = """
        def drain(queue):
            return queue.pop(0)  # simlint: disable=SL001
        """
        assert rules_hit(src) == {"SL005"}

    def test_suppression_is_line_scoped(self):
        src = """
        def drain(queue):
            queue.pop(0)  # simlint: disable=SL005
            return queue.pop(0)
        """
        assert rules_hit(src) == {"SL005"}


# -- baseline ---------------------------------------------------------------------------


def _finding(message="m", rule="SL005", path="a.py", line=3):
    return Finding(
        rule=rule, severity="warning", path=path, line=line, col=1, message=message
    )


class TestBaseline:
    def test_round_trip_and_partition(self, tmp_path):
        grandfathered = _finding("old finding")
        path = tmp_path / "baseline.json"
        Baseline.save(path, [grandfathered])
        baseline = Baseline.load(path)
        # Same finding on a different line still matches (line-number free).
        moved = _finding("old finding", line=99)
        fresh = _finding("new finding")
        new, matched, stale = baseline.partition([moved, fresh])
        assert new == [fresh]
        assert matched == [moved]
        assert stale == []

    def test_stale_entries_reported(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.save(path, [_finding("fixed since")])
        baseline = Baseline.load(path)
        new, matched, stale = baseline.partition([])
        assert new == [] and matched == []
        assert len(stale) == 1 and "fixed since" in stale[0]

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0

    def test_duplicate_findings_need_duplicate_entries(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.save(path, [_finding("dup")])
        baseline = Baseline.load(path)
        new, matched, _ = baseline.partition([_finding("dup"), _finding("dup")])
        assert len(matched) == 1 and len(new) == 1


# -- end-to-end over files + JSON schema ------------------------------------------------


BAD_SOURCE = textwrap.dedent(
    """
    import random

    def jitter(queue):
        queue.pop(0)
        return random.random()
    """
)


class TestLintPaths:
    def _write_package(self, tmp_path):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        target = package / "bad.py"
        target.write_text(BAD_SOURCE)
        return target

    def test_exit_code_and_findings(self, tmp_path):
        target = self._write_package(tmp_path)
        report = lint_paths([target], all_rules())
        assert report.exit_code == 1
        assert {f.rule for f in report.findings} == {"SL001", "SL005"}

    def test_baseline_silences_known_findings(self, tmp_path):
        target = self._write_package(tmp_path)
        first = lint_paths([target], all_rules())
        baseline_path = tmp_path / "baseline.json"
        Baseline.save(baseline_path, first.findings)
        second = lint_paths(
            [target], all_rules(), baseline=Baseline.load(baseline_path)
        )
        assert second.exit_code == 0
        assert second.findings == []
        assert len(second.baselined) == 2

    def test_directory_discovery(self, tmp_path):
        self._write_package(tmp_path)
        report = lint_paths([tmp_path], all_rules())
        assert report.files == 3  # two __init__.py + bad.py
        assert report.exit_code == 1

    def test_json_schema(self, tmp_path):
        target = self._write_package(tmp_path)
        report = lint_paths([target], all_rules())
        payload = json.loads(render_json(report))
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert payload["exit_code"] == 1
        assert payload["baselined"] == 0
        assert payload["suppressed"] == 0
        assert payload["stale_baseline"] == []
        for entry in payload["findings"]:
            assert set(entry) == {
                "rule", "severity", "path", "line", "col", "message"
            }
            assert isinstance(entry["line"], int)
            assert entry["severity"] in ("error", "warning")

    def test_text_render_mentions_rule_and_location(self, tmp_path):
        target = self._write_package(tmp_path)
        report = lint_paths([target], all_rules())
        text = render_text(report)
        assert "SL001" in text and "SL005" in text
        assert "bad.py" in text
        assert "2 findings" in text

    def test_syntax_error_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        report = lint_paths([broken], all_rules())
        assert report.exit_code == 1
        assert report.parse_errors and report.parse_errors[0].rule == "SL000"


# -- the repo itself must be clean ------------------------------------------------------


class TestRepoIsClean:
    def test_src_repro_has_no_findings(self):
        package = Path(__file__).resolve().parent.parent / "src" / "repro"
        report = lint_paths([package], all_rules())
        assert report.exit_code == 0, render_text(report)
        assert report.findings == []

    def test_module_entry_point(self):
        package = Path(__file__).resolve().parent.parent / "src" / "repro"
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(package), "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["findings"] == []


def findings_for(source, module="repro.core.snippet"):
    """All findings for a snippet (when the message matters, not just the id)."""
    return lint_source(textwrap.dedent(source), module=module)


# -- SL010: blocking call reachable from async code -------------------------------------


class TestBlockingInAsync:
    def test_direct_blocking_call_flagged(self):
        src = """
        import time

        async def handler():
            time.sleep(0.5)
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL010"}
        assert "time.sleep" in findings[0].message

    def test_catches_seeded_indirect_blocking_two_hops_deep(self):
        # The seeded-bug shape: an async handler calls a helper that
        # calls a helper that blocks — no `time.sleep` visible anywhere
        # in the async function itself.
        src = """
        import time

        def low():
            time.sleep(0.1)

        def mid():
            low()

        async def handler():
            mid()
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL010"}
        # The finding carries the full call-chain witness.
        assert "mid -> low" in findings[0].message
        assert "time.sleep" in findings[0].message

    def test_blocking_file_open_in_async_flagged(self):
        src = """
        async def load(path):
            with open(path) as handle:
                return handle.read()
        """
        assert rules_hit(src) == {"SL010"}

    def test_blocking_queue_get_method_flagged(self):
        src = """
        class Worker:
            async def pump(self):
                return self._queue.get()
        """
        assert rules_hit(src) == {"SL010"}

    def test_to_thread_wrapped_call_clean(self):
        src = """
        import asyncio

        def work():
            import time

            time.sleep(1.0)

        async def handler():
            await asyncio.to_thread(work)
        """
        assert rules_hit(src) == set()

    def test_awaited_wait_for_on_condition_clean(self):
        src = """
        import asyncio

        class Stream:
            async def wait_news(self):
                async with self._event_cond:
                    await asyncio.wait_for(self._event_cond.wait(), 1.0)
        """
        assert rules_hit(src) == set()

    def test_blocking_only_from_sync_code_clean(self):
        src = """
        import time

        def pause():
            time.sleep(0.1)

        def caller():
            pause()
        """
        assert rules_hit(src) == set()


# -- SL011: sync lock held across an await ----------------------------------------------


class TestLockAcrossAwait:
    def test_await_under_sync_lock_flagged(self):
        src = """
        import asyncio

        class Box:
            async def update(self):
                with self._lock:
                    await asyncio.sleep(0)
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL011"}
        assert "lock" in findings[0].message

    def test_lock_released_before_await_clean(self):
        src = """
        import asyncio

        class Box:
            async def update(self):
                with self._lock:
                    self.value = 1
                await asyncio.sleep(0)
        """
        assert rules_hit(src) == set()

    def test_async_lock_clean(self):
        src = """
        import asyncio

        class Box:
            async def update(self):
                async with self._lock:
                    await asyncio.sleep(0)
        """
        assert rules_hit(src) == set()

    def test_sync_function_with_lock_clean(self):
        src = """
        class Box:
            def update(self):
                with self._lock:
                    self.value = 1
        """
        assert rules_hit(src) == set()


# -- SL012: fire-and-forget tasks / un-awaited coroutines -------------------------------


class TestFireAndForget:
    def test_bare_ensure_future_flagged(self):
        src = """
        import asyncio

        def kick(coro):
            asyncio.ensure_future(coro)
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL012"}
        assert "weak" in findings[0].message

    def test_bare_create_task_flagged(self):
        src = """
        import asyncio

        def kick(coro):
            asyncio.create_task(coro)
        """
        assert rules_hit(src) == {"SL012"}

    def test_task_kept_with_strong_reference_clean(self):
        # The pattern the service's `_publish` fix uses.
        src = """
        import asyncio

        def kick(tasks, coro):
            task = asyncio.create_task(coro)
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        """
        assert rules_hit(src) == set()

    def test_task_group_create_task_clean(self):
        src = """
        async def fan_out(tg, coro):
            tg.create_task(coro)
        """
        assert rules_hit(src) == set()

    def test_unawaited_project_coroutine_flagged(self):
        src = """
        async def notify():
            return None

        def publish():
            notify()
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL012"}
        assert "without" in findings[0].message

    def test_awaited_project_coroutine_clean(self):
        src = """
        async def notify():
            return None

        async def publish():
            await notify()
        """
        assert rules_hit(src) == set()


# -- SL013: crash-consistency protocol --------------------------------------------------


class TestCrashConsistency:
    def test_catches_seeded_rename_without_fsync(self):
        # The seeded-bug shape: a "tmp file + rename" writer that skips
        # the fsync — durable rename, possibly lost data.
        src = """
        import json
        import os

        def save(path, payload):
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL013"}
        assert "flushed but never fsynced" in findings[0].message

    def test_rename_of_unflushed_handle_flagged(self):
        src = """
        import os

        def save(path, payload):
            tmp = path + ".tmp"
            handle = open(tmp, "w")
            handle.write(payload)
            os.replace(tmp, path)
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL013"}
        assert "written but never flushed" in findings[0].message

    def test_fsync_on_wrong_fd_flagged(self):
        src = """
        import os

        def save(path, payload, other):
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(other.fileno())
            os.replace(tmp, path)
        """
        assert rules_hit(src) == {"SL013"}

    def test_canonical_atomic_write_clean(self):
        # The write_json_atomic protocol: write, flush, fsync *this*
        # handle's fd, then rename.
        src = """
        import json
        import os

        def save(path, payload):
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        """
        assert rules_hit(src) == set()

    def test_fsync_via_fd_alias_clean(self):
        src = """
        import os

        def save(path, payload):
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                handle.write(payload)
                handle.flush()
                fd = handle.fileno()
                os.fsync(fd)
            os.replace(tmp, path)
        """
        assert rules_hit(src) == set()

    def test_write_after_rename_flagged(self):
        src = """
        import os

        def save(path, payload):
            tmp = path + ".tmp"
            handle = open(tmp, "w")
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
            os.replace(tmp, path)
            handle.write(payload)
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL013"}
        assert "already renamed" in findings[0].message

    def test_truncating_open_of_append_only_log_flagged(self):
        src = """
        def reset(journal_path):
            return open(journal_path, "w")
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL013"}
        assert "append-only" in findings[0].message

    def test_append_open_of_log_clean(self):
        src = """
        def reopen(journal_path):
            return open(journal_path, "a")
        """
        assert rules_hit(src) == set()


# -- SL014: shared state across the fork boundary ---------------------------------------


class TestForkSharedState:
    def test_catches_worker_mutating_module_global(self):
        src = """
        import multiprocessing

        _CACHE = {}

        def worker():
            _CACHE["x"] = 1

        def spawn():
            proc = multiprocessing.Process(target=worker)
            proc.start()
            return proc
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL014"}
        assert "_CACHE" in findings[0].message

    def test_mutation_reached_transitively_flagged(self):
        src = """
        import multiprocessing

        _RESULTS = []

        def helper(value):
            _RESULTS.append(value)

        def entry():
            helper(1)

        def spawn(ctx):
            return ctx.Process(target=entry)
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL014"}
        assert "_RESULTS" in findings[0].message

    def test_module_global_handle_read_flagged(self):
        src = """
        import multiprocessing

        _LOG = open("events.out", "a")

        def worker():
            _LOG.write("hi")

        def spawn():
            return multiprocessing.Process(target=worker)
        """
        findings = findings_for(src)
        assert {f.rule for f in findings} == {"SL014"}
        assert "handle" in findings[0].message

    def test_worker_with_locals_only_clean(self):
        src = """
        import multiprocessing

        def worker(conn):
            cache = {}
            cache["x"] = 1
            conn.send(cache)

        def spawn(conn):
            return multiprocessing.Process(target=worker, args=(conn,))
        """
        assert rules_hit(src) == set()

    def test_reading_immutable_global_clean(self):
        src = """
        import multiprocessing

        _LIMIT = 3

        def worker(conn):
            conn.send(_LIMIT)

        def spawn(conn):
            return multiprocessing.Process(target=worker, args=(conn,))
        """
        assert rules_hit(src) == set()


# -- SL015: import layering -------------------------------------------------------------


class TestImportLayering:
    def test_core_importing_runner_at_module_scope_flagged(self):
        findings = findings_for(
            "import repro.runner\n", module="repro.core.snippet"
        )
        assert {f.rule for f in findings} == {"SL015"}
        assert "at module scope" in findings[0].message

    def test_disk_from_importing_svc_flagged(self):
        src = """
        from repro.svc.store import ResultStore
        """
        assert rules_hit(src, module="repro.disk.snippet") == {"SL015"}

    def test_type_checking_import_clean(self):
        src = """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.runner.plan import Cell
        """
        assert rules_hit(src) == set()

    def test_allowlisted_lazy_import_clean(self, monkeypatch):
        # The allowlist is empty; an entry still exempts exactly its pair.
        monkeypatch.setattr(
            layering, "_LAZY_ALLOWLIST", {("repro.core.engine", "repro.svc")}
        )
        src = """
        def run():
            from repro.svc.service import SimulationService

            return SimulationService
        """
        assert rules_hit(src, module="repro.core.engine") == set()
        assert rules_hit(src, module="repro.core.forestall") == {"SL015"}

    @pytest.mark.parametrize("layer", ["repro.perf", "repro.obs"])
    def test_lazy_perf_or_obs_import_in_core_flagged(self, layer):
        src = f"""
        def run(profile=None):
            if profile:
                import {layer}

                return {layer}
            return None
        """
        findings = findings_for(src, module="repro.core.engine")
        assert {f.rule for f in findings} == {"SL015"}
        assert "allowlist" in findings[0].message

    def test_non_allowlisted_lazy_import_flagged(self):
        src = """
        def run():
            from repro.svc.service import SimulationService

            return SimulationService
        """
        findings = findings_for(src, module="repro.core.engine")
        assert {f.rule for f in findings} == {"SL015"}
        assert "allowlist" in findings[0].message

    def test_orchestration_layers_may_import_each_other(self):
        src = """
        import repro.runner
        from repro.svc.store import ResultStore
        """
        assert rules_hit(src, module="repro.analysis.snippet") == set()


# -- SL016: no logging/print in the hot core --------------------------------------------


class TestCoreOutput:
    def test_import_logging_in_core_flagged(self):
        findings = findings_for(
            "import logging\n", module="repro.core.snippet"
        )
        assert {f.rule for f in findings} == {"SL016"}
        assert "must not log" in findings[0].message

    def test_from_logging_import_in_disk_flagged(self):
        src = """
        from logging import getLogger
        """
        assert rules_hit(src, module="repro.disk.snippet") == {"SL016"}

    def test_print_in_core_flagged(self):
        src = """
        def step(self):
            print("debugging the hot loop")
        """
        findings = findings_for(src, module="repro.core.engine")
        assert {f.rule for f in findings} == {"SL016"}
        assert "print()" in findings[0].message

    def test_service_layer_may_log_and_print(self):
        src = """
        import logging

        def report():
            print("fine here")
        """
        assert rules_hit(src, module="repro.svc.service", select="SL016") == set()
        assert rules_hit(src, module="repro.obs.logging", select="SL016") == set()

    def test_package_boundary_matching(self):
        # "repro.corelib" is not "repro.core": same boundary rule as SL002.
        src = """
        import logging
        print("not core-layer code")
        """
        assert rules_hit(src, module="repro.corelib.tools", select="SL016") == set()

    def test_line_suppression_honoured(self):
        src = """
        import logging  # simlint: disable=SL016
        """
        assert rules_hit(src, module="repro.core.snippet") == set()


# -- SL017: undeadlined stream reads / unawaited drains in repro.svc --------------------


class TestUnboundedStreamIo:
    def test_undeadlined_await_read_flagged(self):
        src = """
        async def handler(reader, writer):
            head = await reader.readuntil(b"\\r\\n\\r\\n")
            return head
        """
        assert rules_hit(src, module="repro.svc.http", select="SL017") == \
            {"SL017"}

    def test_undeadlined_readexactly_flagged(self):
        src = """
        async def body_of(stream_reader, length):
            return await stream_reader.readexactly(length)
        """
        assert rules_hit(src, module="repro.svc.http", select="SL017") == \
            {"SL017"}

    def test_dropped_read_coroutine_flagged(self):
        src = """
        async def handler(reader):
            reader.read(4096)  # never awaited: the read never happens
        """
        assert rules_hit(src, module="repro.svc.http", select="SL017") == \
            {"SL017"}

    def test_unawaited_drain_flagged(self):
        src = """
        async def send(writer, data):
            writer.write(data)
            writer.drain()
        """
        assert rules_hit(src, module="repro.svc.http", select="SL017") == \
            {"SL017"}

    def test_wait_for_wrapped_read_clean(self):
        src = """
        import asyncio

        async def handler(reader):
            return await asyncio.wait_for(reader.readuntil(b"x"), 10.0)
        """
        assert rules_hit(src, module="repro.svc.http", select="SL017") == set()

    def test_timeout_block_read_clean(self):
        src = """
        import asyncio

        async def handler(reader):
            async with asyncio.timeout(10.0):
                return await reader.read(4096)
        """
        assert rules_hit(src, module="repro.svc.http", select="SL017") == set()

    def test_awaited_drain_clean(self):
        src = """
        import asyncio

        async def send(writer, data):
            writer.write(data)
            await asyncio.wait_for(writer.drain(), 5.0)
        """
        assert rules_hit(src, module="repro.svc.http", select="SL017") == set()

    def test_non_readerish_receiver_ignored(self):
        src = """
        async def load(handle):
            return handle.read()  # a file handle is SL010's department
        """
        assert rules_hit(src, module="repro.svc.http", select="SL017") == set()

    def test_sync_functions_ignored(self):
        src = """
        def load(reader):
            return reader.read()
        """
        assert rules_hit(src, module="repro.svc.http", select="SL017") == set()

    def test_outside_repro_svc_ignored(self):
        src = """
        async def handler(reader):
            return await reader.readuntil(b"x")
        """
        assert rules_hit(src, module="repro.runner.pool",
                         select="SL017") == set()
        assert rules_hit(src, module="repro.core.snippet",
                         select="SL017") == set()

    def test_line_suppression_honoured(self):
        src = """
        async def handler(reader):
            return await reader.readuntil(b"x")  # simlint: disable=SL017
        """
        assert rules_hit(src, module="repro.svc.http", select="SL017") == set()

    def test_hardened_http_frontend_is_clean(self):
        root = Path(__file__).resolve().parent.parent
        report = lint_paths([root / "src" / "repro" / "svc"], all_rules(),
                            select={"SL017"})
        assert report.findings == []


# -- SARIF output -----------------------------------------------------------------------


class TestSarifOutput:
    def _write_package(self, tmp_path):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        target = package / "bad.py"
        target.write_text(BAD_SOURCE)
        return target

    def test_document_structure(self, tmp_path):
        self._write_package(tmp_path)
        report = lint_paths([tmp_path], all_rules())
        doc = sarif_dict(report, all_rules())
        assert doc["version"] == "2.1.0"
        assert "sarif" in doc["$schema"]
        (run,) = doc["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {f"SL{n:03d}" for n in range(1, 16)} <= rule_ids
        assert {res["ruleId"] for res in run["results"]} == {"SL001", "SL005"}

    def test_results_carry_fingerprints_and_locations(self, tmp_path):
        self._write_package(tmp_path)
        report = lint_paths([tmp_path], all_rules())
        doc = sarif_dict(report, all_rules())
        (run,) = doc["runs"]
        fingerprints = {f.fingerprint for f in report.findings}
        for result in run["results"]:
            assert (
                result["partialFingerprints"]["simlintFingerprint/v1"]
                in fingerprints
            )
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
            assert location["region"]["startLine"] >= 1

    def test_invocation_reflects_exit_code_and_timing(self, tmp_path):
        self._write_package(tmp_path)
        report = lint_paths([tmp_path], all_rules())
        (run,) = sarif_dict(report, all_rules())["runs"]
        (invocation,) = run["invocations"]
        assert invocation["executionSuccessful"] is False
        assert invocation["properties"]["files"] == report.files
        assert invocation["properties"]["elapsed_s"] >= 0

    def test_clean_tree_is_execution_successful(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        report = lint_paths([clean], all_rules())
        (run,) = sarif_dict(report, all_rules())["runs"]
        assert run["results"] == []
        assert run["invocations"][0]["executionSuccessful"] is True

    def test_render_round_trips_as_json(self, tmp_path):
        self._write_package(tmp_path)
        report = lint_paths([tmp_path], all_rules())
        assert json.loads(render_sarif(report, all_rules())) == sarif_dict(
            report, all_rules()
        )

    def test_cli_sarif_format(self, tmp_path):
        target = self._write_package(tmp_path)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                str(target),
                "--format",
                "sarif",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]

    def test_cli_output_file(self, tmp_path):
        target = self._write_package(tmp_path)
        out = tmp_path / "lint.sarif"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                str(target),
                "--format",
                "sarif",
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stdout.strip() == ""
        assert json.loads(out.read_text())["version"] == "2.1.0"


# -- analysis-time budget ---------------------------------------------------------------


class TestAnalysisBudget:
    def test_elapsed_is_recorded_and_reported(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        report = lint_paths([clean], all_rules())
        assert report.elapsed_s > 0
        assert json.loads(render_json(report))["elapsed_s"] == round(
            report.elapsed_s, 3
        )

    def test_cli_fails_when_over_budget(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                str(clean),
                "--max-seconds",
                "0",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "budget" in result.stderr

    def test_cli_passes_within_budget(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                str(clean),
                "--max-seconds",
                "60",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
