"""Tests for the deterministic failpoint framework (:mod:`repro.faults`).

The framework's contract: sites are registered idempotently and cost a
single flag check when nothing is armed; armed decisions are pure
functions of ``(seed, scope, site, hit index)`` — so the same seed replays
the identical injection schedule, :func:`replay_decisions` recomputes it
without running anything, and :func:`verify_log` proves an observed log
matches it exactly; arming travels losslessly through the environment
(spawned workers); and injected failures land *before* side effects — an
injected ``fsio.write`` error never leaves a damaged file, an injected
``binfmt.read`` corruption is caught by the format's own digest check.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults


@pytest.fixture(autouse=True)
def _disarm():
    faults.disarm_all()
    faults.clear_log()
    yield
    faults.disarm_all()
    faults.clear_log()


class TestRegistration:
    def test_failpoint_is_idempotent_get_or_create(self):
        first = faults.failpoint("test.site-a", "first description")
        again = faults.failpoint("test.site-a")
        assert first is again
        assert again.description == "first description"

    def test_serving_sites_register_on_import(self):
        import repro.serving  # noqa: F401
        import repro.serving.cluster  # noqa: F401
        import repro.serving.schedule  # noqa: F401

        names = {point.name for point in faults.list_failpoints()}
        assert {
            "fsio.write",
            "fsio.append",
            "binfmt.read",
            "worker.handle",
            "router.relay",
            "schedule.epoch_build",
        } <= names

    def test_disarmed_hit_is_a_no_op(self):
        point = faults.failpoint("test.noop")
        assert not faults.active()
        point.hit()  # must not raise
        assert point.corrupt(b"abc") == b"abc"
        assert point.armed_spec is None


class TestDeterminism:
    def test_every_n_schedule_fires_on_the_grid(self):
        point = faults.failpoint("test.every")
        faults.arm(
            [{"site": "test.every", "action": "raise", "every": 3}], seed=5
        )
        outcomes = []
        for _ in range(9):
            try:
                point.hit()
                outcomes.append(False)
            except faults.FaultInjected:
                outcomes.append(True)
        assert outcomes == [True, False, False] * 3
        assert point.stats()["fires"] == 3

    def test_probability_schedule_replays_from_the_seed(self):
        spec = faults.FaultSpec(
            site="test.prob", action="raise", probability=0.4
        )
        first = faults.replay_decisions(spec, seed=11, scope="s", count=200)
        again = faults.replay_decisions(spec, seed=11, scope="s", count=200)
        other = faults.replay_decisions(spec, seed=12, scope="s", count=200)
        assert first == again
        assert first != other
        assert 0 < len(first) < 200

        point = faults.failpoint("test.prob")
        faults.arm([spec], seed=11, scope="s")
        observed = []
        for index in range(200):
            try:
                point.hit()
            except faults.FaultInjected:
                observed.append(index)
        assert observed == first

    def test_times_caps_total_fires(self):
        spec = faults.FaultSpec(
            site="test.times", action="raise", every=2, times=2
        )
        assert faults.replay_decisions(spec, seed=0, scope="main", count=50) == [0, 2]
        point = faults.failpoint("test.times")
        faults.arm([spec], seed=0)
        fired = 0
        for _ in range(50):
            try:
                point.hit()
            except faults.FaultInjected:
                fired += 1
        assert fired == 2

    def test_after_delays_the_first_fire(self):
        spec = faults.FaultSpec(
            site="test.after", action="raise", every=4, after=3
        )
        assert faults.replay_decisions(spec, seed=0, scope="main", count=12) == [3, 7, 11]

    def test_corrupt_flips_exactly_one_deterministic_byte(self):
        point = faults.failpoint("test.corrupt")
        payload = bytes(range(64))
        faults.arm(
            [{"site": "test.corrupt", "action": "corrupt", "times": 1}], seed=3
        )
        mutated = point.corrupt(payload)
        untouched = point.corrupt(payload)  # times=1: second call is clean
        assert untouched == payload
        diffs = [i for i, (a, b) in enumerate(zip(payload, mutated)) if a != b]
        assert len(diffs) == 1
        assert mutated[diffs[0]] == payload[diffs[0]] ^ 0xFF
        # re-arming with the same seed flips the same byte
        faults.disarm_all()
        faults.arm(
            [{"site": "test.corrupt", "action": "corrupt", "times": 1}], seed=3
        )
        assert point.corrupt(payload) == mutated

    def test_delay_action_sleeps_without_raising(self):
        point = faults.failpoint("test.delay")
        faults.arm(
            [
                {
                    "site": "test.delay",
                    "action": "delay",
                    "delay_ms": 1.0,
                    "times": 1,
                }
            ]
        )
        point.hit()  # sleeps ~1ms, must not raise
        assert point.stats()["fires"] == 1


class TestInjectionLog:
    def test_log_verifies_against_the_armed_specs(self):
        spec = faults.FaultSpec(site="test.log", action="raise", every=2)
        point = faults.failpoint("test.log")
        faults.arm([spec], seed=9, scope="unit")
        for _ in range(10):
            try:
                point.hit()
            except faults.FaultInjected:
                pass
        entries = faults.injection_log()
        assert [entry["index"] for entry in entries] == [0, 2, 4, 6, 8]
        assert all(entry["scope"] == "unit" for entry in entries)
        assert faults.verify_log(entries, [spec], seed=9) == []

    def test_log_verification_catches_a_wrong_seed_and_a_forged_entry(self):
        spec = faults.FaultSpec(
            site="test.log2", action="raise", probability=0.5
        )
        point = faults.failpoint("test.log2")
        faults.arm([spec], seed=1, scope="unit")
        for _ in range(40):
            try:
                point.hit()
            except faults.FaultInjected:
                pass
        entries = faults.injection_log()
        assert faults.verify_log(entries, [spec], seed=1) == []
        assert faults.verify_log(entries, [spec], seed=2) != []
        forged = entries + [
            {
                "scope": "unit",
                "pid": entries[0]["pid"],
                "site": "test.log2",
                "index": 9999,
                "action": "raise",
            }
        ]
        assert faults.verify_log(forged, [spec], seed=1) != []

    def test_file_sink_round_trips(self, tmp_path):
        sink = tmp_path / "faults.jsonl"
        spec = faults.FaultSpec(site="test.sink", action="raise", every=3)
        point = faults.failpoint("test.sink")
        faults.arm([spec], seed=4, scope="sinks", log_path=sink)
        for _ in range(9):
            try:
                point.hit()
            except faults.FaultInjected:
                pass
        from_file = faults.read_log(sink)
        assert from_file == faults.injection_log()
        assert faults.verify_log(from_file, [spec], seed=4) == []


class TestEnvArming:
    def test_env_round_trip_arms_the_same_schedule(self, tmp_path):
        spec = faults.FaultSpec(
            site="test.env", action="raise", exc="os", every=2, times=3
        )
        env = faults.env_for(
            [spec], seed=7, scope="worker", log_path=tmp_path / "log.jsonl"
        )
        assert json.loads(env[faults.ENV_SPECS]) == [spec.to_dict()]
        assert faults.arm_from_env(env) is True
        point = faults.failpoint("test.env")
        assert point.armed_spec == spec
        with pytest.raises(OSError):
            point.hit()

    def test_empty_env_arms_nothing(self):
        assert faults.arm_from_env({}) is False
        assert not faults.active()

    def test_unknown_spec_fields_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-spec field"):
            faults.FaultSpec.from_dict({"site": "x", "action": "raise", "nope": 1})
        with pytest.raises(ValueError, match="unknown action"):
            faults.FaultSpec(site="x", action="explode")


class TestServingSites:
    def test_injected_write_failure_leaves_the_file_intact(self, tmp_path):
        from repro.serving import _fsio

        target = tmp_path / "state.json"
        _fsio.atomic_write_json(target, {"version": 1})
        faults.arm(
            [{"site": "fsio.write", "action": "raise", "exc": "os", "times": 1}]
        )
        with pytest.raises(OSError):
            _fsio.atomic_write_json(target, {"version": 2})
        # the fault fired before any byte moved: old contents fully intact
        assert json.loads(target.read_text()) == {"version": 1}
        _fsio.atomic_write_json(target, {"version": 2})  # times exhausted
        assert json.loads(target.read_text()) == {"version": 2}

    def test_injected_read_corruption_is_caught_by_the_digest_check(self, tmp_path):
        from repro.exceptions import ReleaseFormatError
        from repro.serving import binfmt
        from tests.serving.test_release_format import make_structure

        structure = make_structure({"ab": 5.0, "ba": 3.0})
        path = tmp_path / "v0001.dpsb"
        binfmt.write_binary(path, structure)
        faults.arm([{"site": "binfmt.read", "action": "corrupt", "times": 1}])
        with pytest.raises(ReleaseFormatError):
            binfmt.read_binary(path, mmap=False)
        # schedule exhausted: the very same blob loads cleanly again
        binfmt.read_binary(path, mmap=False)


def _load_bench_chaos():
    """``benchmarks/bench_chaos.py``, whose ``OVERHEAD_GATE`` E29 enforces."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_chaos.py"
    spec = importlib.util.spec_from_file_location("bench_chaos", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_e29_overhead_gate_fails_on_a_ten_percent_handler_delay():
    """The E29 overhead gate is not vacuous: a ``worker.handle`` delay of
    10% of the ``/batch`` round trip on the armed arm fails it."""
    import itertools
    import threading

    from repro.analysis import experiments
    from repro.serving import QueryService, create_server
    from tests.serving.test_release_format import make_structure

    bench = _load_bench_chaos()
    patterns = ["".join(p) for p in itertools.product("abcd", repeat=4)]
    structure = make_structure({pattern: 1.0 for pattern in patterns[:64]})
    service = QueryService({"e29": structure}, micro_batch=False)
    server = create_server(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    port = server.server_address[1]
    body = json.dumps({"patterns": patterns[:128]}).encode("utf-8")
    try:
        round_trip_ms = experiments.failpoint_overhead(port, body, [], repeats=20)[
            "disarmed_ms"
        ]
        delay = {"site": "worker.handle", "action": "delay", "delay_ms": 0.1 * round_trip_ms}
        row = experiments.failpoint_overhead(port, body, [delay], repeats=20)
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    assert len(row["block_ratios"]) >= 8
    failures = bench._check_rows([{"mode": "disarmed-overhead", **row}], smoke=True)
    assert any(failure.startswith("overhead:") for failure in failures), row


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    every=st.integers(1, 7),
    after=st.integers(0, 5),
    count=st.integers(1, 60),
)
def test_replay_decisions_match_the_eligibility_rule(seed, every, after, count):
    spec = faults.FaultSpec(
        site="prop.site", action="raise", every=every, after=after
    )
    fired = faults.replay_decisions(spec, seed=seed, scope="p", count=count)
    assert fired == [
        index
        for index in range(count)
        if index >= after and (index - after) % every == 0
    ]
