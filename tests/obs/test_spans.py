"""Tracing span tests: nesting, exception unwinding, thread isolation, the
per-span peak RSS, and the BuildProfile views (backend, total, stages, text
render, Chrome trace)."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.core.reference import reference_counting_structure
from repro.obs.spans import _state


@pytest.fixture(autouse=True)
def clean_span_state():
    """Spans must never leak between tests via the thread-local stack."""
    previous = obs.set_enabled(True)
    _state.stack = []
    yield
    assert not getattr(_state, "stack", []), "a test leaked an open span"
    obs.set_enabled(previous)


class TestSpanNesting:
    def test_span_without_a_trace_is_a_noop(self):
        with obs.span("orphan") as target:
            assert target is None
        assert obs.current_span() is None

    def test_trace_records_a_tree(self):
        with obs.trace("build", q=3) as root:
            with obs.span("outer", level=1) as outer:
                assert obs.current_span() is outer
                with obs.span("inner"):
                    pass
            with obs.span("outer", level=2):
                pass
        assert root.name == "build"
        assert root.attrs == {"q": 3}
        assert [child.name for child in root.children] == ["outer", "outer"]
        assert [child.name for child in root.children[0].children] == ["inner"]
        assert root.wall_seconds >= root.children[0].wall_seconds >= 0.0
        assert root.status == "ok"
        assert obs.current_span() is None

    def test_nested_trace_attaches_as_a_child(self):
        with obs.trace("outer") as outer:
            with obs.trace("inner-build") as inner:
                pass
        assert [child.name for child in outer.children] == ["inner-build"]
        assert inner is outer.children[0]

    def test_find_iterates_descendants_by_name(self):
        with obs.trace("root") as root:
            with obs.span("level", length=1):
                with obs.span("count"):
                    pass
            with obs.span("level", length=2):
                pass
        lengths = [sp.attrs["length"] for sp in root.find("level")]
        assert lengths == [1, 2]
        assert len(list(root.find("count"))) == 1

    def test_disabled_telemetry_skips_the_trace(self):
        obs.set_enabled(False)
        with obs.trace("build") as root:
            assert root is None
            with obs.span("stage") as stage:
                assert stage is None
        assert obs.current_span() is None

    def test_span_still_nests_inside_an_active_trace_when_disabled(self):
        # The root decides; disabling mid-trace must not orphan children.
        with obs.trace("build") as root:
            obs.set_enabled(False)
            with obs.span("stage"):
                pass
        assert [child.name for child in root.children] == ["stage"]


class TestExceptionUnwinding:
    def test_raising_span_is_marked_and_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            with obs.trace("build") as root:
                with obs.span("noise"):
                    raise RuntimeError("boom")
        assert root.status == "error"
        noise = root.children[0]
        assert noise.status == "error"
        assert noise.attrs["error"] == "RuntimeError"
        assert obs.current_span() is None

    def test_caught_exception_leaves_outer_spans_ok(self):
        with obs.trace("build") as root:
            with obs.span("stage"):
                try:
                    with obs.span("failing"):
                        raise ValueError("inner")
                except ValueError:
                    pass
        assert root.status == "ok"
        stage = root.children[0]
        assert stage.status == "ok"
        assert stage.children[0].status == "error"

    def test_stack_unwinds_even_with_leaked_inner_spans(self):
        # Defensive path: enter a child context without ever exiting it.
        with obs.trace("build") as root:
            leaked = obs.span("leaked")
            leaked.__enter__()
            # The outer exit must pop past the leaked span.
        assert obs.current_span() is None
        assert root.children == []


class TestThreadIsolation:
    def test_spans_on_other_threads_do_not_attach(self):
        trees = {}

        def other() -> None:
            with obs.trace("other-thread") as root:
                with obs.span("work"):
                    pass
            trees["other"] = root

        with obs.trace("main") as root:
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert root.children == []
        assert [c.name for c in trees["other"].children] == ["work"]


class TestBuildProfile:
    def _profile(self) -> obs.BuildProfile:
        with obs.trace("construction") as root:
            with obs.span("candidates"):
                with obs.span("level", length=1):
                    pass
            with obs.span("noise", paths=3):
                pass
            with obs.span("noise"):
                pass
        return obs.BuildProfile(root)

    def test_stages_aggregate_top_level_children_by_name(self):
        profile = self._profile()
        stages = profile.stages()
        assert list(stages) == ["candidates", "noise"]
        noise_total = sum(
            sp.wall_seconds for sp in profile.root.children if sp.name == "noise"
        )
        assert stages["noise"] == pytest.approx(noise_total)

    def test_total_view(self):
        profile = self._profile()
        assert profile.total_seconds == profile.root.wall_seconds

    def test_render_mentions_every_span(self):
        text = self._profile().render()
        for name in ("construction", "candidates", "level", "noise"):
            assert name in text
        assert "[length=1]" in text
        assert "wall" in text and "cpu" in text

    def test_chrome_trace_is_valid_and_relative(self):
        profile = self._profile()
        trace = json.loads(json.dumps(profile.chrome_trace()))
        events = trace["traceEvents"]
        assert len(events) == 5  # root + candidates + level + noise x2
        assert all(event["ph"] == "X" for event in events)
        root_event = events[0]
        assert root_event["ts"] == 0.0
        assert root_event["dur"] == pytest.approx(profile.total_seconds * 1e6)
        assert all(event["ts"] >= 0.0 for event in events)
        by_name = {event["name"] for event in events}
        assert by_name == {"construction", "candidates", "level", "noise"}
        level = next(e for e in events if e["name"] == "level")
        assert level["args"]["length"] == 1
        assert "cpu_seconds" in level["args"]

    def test_error_status_exported(self):
        with pytest.raises(RuntimeError):
            with obs.trace("construction") as root:
                with obs.span("prune"):
                    raise RuntimeError("died")
        profile = obs.BuildProfile(root)
        assert "!error" in profile.render()
        events = profile.chrome_trace()["traceEvents"]
        prune = next(e for e in events if e["name"] == "prune")
        assert prune["args"]["status"] == "error"


def _descendants(node):
    for child in node.children:
        yield child
        yield from _descendants(child)


class TestPeakRss:
    @pytest.mark.parametrize(
        "build",
        [reference_counting_structure, build_private_counting_structure],
        ids=["object", "array"],
    )
    def test_every_stage_span_of_a_build_carries_it(self, small_db, build):
        pytest.importorskip("resource")
        structure = build(
            small_db,
            ConstructionParams.pure(5.0, beta=0.1),
            rng=np.random.default_rng(3),
        )
        profile = structure.profile
        assert {"candidates", "trie_build", "annotate", "noise", "prune"} <= set(
            profile.stages()
        )
        recorded = [profile.root, *_descendants(profile.root)]
        assert all(sp.peak_rss_mb > 0 for sp in recorded)
        # A high-water mark: no span ends below one that ended before it.
        stages = profile.root.children
        assert all(a.peak_rss_mb <= b.peak_rss_mb for a, b in zip(stages, stages[1:]))
        assert stages[-1].peak_rss_mb <= profile.root.peak_rss_mb
        assert all(sp.to_dict()["peak_rss_mb"] == sp.peak_rss_mb for sp in recorded)
        events = profile.chrome_trace()["traceEvents"]
        assert len(events) == len(recorded)
        assert all(event["args"]["peak_rss_mb"] > 0 for event in events)
        assert profile.render().count("MB peak") == len(recorded)

    def test_omitted_without_resource(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "resource", None)  # import fails
        with obs.trace("construction") as root:
            with obs.span("noise"):
                pass
        profile = obs.BuildProfile(root)
        assert root.peak_rss_mb is None
        assert "peak_rss_mb" not in root.to_dict()
        assert "peak_rss_mb" not in root.children[0].to_dict()
        events = profile.chrome_trace()["traceEvents"]
        assert all("peak_rss_mb" not in event["args"] for event in events)
        assert "MB peak" not in profile.render()
