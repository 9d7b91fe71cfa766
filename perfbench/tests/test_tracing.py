"""Self-time attribution on nested and re-entrant spans."""

import pytest

from perfbench.tracing import (
    SpanRecorder,
    _module_wrapper,
    _span_wrapper,
    attribute,
    install,
    spearman,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_on_nested_and_reentrant_spans():
    """handle -> publish -> reevaluate -> required -> get_knowgget, with a
    knowledge change published from inside a publish (re-entrant)."""
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def get_knowgget():
        clock.work(1)

    def required():
        clock.work(2)
        get_knowgget_()
        clock.work(1)

    def reevaluate():
        clock.work(1)
        required_()
        required_()

    def publish(depth):
        clock.work(1)
        reevaluate_()
        if depth:
            publish_(depth - 1)

    def handle():
        clock.work(3)
        publish_(1)
        clock.work(1)

    get_knowgget_ = _span_wrapper(recorder, "knowledge.get_knowgget", get_knowgget)
    required_ = _span_wrapper(recorder, "modules.required", required)
    reevaluate_ = _span_wrapper(recorder, "manager.reevaluate", reevaluate)
    publish_ = _span_wrapper(recorder, "bus.publish", publish)
    handle_ = _span_wrapper(recorder, "modules.handle", handle, item_kind="capture")

    clock.work(5)          # outside every span: unattributed
    handle_()
    result = attribute(recorder)

    assert result.calls == {
        "modules.handle": 1, "bus.publish": 2, "manager.reevaluate": 2,
        "modules.required": 4, "knowledge.get_knowgget": 4,
    }
    assert result.self_s == {
        "modules.handle": 4.0, "bus.publish": 2.0, "manager.reevaluate": 2.0,
        "modules.required": 12.0, "knowledge.get_knowgget": 4.0,
    }
    # The outer publish's total includes the nested one; self time never
    # counts anything twice, so self times add up to the root span.
    assert result.total_s["bus.publish"] == 20.0 + 10.0
    assert result.root_s == sum(result.self_s.values()) == 24.0
    # Every span of the call carries the capture id its root opened.
    assert set(recorder.item) == {0}


def test_a_range_that_cuts_a_span_tree_is_refused():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    inner = _span_wrapper(recorder, "inner", lambda: clock.work(1))
    outer = _span_wrapper(recorder, "outer", lambda: inner())
    outer()
    outer()
    assert attribute(recorder, 2).calls == {"outer": 1, "inner": 1}
    with pytest.raises(ValueError):
        attribute(recorder, 1)


def test_super_chain_is_one_module_span():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    class Base:
        NAME = "Base"

        def required(self, kb):
            clock.work(1)
            return True

    class Derived(Base):
        NAME = "Derived"

        def required(self, kb):
            clock.work(2)
            return super().required(kb)

    stack = []
    Base.required = _module_wrapper(recorder, "required", Base.__dict__["required"], stack)
    Derived.required = _module_wrapper(recorder, "required", Derived.__dict__["required"], stack)
    assert Derived().required(None) is True
    assert Base().required(None) is True
    result = attribute(recorder)
    assert result.calls == {"modules.required:Derived": 1, "modules.required:Base": 1}
    assert result.self_s == {"modules.required:Derived": 3.0, "modules.required:Base": 1.0}
    assert stack == []


def test_install_wraps_the_program_and_restores_it():
    from repro.core.comm import CommunicationSystem
    from repro.core.kalis import KalisNode
    from repro.core.modules.base import KalisModule
    from repro.experiments import icmp_flood_scenario
    from repro.util.ids import NodeId

    trace = icmp_flood_scenario.build(seed=7, symptom_instances=3).trace
    original_intake = CommunicationSystem.__dict__["on_capture"]
    original_handle = KalisModule.__dict__["handle"]
    recorder = SpanRecorder()
    with install(recorder):
        node = KalisNode(NodeId("kalis-1"))
        first = len(recorder)
        for record in trace:
            node.comm.on_capture(record.capture)
    assert CommunicationSystem.__dict__["on_capture"] is original_intake
    assert KalisModule.__dict__["handle"] is original_handle

    result = attribute(recorder, first)
    assert result.calls["comm.on_capture"] == len(trace)
    assert result.calls_of("modules.handle") > len(trace)
    assert result.calls_of("modules.required") > 0
    assert sum(result.self_s.values()) == pytest.approx(result.root_s, rel=1e-9)
    # Root spans are exactly the captures fed from outside the program.
    roots = [i for i in range(first, len(recorder)) if recorder.parent[i] == -1]
    assert len(roots) == len(trace)


def test_spearman_handles_ties_and_refuses_degenerate_input():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert spearman([1, 1, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9486832980505138)
    with pytest.raises(ValueError):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2])
