"""Supervisor lifecycle tests: crash isolation, the circuit breaker's
quarantine → cooldown → half-open probe → restore cycle, permanent
quarantine, and the module.* bus events.  Every breaker scenario also
runs with telemetry bound and must route exactly as it does without."""

from collections import Counter

import pytest

from repro.core.datastore import DataStore
from repro.core.knowledge import KnowledgeBase
from repro.core.manager import (
    TOPIC_MODULE_FAILURE,
    TOPIC_MODULE_QUARANTINE,
    TOPIC_MODULE_RESTORE,
    ModuleManager,
    ModuleState,
    ModuleSupervisor,
)
from repro.core.modules.base import DetectionModule, SensingModule
from repro.eventbus.bus import EventBus
from repro.obs import Telemetry
from repro.util.ids import NodeId
from tests.conftest import wifi_icmp_capture

K = NodeId("kalis-1")


class FlakyModule(DetectionModule):
    """Raises on command; the supervisor's crash-test dummy."""

    NAME = "FlakyModule"
    DETECTS = ("flaky",)

    def __init__(self, params=None):
        super().__init__(params)
        self.failing = False
        self.calls = 0

    def process(self, capture):
        self.calls += 1
        if self.failing:
            raise RuntimeError(f"injected crash #{self.calls}")


class SteadyModule(DetectionModule):
    NAME = "SteadyModule"
    DETECTS = ("steady",)

    def __init__(self, params=None):
        super().__init__(params)
        self.seen = []

    def process(self, capture):
        self.seen.append(capture.timestamp)


def make_manager(telemetry=None, **supervisor_kwargs):
    bus = EventBus()
    kb = KnowledgeBase(K, bus)
    supervisor = ModuleSupervisor(bus, **supervisor_kwargs)
    manager = ModuleManager(
        kb=kb,
        datastore=DataStore(window_size=100),
        bus=bus,
        node_id=K,
        knowledge_driven=False,  # all modules always active
        supervisor=supervisor,
        telemetry=telemetry,
    )
    return manager, bus


def capture_at(timestamp):
    return wifi_icmp_capture(
        NodeId("a"), NodeId("b"), "10.0.0.2", timestamp=timestamp
    )


class TestCrashIsolation:
    def test_raising_module_does_not_abort_the_run(self):
        manager, _ = make_manager()
        flaky = manager.register(FlakyModule())
        steady = manager.register(SteadyModule())
        flaky.failing = True
        for step in range(5):
            manager.on_capture(capture_at(float(step)))
        # The run survived and the later module saw every capture.
        assert steady.seen == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_failures_published_on_bus(self):
        manager, bus = make_manager()
        failures = []
        bus.subscribe(TOPIC_MODULE_FAILURE, lambda e: failures.append(e.payload))
        flaky = manager.register(FlakyModule())
        flaky.failing = True
        manager.on_capture(capture_at(1.0))
        assert len(failures) == 1
        assert failures[0].module == "FlakyModule"
        assert failures[0].operation == "handle"
        assert failures[0].timestamp == 1.0
        assert "injected crash" in failures[0].describe()

    def test_required_crash_fails_safe_to_inactive(self):
        bus = EventBus()
        kb = KnowledgeBase(K, bus)
        manager = ModuleManager(
            kb=kb, datastore=DataStore(window_size=10), bus=bus, node_id=K
        )

        class BadPredicate(DetectionModule):
            NAME = "BadPredicate"
            DETECTS = ("x",)

            def required(self, kb):
                raise ValueError("broken predicate")

        manager.register(BadPredicate())
        assert manager.activation_table()["BadPredicate"] is False
        assert manager.supervisor.health("BadPredicate").total_failures >= 1

    def test_on_activate_crash_is_isolated(self):
        manager, _ = make_manager()

        class BadActivate(DetectionModule):
            NAME = "BadActivate"
            DETECTS = ("x",)

            def on_activate(self):
                raise RuntimeError("activation crash")

        module = manager.register(BadActivate())
        assert module.active  # activation proceeded despite the hook crash
        health = manager.supervisor.health("BadActivate")
        assert health.total_failures == 1


# -- breaker scenarios ------------------------------------------------------------
#
# Each scenario drives one breaker path, asserts what it must show, and
# returns its manager.  TestCircuitBreaker runs them without telemetry;
# TestRoutingUnderTelemetry runs every one with and without a bound
# Telemetry and compares the two.


def quarantine_at_threshold(telemetry=None):
    manager, bus = make_manager(telemetry, failure_threshold=3, cooldown=10.0)
    quarantines = []
    bus.subscribe(TOPIC_MODULE_QUARANTINE, lambda e: quarantines.append(e.payload))
    flaky = manager.register(FlakyModule())
    flaky.failing = True
    for step in range(3):
        manager.on_capture(capture_at(float(step)))
    assert manager.health_table()["FlakyModule"] == "quarantined"
    assert len(quarantines) == 1
    assert quarantines[0].quarantined_until == 2.0 + 10.0
    return manager


def skipped_and_not_charged(telemetry=None):
    manager, _ = make_manager(telemetry, failure_threshold=2, cooldown=100.0)
    flaky = manager.register(FlakyModule())
    flaky.failing = True
    manager.on_capture(capture_at(0.0))
    manager.on_capture(capture_at(1.0))
    work_before = manager.work_units
    calls_before = flaky.calls
    manager.on_capture(capture_at(2.0))  # still cooling down
    assert flaky.calls == calls_before
    assert manager.work_units == work_before
    return manager


def success_resets_counter(telemetry=None):
    manager, _ = make_manager(telemetry, failure_threshold=3)
    flaky = manager.register(FlakyModule())
    flaky.failing = True
    manager.on_capture(capture_at(0.0))
    manager.on_capture(capture_at(1.0))
    flaky.failing = False
    manager.on_capture(capture_at(2.0))  # success: counter resets
    flaky.failing = True
    manager.on_capture(capture_at(3.0))
    manager.on_capture(capture_at(4.0))
    assert manager.health_table()["FlakyModule"] == "healthy"
    return manager


def probe_and_restore(telemetry=None):
    manager, bus = make_manager(telemetry, failure_threshold=2, cooldown=10.0)
    restores = []
    bus.subscribe(TOPIC_MODULE_RESTORE, lambda e: restores.append(e.payload))
    flaky = manager.register(FlakyModule())
    flaky.failing = True
    manager.on_capture(capture_at(0.0))
    manager.on_capture(capture_at(1.0))  # quarantined until 11.0
    flaky.failing = False
    manager.on_capture(capture_at(5.0))  # still quarantined
    assert flaky.calls == 2
    manager.on_capture(capture_at(12.0))  # probe: routed, succeeds
    assert flaky.calls == 3
    assert manager.health_table()["FlakyModule"] == "healthy"
    assert len(restores) == 1
    assert restores[0].module == "FlakyModule"
    return manager


def escalated_cooldown(telemetry=None):
    manager, _ = make_manager(
        telemetry, failure_threshold=2, cooldown=10.0, cooldown_factor=2.0,
        max_probe_failures=5,
    )
    flaky = manager.register(FlakyModule())
    flaky.failing = True
    manager.on_capture(capture_at(0.0))
    manager.on_capture(capture_at(1.0))  # quarantined until 11.0
    manager.on_capture(capture_at(12.0))  # probe fails
    health = manager.supervisor.health("FlakyModule")
    assert health.state is ModuleState.QUARANTINED
    # Second quarantine: cooldown escalates 10 -> 20.
    assert health.quarantined_until == pytest.approx(12.0 + 20.0)
    return manager


def permanent_disable(telemetry=None):
    manager, _ = make_manager(
        telemetry, failure_threshold=1, cooldown=5.0, cooldown_factor=1.0,
        max_probe_failures=2,
    )
    flaky = manager.register(FlakyModule())
    steady = manager.register(SteadyModule())
    flaky.failing = True
    timestamp = 0.0
    # Initial quarantine, then probes at each cooldown expiry.
    for _ in range(6):
        manager.on_capture(capture_at(timestamp))
        timestamp += 6.0
    assert manager.health_table()["FlakyModule"] == "disabled"
    calls = flaky.calls
    manager.on_capture(capture_at(1000.0))  # disabled: never probed again
    assert flaky.calls == calls
    # The healthy module is unaffected throughout.
    assert len(steady.seen) == 7
    return manager


def sensing_module_crash(telemetry=None):
    manager, _ = make_manager(telemetry, failure_threshold=1, cooldown=50.0)

    class BadSensor(SensingModule):
        NAME = "BadSensor"

        def process(self, capture):
            raise RuntimeError("sensor crash")

    manager.register(BadSensor())
    manager.on_capture(capture_at(0.0))
    assert manager.health_table()["BadSensor"] == "quarantined"
    return manager


BREAKER_SCENARIOS = (
    quarantine_at_threshold,
    skipped_and_not_charged,
    success_resets_counter,
    probe_and_restore,
    escalated_cooldown,
    permanent_disable,
    sensing_module_crash,
)


class TestCircuitBreaker:
    def test_quarantine_after_threshold_consecutive_failures(self):
        quarantine_at_threshold()

    def test_quarantined_module_is_skipped_and_not_charged(self):
        skipped_and_not_charged()

    def test_successes_reset_the_consecutive_counter(self):
        success_resets_counter()

    def test_probe_and_restore_after_cooldown(self):
        probe_and_restore()

    def test_failed_probe_requarantines_with_escalated_cooldown(self):
        escalated_cooldown()

    def test_permanent_quarantine_after_repeated_probe_failures(self):
        permanent_disable()

    def test_sensing_module_crash_is_supervised_too(self):
        sensing_module_crash()


def routing_outcome(manager):
    """What routing decided, in a form two runs can be compared by."""
    return {
        "health": manager.health_table(),
        "work_units": manager.work_units,
        "processed": {m.NAME: m.processed_count for m in manager.modules()},
        "failures": [
            (f.module, f.operation, f.timestamp, f.describe())
            for f in manager.supervisor.failures
        ],
    }


class TestRoutingUnderTelemetry:
    """One routing loop serves both settings; telemetry only observes it."""

    @pytest.mark.parametrize(
        "scenario", BREAKER_SCENARIOS, ids=lambda scenario: scenario.__name__
    )
    def test_same_routing_with_and_without_telemetry(self, scenario):
        telemetry = Telemetry()
        manager = scenario(telemetry)
        assert routing_outcome(manager) == routing_outcome(scenario(None))

        failed = Counter(
            f.module for f in manager.supervisor.failures if f.operation == "handle"
        )
        assert sum(failed.values()) > 0
        invocations = telemetry.metrics.get("module_invocations_total")
        failures = telemetry.metrics.get("module_failures_total")
        for module in manager.modules():
            labels = {"node": str(K), "module": module.NAME}
            assert invocations.value(**labels) == module.processed_count
            assert failures.value(**labels) == failed[module.NAME]
        assert telemetry.spans_finished == sum(
            module.processed_count for module in manager.modules()
        )


class TestHealthTable:
    def test_health_table_next_to_activation_table(self):
        manager, _ = make_manager()
        manager.register(FlakyModule())
        manager.register(SteadyModule())
        assert manager.health_table() == {
            "FlakyModule": "healthy",
            "SteadyModule": "healthy",
        }
        assert list(manager.health_table()) == list(manager.activation_table())

    def test_supervisor_parameter_validation(self):
        with pytest.raises(ValueError):
            ModuleSupervisor(failure_threshold=0)
        with pytest.raises(ValueError):
            ModuleSupervisor(cooldown=0.0)
        with pytest.raises(ValueError):
            ModuleSupervisor(cooldown_factor=0.5)
        with pytest.raises(ValueError):
            ModuleSupervisor(max_probe_failures=0)
