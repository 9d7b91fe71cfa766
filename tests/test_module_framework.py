"""Tests for the module base classes, requirements, registry and manager."""

import math

import pytest

from repro.core.alerts import ALERT_TOPIC
from repro.core.datastore import DataStore
from repro.core.knowledge import KnowledgeBase
from repro.core.manager import ModuleManager
from repro.core.modules import detection
from repro.core.modules.base import (
    DetectionModule,
    KalisModule,
    ModuleContext,
    Requirement,
    SensingModule,
)
from repro.core.modules.registry import (
    available_modules,
    create_module,
    module_class,
    register_module,
)
from repro.eventbus.bus import EventBus
from repro.util.ids import NodeId
from tests.conftest import wifi_icmp_capture

K = NodeId("kalis-1")


def make_kb():
    return KnowledgeBase(K, EventBus())


class TestRequirement:
    def test_equals_satisfied(self):
        kb = make_kb()
        kb.put("Multihop", True)
        assert Requirement(label="Multihop", equals=True).satisfied(kb)
        assert not Requirement(label="Multihop", equals=False).satisfied(kb)

    def test_absent_knowgget_fails(self):
        assert not Requirement(label="Multihop", equals=True).satisfied(make_kb())
        assert not Requirement(label="Multihop").satisfied(make_kb())

    def test_exists_only(self):
        kb = make_kb()
        kb.put("Multihop", False)
        assert Requirement(label="Multihop").satisfied(kb)

    def test_negation_still_needs_presence(self):
        kb = make_kb()
        requirement = Requirement(label="Mobility", equals=True, negate=True)
        assert not requirement.satisfied(kb)  # absent -> fails even negated
        kb.put("Mobility", False)
        assert requirement.satisfied(kb)
        kb.put("Mobility", True)
        assert not requirement.satisfied(kb)

    def test_unparseable_value_fails(self):
        kb = make_kb()
        kb.put("Count", "not-a-number")
        assert not Requirement(label="Count", equals=3, expect=int).satisfied(kb)

    def test_describe(self):
        assert "Multihop == True" in Requirement(label="Multihop", equals=True).describe()
        assert "exists" in Requirement(label="Multihop").describe()

    def test_absent_knowgget_counts_as_default(self):
        kb = make_kb()
        requirement = Requirement(label="Integrity", equals=False, default=False)
        assert requirement.satisfied(kb)
        assert not Requirement(label="Integrity", equals=True, default=False).satisfied(kb)
        kb.put("Integrity", True)
        assert not requirement.satisfied(kb)
        kb.remove("Integrity")
        assert requirement.satisfied(kb)
        assert Requirement(
            label="Integrity", equals=True, negate=True, default=False
        ).satisfied(kb)

    def test_unparseable_value_fails_despite_default(self):
        kb = make_kb()
        kb.put("Integrity", "maybe")
        assert not Requirement(label="Integrity", equals=False, default=False).satisfied(kb)

    def test_describe_names_the_default(self):
        text = Requirement(label="Integrity", equals=False, default=False).describe()
        assert text == "Integrity == False (absent counts as False)"
        assert "absent" not in Requirement(label="Integrity", equals=False).describe()


class _CountingModule(DetectionModule):
    NAME = "CountingModule"
    REQUIREMENTS = (Requirement(label="Enable", equals=True),)

    def __init__(self, params=None):
        super().__init__(params)
        self.seen = []
        self.activations = 0
        self.deactivations = 0

    def on_activate(self):
        self.activations += 1

    def on_deactivate(self):
        self.deactivations += 1

    def process(self, capture):
        self.seen.append(capture)


class _AlwaysOnSensor(SensingModule):
    NAME = "AlwaysOnSensor"


def build_manager(knowledge_driven=True):
    bus = EventBus()
    kb = KnowledgeBase(K, bus)
    manager = ModuleManager(
        kb=kb, datastore=DataStore(), bus=bus, node_id=K,
        knowledge_driven=knowledge_driven,
    )
    return manager, kb


class TestModuleManager:
    def test_detection_module_dormant_without_knowledge(self):
        manager, _ = build_manager()
        module = manager.register(_CountingModule())
        assert not module.active

    def test_activation_follows_knowledge(self):
        manager, kb = build_manager()
        module = manager.register(_CountingModule())
        kb.put("Enable", True)
        assert module.active
        kb.put("Enable", False)
        assert not module.active
        assert module.activations == 1
        assert module.deactivations == 1

    def test_sensing_modules_always_active(self):
        manager, _ = build_manager()
        sensor = manager.register(_AlwaysOnSensor())
        assert sensor.active

    def test_traditional_mode_activates_everything(self):
        manager, _ = build_manager(knowledge_driven=False)
        module = manager.register(_CountingModule())
        assert module.active

    def test_forced_active_overrides_requirements(self):
        manager, _ = build_manager()
        module = manager.register(_CountingModule(), force_active=True)
        assert module.active

    def test_captures_routed_only_to_active(self):
        manager, kb = build_manager()
        module = manager.register(_CountingModule())
        capture = wifi_icmp_capture(NodeId("a"), NodeId("b"), "10.23.0.1", 0.0)
        manager.on_capture(capture)
        assert module.seen == []
        kb.put("Enable", True)
        manager.on_capture(capture)
        assert len(module.seen) == 1

    def test_work_units_weighted(self):
        manager, kb = build_manager()

        class Heavy(_CountingModule):
            NAME = "HeavyModule"
            COST_WEIGHT = 2.5

        manager.register(Heavy())
        kb.put("Enable", True)
        manager.on_capture(wifi_icmp_capture(NodeId("a"), NodeId("b"), "x", 0.0))
        assert manager.work_units == 2.5

    def test_duplicate_registration_rejected(self):
        manager, _ = build_manager()
        manager.register(_CountingModule())
        with pytest.raises(ValueError):
            manager.register(_CountingModule())

    def test_activation_table(self):
        manager, kb = build_manager()
        manager.register(_CountingModule())
        manager.register(_AlwaysOnSensor())
        assert manager.activation_table() == {
            "CountingModule": False,
            "AlwaysOnSensor": True,
        }

    def test_state_bytes_counts_active_only(self):
        manager, kb = build_manager()
        module = manager.register(_CountingModule())
        assert manager.approximate_state_bytes() == 0
        kb.put("Enable", True)
        assert manager.approximate_state_bytes() > 0


class TestRegistry:
    def test_builtin_modules_available(self):
        names = available_modules()
        for expected in (
            "TopologyDiscoveryModule",
            "TrafficStatsModule",
            "MobilityAwarenessModule",
            "IcmpFloodModule",
            "SmurfModule",
            "ForwardingMisbehaviorModule",
            "ReplicationStaticModule",
            "ReplicationMobileModule",
            "WormholeModule",
            "SybilModule",
            "SinkholeModule",
            "SynFloodModule",
            "HelloFloodModule",
            "DataAlterationModule",
            "SpoofingModule",
        ):
            assert expected in names

    def test_create_by_name_with_params(self):
        module = create_module("IcmpFloodModule", params={"threshold": 5})
        assert module.threshold == 5

    def test_unknown_module(self):
        with pytest.raises(KeyError, match="known modules"):
            create_module("NoSuchModule")

    def test_module_class_lookup(self):
        assert module_class("IcmpFloodModule").NAME == "IcmpFloodModule"
        with pytest.raises(KeyError):
            module_class("Nope")

    def test_register_rejects_non_module(self):
        with pytest.raises(TypeError):
            register_module(dict)


class TestParamCoercion:
    def test_string_params_coerced_to_default_types(self):
        module = KalisModule(params={"a": "3", "b": "2.5", "c": "true"})
        assert module.param("a", 1) == 3
        assert module.param("b", 1.0) == 2.5
        assert module.param("c", False) is True
        assert module.param("missing", 7) == 7


class _ToyDetector(DetectionModule):
    NAME = "ToyDetector"
    DETECTS = ("toy_attack", "worse_toy_attack")

    def __init__(self, params=None):
        super().__init__(params)
        self.cooldown = self.param("cooldown", 8.0)


def bound_toy():
    bus = EventBus()
    published = []
    bus.subscribe(ALERT_TOPIC, lambda event: published.append(event.payload))
    module = _ToyDetector()
    module.bind(
        ModuleContext(kb=KnowledgeBase(K, bus), datastore=DataStore(), bus=bus, node_id=K)
    )
    return module, published


class TestDetectionAlert:
    """``DetectionModule.alert``: the one way a module raises an alert."""

    def test_cooldown_boundary(self):
        module, published = bound_toy()
        assert module.alert("v", 1.0) is not None
        assert module.alert("v", math.nextafter(9.0, 0.0)) is None
        assert module.alert("v", 9.0) is not None
        assert [alert.timestamp for alert in published] == [1.0, 9.0]

    def test_keys_are_independent_and_none_is_a_key(self):
        module, published = bound_toy()
        assert module.alert("a", 1.0) is not None
        assert module.alert("b", 1.0) is not None
        assert module.alert(None, 2.0) is not None
        assert module.alert("a", 3.0) is None
        assert module.alert(None, 3.0) is None
        assert module.alert(None, 10.0) is not None
        assert len(published) == 4

    def test_attack_defaults_to_first_detects_entry(self):
        module, _ = bound_toy()
        assert module.alert("a", 1.0).attack == "toy_attack"
        assert module.alert("b", 1.0, attack="worse_toy_attack").attack == "worse_toy_attack"

    def test_published_alert_carries_module_node_and_time(self):
        module, published = bound_toy()
        returned = module.alert(
            "v", 4.5, suspects=[NodeId("m1")], victim=NodeId("m2"),
            confidence=0.5, details={"n": 3},
        )
        assert published == [returned]
        assert returned.detected_by == "ToyDetector"
        assert returned.kalis_node == K
        assert returned.timestamp == 4.5
        assert returned.suspects == (NodeId("m1"),)
        assert returned.victim == NodeId("m2")
        assert returned.confidence == 0.5
        assert returned.details == {"n": 3}
        assert module.alert("w", 5.0).details == {}

    def test_cooling_publishes_nothing_and_records_nothing(self):
        module, published = bound_toy()
        assert not module.cooling("v", 1.0)
        assert not module.cooling("v", 1.0)  # the check recorded nothing
        module.alert("v", 1.0)
        assert module.cooling("v", 5.0)
        assert module.alert("v", 5.0) is None
        assert len(published) == 1
        assert not module.cooling("v", 9.0)
        assert not module.cooling("other", 5.0)


#: Detection modules whose ``on_deactivate`` forgets their cooldowns;
#: the rest keep them across a deactivation.
FORGET_COOLDOWN = {
    "IcmpFloodModule", "SmurfModule", "SynFloodModule", "HelloFloodModule",
    "SinkholeModule", "SpoofingModule", "ForwardingMisbehaviorModule",
    "DataAlterationModule",
}
KEEP_COOLDOWN = {
    "ReplicationStaticModule", "ReplicationMobileModule", "WormholeModule",
    "SybilModule", "JammingModule",
}


class TestCooldownOnDeactivate:
    def test_every_detection_module_is_pinned(self):
        assert set(detection.__all__) == FORGET_COOLDOWN | KEEP_COOLDOWN

    @pytest.mark.parametrize("name", sorted(FORGET_COOLDOWN | KEEP_COOLDOWN))
    def test_deactivation_forgets_or_keeps_the_cooldown(self, name):
        module = create_module(name)
        bus = EventBus()
        module.bind(
            ModuleContext(kb=KnowledgeBase(K, bus), datastore=DataStore(), bus=bus, node_id=K)
        )
        assert module.alert("key", 100.0) is not None
        module.on_deactivate()
        assert module.cooling("key", 101.0) == (name in KEEP_COOLDOWN)
