"""The Module Manager's requirement index against full re-evaluation.

A knowledge change re-checks only the modules indexed under its topic.
The oracle: after every change, re-deriving *every* module with
``reevaluate(manager.modules())`` must change nothing — no activation
flag, no activation/deactivation count, no hook call.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.snapshot import Deployment, capture, restore
from repro.core.alerts import ALERT_TOPIC
from repro.core.datastore import DataStore
from repro.core.kalis import (
    DEFAULT_DETECTION_MODULES,
    DEFAULT_SENSING_MODULES,
    KalisNode,
)
from repro.core.knowledge import (
    KNOWLEDGE_TOPIC_PREFIX,
    Knowgget,
    KnowledgeBase,
    encode_value,
)
from repro.core.manager import ModuleManager
from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.registry import create_module, module_class
from repro.eventbus.bus import EventBus
from repro.experiments import icmp_flood_scenario
from repro.experiments.common import strike_horizon
from repro.experiments.soak_scenario import build_e1_deployment
from repro.sim.engine import Simulator
from repro.taxonomy.by_feature import FEATURES
from repro.taxonomy.modules_map import MODULES_FOR_ATTACK, feature_knowledge
from repro.util.ids import NodeId

OWNER = NodeId("kalis-1")
PEER = NodeId("kalis-2")
ENTITY = NodeId("x")


class _CountModule(DetectionModule):
    """Several requirements on one label, a negation and a default."""

    NAME = "CountModule"
    DETECTS = ("x",)
    REQUIREMENTS = (
        Requirement(label="Count", equals=3, expect=int),
        Requirement(label="Count", equals=4, expect=int, negate=True),
        Requirement(label="Mobility", equals=True, negate=True, default=False),
    )


#: Every label a requirement in the default library (plus the custom
#: module above) reads, and every Figure 3 feature label — the latter
#: independent of what ``REQUIREMENTS`` happen to declare.
REQUIRED_LABELS = sorted(
    {
        requirement.label
        for name in DEFAULT_DETECTION_MODULES
        for requirement in module_class(name).REQUIREMENTS
    }
    | {requirement.label for requirement in _CountModule.REQUIREMENTS}
    | {
        feature_knowledge(attack, feature)[0]
        for attack in MODULES_FOR_ATTACK
        for feature in FEATURES
    }
)
#: Labels no requirement reads (traffic rates, signal strength).
NOISE_LABELS = ["TrafficIn.icmp", "TrafficFrequency.ICMP", "SignalStrength"]


def _values_for(label):
    if label == "Count":
        return [3, 4, "garbage"]
    if label in NOISE_LABELS:
        return [1.5]
    return [True, False, "garbage"]


assignments = st.sampled_from(
    [
        (label, value)
        for label in REQUIRED_LABELS + NOISE_LABELS
        for value in _values_for(label)
    ]
)
entities = st.sampled_from([None, None, None, ENTITY])
steps = st.builds(
    lambda kind, assignment, entity: (kind, *assignment, entity),
    st.sampled_from(["put", "put", "put_static", "remove", "apply_remote"]),
    assignments,
    entities,
)


def _count_hooks(module, calls: Counter) -> None:
    for hook in ("on_activate", "on_deactivate"):
        original = getattr(module, hook)

        def counted(original=original, hook=hook):
            calls[(module.NAME, hook)] += 1
            original()

        setattr(module, hook, counted)


def _library(forced=()):
    names = list(DEFAULT_SENSING_MODULES) + list(DEFAULT_DETECTION_MODULES)
    modules = [(create_module(name), name in forced) for name in names]
    modules.append((_CountModule(), False))
    return modules


def _managers(kb):
    """A knowledge-driven manager (two modules forced active) and an
    all-on one, both watching one knowledge base."""
    built = []
    for knowledge_driven, forced in (
        (True, ("SmurfModule", "SybilModule")),
        (False, ()),
    ):
        manager = ModuleManager(
            kb=kb, datastore=DataStore(), bus=kb.bus, node_id=OWNER,
            knowledge_driven=knowledge_driven,
        )
        calls: Counter = Counter()
        for module, force in _library(forced):
            _count_hooks(module, calls)
            manager.register(module, force_active=force)
        built.append((manager, calls))
    return built


def _apply(kb, step) -> None:
    kind, label, value, entity = step
    if kind == "put":
        kb.put(label, value, entity=entity)
    elif kind == "remove":
        kb.remove(label, entity=entity)
    elif kind == "put_static":
        kb.put_static(label, value, entity=entity)
    else:
        knowgget = Knowgget(
            label=label, value=encode_value(value), creator=PEER,
            entity=entity, collective=True,
        )
        assert kb.apply_remote(knowgget, sender=PEER)


def _observed(manager, calls):
    return (
        manager.activation_table(),
        manager.activation_events,
        manager.deactivation_events,
        dict(calls),
    )


class TestIndexMatchesFullReevaluation:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(steps, max_size=30))
    def test_full_reevaluation_changes_nothing(self, sequence):
        kb = KnowledgeBase(OWNER, EventBus())
        managers = _managers(kb)
        for step in sequence:
            _apply(kb, step)
            for manager, calls in managers:
                before = _observed(manager, calls)
                manager.reevaluate(manager.modules())
                assert _observed(manager, calls) == before, step
        assert kb.bus.error_count == 0


class TestIndexedRecheck:
    def _manager(self, knowledge_driven=True):
        kb = KnowledgeBase(OWNER, EventBus())
        manager = ModuleManager(
            kb=kb, datastore=DataStore(), bus=kb.bus, node_id=OWNER,
            knowledge_driven=knowledge_driven,
        )
        return manager, kb

    def _spy_reevaluate(self, manager):
        rechecked = []
        original = manager.reevaluate

        def spy(modules):
            modules = list(modules)
            rechecked.append([module.NAME for module in modules])
            original(modules)

        manager.reevaluate = spy
        return rechecked

    def test_change_rechecks_only_the_modules_requiring_it(self):
        manager, kb = self._manager()
        for name in DEFAULT_SENSING_MODULES + DEFAULT_DETECTION_MODULES:
            manager.register(create_module(name))
        rechecked = self._spy_reevaluate(manager)
        kb.put("Multihop.wifi", False)
        assert rechecked == [["IcmpFloodModule", "SmurfModule", "SynFloodModule"]]
        assert manager.module("IcmpFloodModule").active

    def test_unrequired_changes_recheck_nothing(self):
        manager, kb = self._manager()
        for name in DEFAULT_SENSING_MODULES + DEFAULT_DETECTION_MODULES:
            manager.register(create_module(name))
        rechecked = self._spy_reevaluate(manager)
        kb.put("TrafficIn.icmp", 4.0, entity=ENTITY)
        kb.put("SignalStrength", -60.0, entity=ENTITY)
        kb.put("Multihop.wifi", False, entity=ENTITY)  # per-entity
        kb.apply_remote(
            Knowgget(label="Multihop.wifi", value="false", creator=PEER),
            sender=PEER,
        )
        assert rechecked == []
        assert not manager.module("IcmpFloodModule").active

    def test_removal_rechecks_by_topic(self):
        manager, kb = self._manager()
        module = manager.register(create_module("IcmpFloodModule"))
        kb.put("Multihop.wifi", False)
        assert module.active
        kb.remove("Multihop.wifi")
        assert not module.active

    def test_all_on_manager_rechecks_nothing(self):
        manager, kb = self._manager(knowledge_driven=False)
        for name in DEFAULT_SENSING_MODULES + DEFAULT_DETECTION_MODULES:
            manager.register(create_module(name))
        rechecked = self._spy_reevaluate(manager)
        kb.put("Multihop.wifi", False)
        kb.put("Multihop.802154", True)
        assert rechecked == []
        assert all(manager.activation_table().values())

    def test_forced_active_module_is_not_rechecked(self):
        manager, kb = self._manager()
        module = manager.register(create_module("IcmpFloodModule"), force_active=True)
        rechecked = self._spy_reevaluate(manager)
        kb.put("Multihop.wifi", True)
        assert rechecked == []
        assert module.active


# -- who hears a knowledge change -----------------------------------------------------


def _manager_subscriptions(node, topic):
    """Active subscriptions of the node's manager handler on one topic."""
    handler = node.manager._on_knowledge_change
    return sum(
        1 for subscription in node.bus._exact.get(topic, ())
        if subscription.active and subscription.handler == handler
    )


def _assert_changes_reach_their_readers(node):
    """Every requirement topic reaches the manager once; every other
    knowledge topic the run published (the traffic rates among them)
    reaches no handler at all."""
    requirement_topics = set(node.manager._index_cache)
    assert requirement_topics
    published = [
        topic for topic in node.bus.topic_counts()
        if topic.startswith(KNOWLEDGE_TOPIC_PREFIX)
    ]
    assert any("$TrafficFrequency." in topic for topic in published)
    for topic in sorted(requirement_topics | set(published)):
        if topic in requirement_topics:
            assert _manager_subscriptions(node, topic) == 1, topic
            assert node.bus.subscriber_count(topic) == 1, topic
        else:
            assert node.bus.subscriber_count(topic) == 0, topic


class TestKnowledgeSubscriptions:
    def test_e1_replay_delivers_each_change_only_to_its_readers(self):
        trace = icmp_flood_scenario.build(seed=7, symptom_instances=4).trace
        node = KalisNode(NodeId("kalis-1"))
        for record in trace:
            node.feed(record.capture)
        _assert_changes_reach_their_readers(node)
        assert node.alerts.alerts

    def test_restore_keeps_one_manager_subscription_per_topic(self):
        deployment = build_e1_deployment(seed=7, symptom_instances=4)
        deployment.run_to(deployment.end_time / 2)
        restored = restore(capture(deployment))
        node = restored.kalis_nodes[0]
        node.rebuild_derived_state()  # a second restore hook call adds nothing
        restored.run_to(restored.end_time)
        _assert_changes_reach_their_readers(node)
        assert node.deadletters == []

    def test_wormhole_module_listens_only_while_active(self):
        kb, module = _wormhole_kb()
        remote_topic = KNOWLEDGE_TOPIC_PREFIX + "kalis-2$ForwardingAnomaly@B1"
        rate_topic = KNOWLEDGE_TOPIC_PREFIX + "kalis-1$TrafficFrequency.ICMP"
        assert not module.active
        assert kb.bus.subscriber_count(remote_topic) == 0
        for round_ in range(2):
            kb.put("Multihop.802154", True)
            assert module.active
            assert kb.bus.subscriber_count(remote_topic) == 1, round_
            assert kb.bus.subscriber_count(rate_topic) == 0, round_
            kb.put("Multihop.802154", False)
            assert not module.active
            assert kb.bus.subscriber_count(remote_topic) == 0, round_
            assert kb.bus.subscriber_count(rate_topic) == 0, round_


# -- the wormhole module hears the two anomaly labels only ---------------------------------


def _wormhole_kb():
    kb = KnowledgeBase(OWNER, EventBus())
    manager = ModuleManager(kb=kb, datastore=DataStore(), bus=kb.bus, node_id=OWNER)
    return kb, manager.register(create_module("WormholeModule"))


def _spy_correlate(module, monkeypatch):
    heard = []
    monkeypatch.setattr(module, "_correlate", lambda timestamp: heard.append(timestamp))
    return heard


def _write(kb, creator, label, entity, value=True):
    """A local put when ``creator`` owns the KB, else a peer's update."""
    if creator is kb.owner:
        kb.put(label, value, entity=entity, collective=True)
    else:
        knowgget = Knowgget(
            label=label, value=encode_value(value), creator=creator,
            entity=entity, collective=True,
        )
        assert kb.apply_remote(knowgget, sender=creator)


class TestWormholeSubscription:
    ANOMALIES = ("ForwardingAnomaly", "TrafficSourceAnomaly")

    def test_correlates_on_every_anomaly_change_local_or_remote(self, monkeypatch):
        kb, module = _wormhole_kb()
        kb.put("Multihop.802154", True)
        heard = _spy_correlate(module, monkeypatch)
        writes = 0
        for creator in (OWNER, PEER, NodeId("kalis-3")):
            for label in self.ANOMALIES:
                for entity in (None, ENTITY, NodeId("B2")):
                    _write(kb, creator, label, entity)
                    _write(kb, creator, label, entity)  # unchanged: no event
                    _write(kb, creator, label, entity, value=False)
                    writes += 2
        assert heard == [None] * writes

    def test_other_labels_reach_no_handler(self, monkeypatch):
        kb, module = _wormhole_kb()
        kb.put("Multihop.802154", True)
        heard = _spy_correlate(module, monkeypatch)
        before = kb.bus.delivered_count
        for creator in (OWNER, PEER):
            for label in ("TrafficFrequency.ICMP", "WormholeInvolving",
                          "ForwardingAnomaly.x", "ForwardingAnomalyX", "Forwarding"):
                _write(kb, creator, label, ENTITY)
        assert heard == []
        assert kb.bus.delivered_count == before

    def test_removal_reaches_the_handler_but_does_not_correlate(self, monkeypatch):
        kb, module = _wormhole_kb()
        kb.put("Multihop.802154", True)
        kb.put("ForwardingAnomaly", True, entity=ENTITY)
        heard = _spy_correlate(module, monkeypatch)
        before = kb.bus.delivered_count
        assert kb.remove("ForwardingAnomaly", entity=ENTITY)
        assert kb.bus.delivered_count == before + 1
        assert heard == []

    def test_anomalies_still_raise_the_wormhole_alert(self):
        kb, module = _wormhole_kb()
        kb.put("Multihop.802154", True)
        alerts = []
        kb.bus.subscribe(ALERT_TOPIC, lambda event: alerts.append(event.payload))
        kb.put("ForwardingAnomaly", True, entity=NodeId("B1"), collective=True)
        assert alerts == []
        _write(kb, PEER, "TrafficSourceAnomaly", NodeId("B2"))
        assert [alert.suspects for alert in alerts] == [(NodeId("B1"), NodeId("B2"))]

    def test_all_on_e1_replay_delivers_no_other_knowledge_change(self):
        trace = icmp_flood_scenario.build(seed=7, symptom_instances=4).trace
        node = KalisNode(NodeId("trad-1"), knowledge_driven=False)
        for record in trace:
            node.feed(record.capture)
        assert node.manager.module("WormholeModule").active
        _assert_no_knowledge_delivered(node)

    def test_all_on_restore_keeps_the_label_filter(self):
        sim = Simulator(seed=7)
        attacker = icmp_flood_scenario.build_world(sim, 7, 4)
        node = KalisNode(NodeId("trad-1"), knowledge_driven=False)
        node.deploy(sim, position=icmp_flood_scenario.OBSERVER_POSITION)
        deployment = Deployment(
            sim=sim, kalis_nodes=[node], end_time=strike_horizon(attacker),
            extras={"attacker": attacker},
        )
        deployment.run_to(deployment.end_time / 2)
        restored = restore(capture(deployment))
        node = restored.kalis_nodes[0]
        node.rebuild_derived_state()  # a second restore hook call changes nothing
        restored.run_to(restored.end_time)
        _assert_no_knowledge_delivered(node)
        assert node.deadletters == []


def _assert_no_knowledge_delivered(node):
    """Only the wormhole listens to knowledge on an all-on node, and no
    knowledge topic the run published carries one of its two labels."""
    published = [
        topic for topic in node.bus.topic_counts()
        if topic.startswith(KNOWLEDGE_TOPIC_PREFIX)
    ]
    assert any("$TrafficFrequency." in topic for topic in published)
    for topic in published:
        assert node.bus.subscriber_count(topic) == 0, topic
        assert node.bus._targets_cache.get(topic, ()) == (), topic
    anomaly_topic = KNOWLEDGE_TOPIC_PREFIX + "kalis-2$TrafficSourceAnomaly@B2"
    assert node.bus.subscriber_count(anomaly_topic) == 1
