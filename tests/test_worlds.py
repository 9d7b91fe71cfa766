"""The scenario table: one world per attack, and E6 and E13 as its views."""

import pytest

# Importing the detection package registers the whole library.
from repro.core.modules import detection  # noqa: F401
from repro.core.modules.base import DetectionModule
from repro.core.modules.registry import available_modules, module_class
from repro.experiments import breadth, extended_breadth, worlds
from repro.taxonomy import ATTACKS


def test_one_row_per_attack_keyed_by_attack_and_topology():
    attacks = [world.attack for world in worlds.TABLE.values()]
    assert sorted(attacks) == sorted(ATTACKS)
    assert len(set(attacks)) == len(attacks)
    for key, world in worlds.TABLE.items():
        assert key == (world.attack, world.topology)
        assert worlds.world_for(world.attack) is world


def test_detection_library_detects_exactly_the_table_attacks():
    detected = set()
    for name in available_modules():
        cls = module_class(name)
        if issubclass(cls, DetectionModule):
            detected.update(cls.DETECTS)
    assert detected == {world.attack for world in worlds.TABLE.values()}


def test_e6_and_e13_partition_the_table_in_view_order():
    assert not set(breadth.SCENARIOS) & set(extended_breadth.EXTENDED_SCENARIOS)
    assert [world.attack for world in worlds.TABLE.values()] == list(
        breadth.SCENARIOS
    ) + list(extended_breadth.EXTENDED_SCENARIOS)


@pytest.mark.parametrize("index", range(len(breadth.SCENARIOS)))
def test_kalis_names_a_suspect_of_each_e6_row(index):
    world = worlds.world_for(breadth.SCENARIOS[index])
    kalis = worlds.score(world, 23 + index, 6, engines=("kalis",))["kalis"]
    assert kalis.revoked
    assert worlds.names_culprit(world, kalis)


@pytest.fixture(scope="module")
def e13():
    return extended_breadth.run(seed=47)


@pytest.mark.parametrize("attack", extended_breadth.EXTENDED_SCENARIOS)
def test_e13_row_meets_its_bounds(e13, attack):
    score = e13.scores[attack]
    assert score.detection_rate >= 0.9
    assert score.classification_accuracy == 1.0
    assert score.false_positive_alerts == 0
    assert e13.suspects_correct[attack]


def test_score_rejects_an_engine_it_does_not_run():
    with pytest.raises(ValueError, match="snort"):
        worlds.score(worlds.world_for("blackhole"), 23, engines=("snort",))


def test_a_live_world_scores_its_kalis_node_alone():
    runs = worlds.score(worlds.world_for("jamming"), 51)
    assert list(runs) == ["kalis"]
    assert runs["kalis"].score.detection_rate == 1.0


@pytest.mark.parametrize("attack", ["wormhole", "replication"])
def test_a_row_with_its_own_protocol_returns_the_engines_asked_for(attack):
    runs = worlds.score(worlds.world_for(attack), 23, engines=("traditional",))
    assert list(runs) == ["traditional"]


def test_a_live_world_has_no_trace_to_replay():
    recorded = worlds.Recorded(traces={}, instances=[], duration_s=1.0)
    with pytest.raises(ValueError, match="no trace"):
        recorded.trace
