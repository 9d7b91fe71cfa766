"""One alert path: every alert on the bus comes from ``DetectionModule.alert``.

Runs scenarios in which all 13 detection modules alert, records every
payload published on :data:`ALERT_TOPIC` and every alert
``DetectionModule.alert`` returned, and requires the two to be the same
objects in the same order.
"""

from repro.baselines.traditional import TraditionalIds
from repro.core.alerts import ALERT_TOPIC
from repro.core.modules import detection
from repro.core.modules.base import DetectionModule
from repro.eventbus.bus import EventBus
from repro.experiments import breadth, extended_breadth, replication_scenario
from repro.util.ids import NodeId


def test_every_published_alert_comes_from_detection_module_alert(monkeypatch):
    published = []
    made = []
    publish = EventBus.publish
    alert = DetectionModule.alert

    def recording_publish(self, topic, payload=None):
        if topic == ALERT_TOPIC:
            published.append(payload)
        return publish(self, topic, payload)

    def recording_alert(self, *args, **kwargs):
        raised = alert(self, *args, **kwargs)
        if raised is not None:
            made.append(raised)
        return raised

    monkeypatch.setattr(EventBus, "publish", recording_publish)
    monkeypatch.setattr(DetectionModule, "alert", recording_alert)

    breadth.run()
    extended_breadth.run(seed=47)
    # The static replication detector never alerts on a knowledge-driven
    # E2 node; on the all-on engine replaying one E2 run it does.
    all_on = TraditionalIds(NodeId("trad-1"))
    all_on.replay_trace(replication_scenario.build_run(seed=8).trace)

    assert [id(payload) for payload in published] == [id(raised) for raised in made]
    assert len(detection.__all__) == 13
    assert {raised.detected_by for raised in made} == set(detection.__all__)
