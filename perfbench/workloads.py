"""The benchmark's three workloads: input generation, set-up, timed passes.

Every workload is closed loop and single threaded: one capture (or one
simulator event) at a time, the next only after the previous returned.
A run repeats *pass = set-up + timed work* until the timed work has
taken the requested seconds, so every pass does identical work and the
per-capture figures do not depend on how many passes fit.

- ``replay``: a long E1 home-LAN ICMP-flood trace, written to JSONL by a
  child process and loaded with ``Trace.load`` (as ``kalis-repro serve
  --trace`` loads it), fed capture by capture to a knowledge-driven
  ``KalisNode`` through ``CommunicationSystem.on_capture``.  No simulator
  runs, so the Kalis core does all the work; activation re-evaluation is
  at its heaviest here.
- ``replay-allon``: the same trace through ``KalisNode(knowledge_driven=
  False)``, the paper's traditional-IDS baseline.  The same knowledge
  and bus writes but zero ``required()`` calls, and all 16 modules
  handle every capture: the bypass for activation work and the heavy
  case for module handlers and ``Packet.find_layer``.
- ``live-wsn``: a 10x10 grid of CTP TelosB motes with one selective
  forwarder on the collection path, guarded by two 802.15.4-only Kalis
  nodes, one of which overhears the forwarder.  The simulator, CTP and
  the delivery path take most of the wall time; it is the only workload
  that runs ``repro.sim``, so the replays are its bypass.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from perfbench.probe import ChunkClock
from repro.attacks.selective_forwarding import SelectiveForwardingMote
from repro.ckpt.snapshot import alert_lines
from repro.core.kalis import KalisNode
from repro.devices.wsn import build_wsn
from repro.experiments import icmp_flood_scenario
from repro.net.packets.base import Medium
from repro.sim.engine import Simulator
from repro.sim.node import SnifferNode
from repro.sim.topology import grid_positions
from repro.trace.trace import Trace
from repro.util.ids import NodeId
from repro.util.rng import SeededRng

DEFAULT_SEED = 7

#: E1 symptom instances in the replayed trace (about 12k captures).
REPLAY_SYMPTOM_INSTANCES = 500
#: Captures per timed chunk on the replays (a few milliseconds of work;
#: see perfbench.probe for why chunks are this short).
REPLAY_CHUNK = 24

#: live-wsn site: a GRID_SIDE x GRID_SIDE grid, GRID_SPACING_M apart,
#: base station at index 0, the forwarder replacing grid index
#: FORWARDER_INDEX (the middle of the collection path).
GRID_SIDE = 10
GRID_SPACING_M = 25.0
FORWARDER_INDEX = 44
FORWARDER_DROP_PROBABILITY = 0.6
#: Kalis nodes: the first sits beside the forwarder, the second guards
#: the far corner of the field.
KALIS_POSITIONS = ((112.5, 112.5), (187.5, 187.5))
#: Set-up runs the site until every mote has a CTP parent, and at least
#: this long: routes form at 21, 26 or 31 s depending on the seed, and a
#: common floor keeps set-up work from varying with the seed.
WARMUP_SIM_S = 31.0
#: Longest the site may take to form CTP routes before a run fails.
ROUTE_FORMATION_CAP_S = 300.0
#: Simulated seconds per timed pass and per timed chunk (a chunk is about
#: 30 frames, a few milliseconds of work).
EPOCH_SIM_S = 150.0
CHUNK_SIM_S = 0.15


@dataclass
class PassStats:
    """What one timed pass did (outside the chunk clock)."""

    items: int = 0          # captures fed (replays) or frames sent (live)
    attempted: int = 0      # captures handed to a Kalis node
    failed: int = 0         # captures that recorded an isolated failure


def isolated_failures(node) -> int:
    """Module failures, intake errors and bus dead-letters at one node."""
    return (
        len(node.manager.supervisor.failures)
        + len(node.comm.intake_errors)
        + len(node.deadletters)
    )


class TimedIntake:
    """A Kalis node's capture intake, timing each ``on_capture`` call.

    A capture *failed* if the node recorded an isolated failure while
    handling it.  It counts once however many it recorded: an intake
    error is also published as a dead-letter, and one capture can fail in
    several modules.  The Kalis nodes here do no work between captures,
    so every failure falls inside one.
    """

    def __init__(self, node, samples: List[float]) -> None:
        self.node = node
        self.on_capture = node.comm.on_capture
        self.samples = samples
        self.failed = 0
        self._failures = isolated_failures(node)

    def __call__(self, capture) -> None:
        clock = time.perf_counter
        before = clock()
        self.on_capture(capture)
        self.samples.append(clock() - before)
        failures = isolated_failures(self.node)
        if failures != self._failures:
            self._failures = failures
            self.failed += 1


def node_lines(node) -> List[str]:
    """One Kalis node's canonical outputs: alerts, activation, knowledge."""
    prefix = node.node_id.value
    lines = [f"{prefix} captures={node.comm.total_captures}"]
    lines.extend(f"{prefix} alert {line}" for line in alert_lines(node))
    lines.extend(
        f"{prefix} module {name}={'active' if active else 'dormant'}"
        for name, active in node.manager.activation_table().items()
    )
    lines.extend(f"{prefix} kb {key}={value}" for key, value in node.kb.snapshot().items())
    return lines


def digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def alert_counts(node) -> Dict[str, int]:
    """Alerts per attack name, sorted by name."""
    return dict(sorted(Counter(alert.attack for alert in node.alerts.alerts).items()))


def is_true_positive(alert, attack: str, attacker: str) -> bool:
    """The alert reports the scripted attack with the attacker as a suspect."""
    return alert.attack == attack and any(s.value == attacker for s in alert.suspects)


def attack_reported(node, attack: str, attacker: str) -> bool:
    return any(is_true_positive(alert, attack, attacker) for alert in node.alerts.alerts)


def smurf_dormant(node) -> bool:
    """The knowledge-driven node never ran SmurfModule."""
    smurf = node.manager.module("SmurfModule")
    return not smurf.active and smurf.processed_count == 0


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    item_unit = ""
    #: The scripted attack and its attacker's node id.
    attack = ""
    attacker = ""

    def prepare(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def setup(self, clock: ChunkClock):
        """Build one pass's state, closing a ``clock`` chunk per piece of work."""
        raise NotImplementedError

    def run_pass(self, state, clock: ChunkClock) -> PassStats:
        raise NotImplementedError

    def kalis_nodes(self, state) -> list:
        raise NotImplementedError

    def outputs(self, state) -> List[str]:
        raise NotImplementedError

    def problems(self, state) -> List[str]:
        raise NotImplementedError

    def summary(self, state) -> Dict[str, object]:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove generated inputs."""


# -- replays ----------------------------------------------------------------------


def generate_trace(seed: int, path: Path) -> int:
    """Build the E1 scenario for ``seed`` and save its trace as JSONL."""
    built = icmp_flood_scenario.build(seed=seed, symptom_instances=REPLAY_SYMPTOM_INSTANCES)
    built.trace.save(path)
    return len(built.trace)


@dataclass
class ReplayState:
    trace: object
    node: object


class Replay(Workload):
    item_unit = "captures"
    attack = "icmp_flood"
    attacker = "flooder"

    def __init__(self, name: str, knowledge_driven: bool) -> None:
        self.name = name
        self.knowledge_driven = knowledge_driven
        self.path: Optional[Path] = None

    def prepare(self, seed: int, workdir: Path) -> None:
        """Generate the trace in a child process.

        The simulator run that records the trace is not part of the
        workload, so it must not set this process's peak RSS.
        """
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / f"{self.name}-seed{seed}-{id(self):x}.jsonl"
        run_py = Path(__file__).resolve().parent / "run.py"
        subprocess.run(
            [sys.executable, str(run_py), "--generate-trace", str(self.path),
             "--seed", str(seed)],
            check=True,
            timeout=170,
        )

    def setup(self, clock: ChunkClock) -> ReplayState:
        begin = time.perf_counter()
        trace = Trace.load(self.path)
        node = KalisNode(NodeId("kalis-1"), knowledge_driven=self.knowledge_driven)
        clock.close_chunk(time.perf_counter() - begin)
        return ReplayState(trace=trace, node=node)

    def run_pass(self, state: ReplayState, clock: ChunkClock) -> PassStats:
        captures = [record.capture for record in state.trace]
        intake = TimedIntake(state.node, [])
        perf = time.perf_counter
        for first in range(0, len(captures), REPLAY_CHUNK):
            chunk = captures[first:first + REPLAY_CHUNK]
            begin = perf()
            for capture in chunk:
                intake(capture)
            clock.close_chunk(perf() - begin, intake.samples)
            intake.samples.clear()
        return PassStats(items=len(captures), attempted=len(captures), failed=intake.failed)

    def kalis_nodes(self, state: ReplayState) -> list:
        return [state.node]

    def outputs(self, state: ReplayState) -> List[str]:
        return node_lines(state.node)

    def problems(self, state: ReplayState) -> List[str]:
        found = []
        if not attack_reported(state.node, self.attack, self.attacker):
            found.append(f"{self.attack} with suspect {self.attacker} was not reported")
        if self.knowledge_driven and not smurf_dormant(state.node):
            found.append("knowledge-driven node ran SmurfModule")
        return found

    def summary(self, state: ReplayState) -> Dict[str, object]:
        node = state.node
        return {
            "captures": node.comm.total_captures,
            "alerts": alert_counts(node),
            "active": node.active_module_names(),
            "knowggets": len(node.kb),
        }

    def cleanup(self) -> None:
        if self.path is not None and self.path.exists():
            self.path.unlink()


# -- live WSN site -----------------------------------------------------------------


@dataclass
class Site:
    sim: object
    nodes: list
    samples: List[float] = field(default_factory=list)
    intakes: List[TimedIntake] = field(default_factory=list)
    routes_formed_at: float = 0.0


class LiveWsn(Workload):
    name = "live-wsn"
    item_unit = "frames"
    attack = "selective_forwarding"
    attacker = "forwarder"

    def __init__(self) -> None:
        self.seed = DEFAULT_SEED

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self, clock: ChunkClock) -> Site:
        """Build the site, deploy Kalis, and run until CTP routes form.

        The warm-up runs in one-second chunks so that set-up is scaled by
        probes taken through it, like the timed work.
        """
        perf = time.perf_counter
        begin = perf()
        sim = Simulator(seed=self.seed)
        grid = grid_positions(GRID_SIDE, GRID_SIDE, GRID_SPACING_M)
        positions = [p for index, p in enumerate(grid) if index != FORWARDER_INDEX]
        _base, motes = build_wsn(sim, positions)
        forwarder = SelectiveForwardingMote(
            NodeId(self.attacker),
            grid[FORWARDER_INDEX],
            drop_probability=FORWARDER_DROP_PROBABILITY,
            rng=SeededRng(self.seed, "selective-forwarding"),
        )
        sim.add_node(forwarder)
        motes.append(forwarder)
        site = Site(sim=sim, nodes=[])
        for index, position in enumerate(KALIS_POSITIONS, start=1):
            node = KalisNode(NodeId(f"kalis-{index}"), mediums=[Medium.IEEE_802_15_4])
            sniffer = SnifferNode(node.node_id, position, mediums=(Medium.IEEE_802_15_4,))
            sim.add_node(sniffer)
            intake = TimedIntake(node, site.samples)
            sniffer.add_listener(intake)
            site.nodes.append(node)
            site.intakes.append(intake)
        clock.close_chunk(perf() - begin)
        while any(mote.parent is None for mote in motes):
            if sim.now >= ROUTE_FORMATION_CAP_S:
                raise RuntimeError(f"CTP routes did not form within {ROUTE_FORMATION_CAP_S} s")
            _run_timed(sim, sim.now + 1.0, clock)
        site.routes_formed_at = sim.now
        while sim.now < WARMUP_SIM_S:
            _run_timed(sim, min(sim.now + 1.0, WARMUP_SIM_S), clock)
        site.samples.clear()
        return site

    def run_pass(self, site: Site, clock: ChunkClock) -> PassStats:
        sim = site.sim
        end = sim.now + EPOCH_SIM_S
        stats = PassStats()
        frames_before = sim.transmissions
        captures_before = sum(node.comm.total_captures for node in site.nodes)
        failed_before = sum(intake.failed for intake in site.intakes)
        perf = time.perf_counter
        while sim.now < end:
            begin = perf()
            sim.run_until(min(sim.now + CHUNK_SIM_S, end))
            raw = perf() - begin
            clock.close_chunk(raw, site.samples)
            site.samples.clear()
        stats.items = sim.transmissions - frames_before
        stats.attempted = sum(node.comm.total_captures for node in site.nodes) - captures_before
        stats.failed = sum(intake.failed for intake in site.intakes) - failed_before
        return stats

    def kalis_nodes(self, site: Site) -> list:
        return site.nodes

    def outputs(self, site: Site) -> List[str]:
        lines = [
            f"t={site.sim.now:.6f} routes_formed_at={site.routes_formed_at:.6f}",
            f"transmissions={site.sim.transmissions} deliveries={site.sim.deliveries}",
        ]
        for node in site.nodes:
            lines.extend(node_lines(node))
        return lines

    def problems(self, site: Site) -> List[str]:
        found = []
        if not attack_reported(site.nodes[0], self.attack, self.attacker):
            found.append(f"{self.attack} with suspect {self.attacker} was not reported")
        for node in site.nodes:
            if not smurf_dormant(node):
                found.append(f"{node.node_id.value} ran SmurfModule")
        return found

    def summary(self, site: Site) -> Dict[str, object]:
        return {
            "transmissions": site.sim.transmissions,
            "deliveries": site.sim.deliveries,
            "routes_formed_at": site.routes_formed_at,
            "nodes": {
                node.node_id.value: {
                    "captures": node.comm.total_captures,
                    "alerts": alert_counts(node),
                    "active": len(node.active_module_names()),
                    "knowggets": len(node.kb),
                }
                for node in site.nodes
            },
        }


def _run_timed(sim, until: float, clock: ChunkClock) -> None:
    begin = time.perf_counter()
    sim.run_until(until)
    clock.close_chunk(time.perf_counter() - begin)


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "replay": lambda: Replay("replay", knowledge_driven=True),
    "replay-allon": lambda: Replay("replay-allon", knowledge_driven=False),
    "live-wsn": LiveWsn,
}
