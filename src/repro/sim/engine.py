"""The discrete-event simulation engine.

A classic event-queue simulator: callbacks are scheduled at absolute
simulated times and dispatched in time order (FIFO among equal times).
The engine also owns frame propagation — :meth:`Simulator.transmit`
asks the medium which nodes can hear a frame and schedules deliveries.

Frame delivery has one path.  Per-medium receiver registries feed a
uniform spatial grid (:mod:`repro.sim.spatial`) with cells sized to the
medium's culling range (mean path loss plus the clamped shadowing
margin), maintained incrementally on node add/remove/move, so a
transmission examines only the sender's 3x3 cell neighborhood: transmit
cost is O(local density) rather than O(N).  The neighborhood arrives as
packed position arrays; distances, shadowing and loss are computed with
numpy over the whole candidate set in one pass, and the surviving
receivers are scheduled as a single pooled :class:`_DeliveryBatch` heap
entry per transmission.  The per-pair scalar radio model this path must
reproduce bit for bit lives in the test suite as the reference.

Determinism: survivors are dispatched in node-id order, tie-breaking in
the event queue is by insertion sequence, and RSSI/loss draws are
order-independent per-(sender, receiver, transmission-sequence) hashed
substreams (:class:`repro.util.rng.HashedStream`) — so candidate
culling cannot perturb any surviving receiver's draws, and a scenario
re-run with the same seed reproduces every capture, RSSI value and
alert exactly.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.net.packets.base import Medium, Packet
from repro.sim.medium import RadioMedium, receiver_tail
from repro.sim.spatial import SpatialGrid
from repro.util.clock import ManualClock
from repro.util.ids import NodeId
from repro.util.rng import SeededRng

#: Fixed per-frame propagation-plus-processing latency, seconds.
TRANSMIT_LATENCY_S = 2e-4

#: Approximate serialization rate used to add a size-dependent component.
BITS_PER_SECOND = {
    Medium.IEEE_802_15_4: 250_000.0,
    Medium.WIFI: 54_000_000.0,
    Medium.BLUETOOTH: 1_000_000.0,
    Medium.WIRED: 1_000_000_000.0,
}


class Simulator:
    """Owns simulated time, the node registry and the radio mediums."""

    def __init__(self, seed: int = 0, telemetry=None) -> None:
        self.clock = ManualClock()
        self.rng = SeededRng(seed, "sim")
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self._nodes: Dict[NodeId, "SimNode"] = {}
        self._mediums: Dict[Medium, RadioMedium] = {}
        #: Per-medium registry of equipped nodes (admin state checked
        #: at transmit time; equipment is fixed at construction).
        self._members: Dict[Medium, Dict[NodeId, "SimNode"]] = {}
        self._grids: Dict[Medium, SpatialGrid] = {}
        #: Free list of dispatched _DeliveryBatch records, reused to cut
        #: per-transmission allocation churn.
        self._delivery_pool: List["_DeliveryBatch"] = []
        #: Per-(medium, sender) in-range candidate snapshots — (grid,
        #: grid version, params, candidate count, nodes, RNG tails,
        #: mean-RSSI array), rows in node-id order.  Valid only while
        #: the grid object, its version stamp, and the model's (frozen)
        #: path-loss params are all unchanged, so any add/remove/move —
        #: including the sender's own — or model swap forces a rebuild.
        self._sender_cache: Dict[Tuple[Medium, NodeId], tuple] = {}
        self.transmissions = 0
        self.deliveries = 0
        #: (frame, candidate-receiver) pairs examined by transmit; the
        #: scalability guard checks this stays O(N * density).
        self.candidate_evaluations = 0
        self._running = False
        self.telemetry = telemetry
        self._tx_counters: Dict[Medium, object] = {}
        self._delivery_counters: Dict[Medium, object] = {}
        if telemetry is not None:
            telemetry.bind_clock(self.clock)

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self.clock.now

    # -- registries ----------------------------------------------------------

    def medium(self, medium: Medium) -> RadioMedium:
        """Get (lazily creating) the propagation model for a medium."""
        if medium not in self._mediums:
            self._mediums[medium] = RadioMedium(
                medium, rng=self.rng.substream("medium", medium.value)
            )
        return self._mediums[medium]

    def set_medium(self, model: RadioMedium) -> None:
        """Install a custom propagation model for its medium."""
        self._mediums[model.medium] = model
        # Cell size derives from the model's culling range — rebuild.
        self._grids.pop(model.medium, None)

    def rebuild_derived_state(self) -> None:
        """Drop every derived cache; each rebuilds lazily on next use.

        Restore hook for snapshot/migration: the spatial grids are a
        pure function of member positions and medium cull ranges, and
        the bound telemetry counters hold handles into the (process-
        local) telemetry sink, so none of them should survive a
        checkpoint boundary.
        """
        self._grids.clear()
        self._delivery_pool.clear()
        self._sender_cache.clear()
        self._tx_counters.clear()
        self._delivery_counters.clear()

    def _grid(self, medium: Medium) -> SpatialGrid:
        """The (lazily built) spatial index for one medium.

        Each member's grid payload is ``(node, tail)`` — the node
        object plus its pre-encoded per-pair RNG tail — so delivery gets
        both back aligned with the packed position arrays, with no
        per-frame dict lookups or key re-encoding.
        """
        grid = self._grids.get(medium)
        if grid is None:
            grid = SpatialGrid(cell_size=self.medium(medium).cull_range_m())
            for node in self._members.get(medium, {}).values():
                grid.insert(
                    node.node_id, node.position,
                    (node, receiver_tail(node.node_id)),
                )
            self._grids[medium] = grid
        return grid

    def add_node(self, node: "SimNode") -> "SimNode":
        """Register a node and schedule its :meth:`SimNode.start`."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        payload = (node, receiver_tail(node.node_id))
        for medium in node.equipped:
            self._members.setdefault(medium, {})[node.node_id] = node
            grid = self._grids.get(medium)
            if grid is not None:
                grid.insert(node.node_id, node.position, payload)
        node.attach(self)
        self.schedule_at(self.clock.now, node.start)
        return node

    def remove_node(self, node_id: NodeId) -> None:
        """Remove a node from the world (e.g. after revocation)."""
        node = self._nodes.pop(node_id, None)
        if node is not None:
            for medium in node.equipped:
                members = self._members.get(medium)
                if members is not None:
                    members.pop(node_id, None)
                grid = self._grids.get(medium)
                if grid is not None:
                    grid.remove(node_id)
            node.detach()

    def notify_moved(self, node: "SimNode") -> None:
        """Re-index a node after a position change (see SimNode.move_to)."""
        payload = None
        for medium in node.equipped:
            grid = self._grids.get(medium)
            if grid is not None:
                if payload is None:
                    payload = (node, receiver_tail(node.node_id))
                grid.move(node.node_id, node.position, payload)

    def node(self, node_id: NodeId) -> "SimNode":
        return self._nodes[node_id]

    def get_node(self, node_id: NodeId) -> Optional["SimNode"]:
        """The node, or None if absent — one lookup for has+get."""
        return self._nodes.get(node_id)

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def nodes(self) -> List["SimNode"]:
        """All nodes, sorted by id for deterministic iteration."""
        return [self._nodes[key] for key in sorted(self._nodes)]

    # -- scheduling ----------------------------------------------------------

    def schedule_at(self, timestamp: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated time ``timestamp``."""
        if timestamp < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.clock.now}, at={timestamp}"
            )
        heapq.heappush(self._queue, (timestamp, self._sequence, callback))
        self._sequence += 1

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self.clock.now + delay, callback)

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        first_delay: Optional[float] = None,
        until: Optional[float] = None,
    ) -> None:
        """Run ``callback`` periodically, optionally ending at ``until``."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        tick = _PeriodicTask(self, interval, callback, until)
        self.schedule_in(first_delay if first_delay is not None else interval, tick)

    def run_until(self, end_time: float) -> None:
        """Dispatch events in order until simulated time reaches ``end_time``."""
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        try:
            while self._queue and self._queue[0][0] <= end_time:
                timestamp, _seq, callback = heapq.heappop(self._queue)
                self.clock.advance_to(timestamp)
                callback()
            self.clock.advance_to(max(end_time, self.clock.now))
        finally:
            self._running = False

    def run(self, duration: float) -> None:
        """Run the simulation for ``duration`` more seconds."""
        self.run_until(self.clock.now + duration)

    # -- transmission --------------------------------------------------------

    def _bound_counter(self, cache: Dict[Medium, object], name: str, medium: Medium):
        counter = cache.get(medium)
        if counter is None:
            counter = cache[medium] = self.telemetry.bound_counter(
                name, medium=medium.value
            )
        return counter

    def transmit(self, sender: "SimNode", medium: Medium, packet: Packet) -> int:
        """Broadcast a frame into the world; returns receptions scheduled.

        Every live node (other than the sender) equipped with the
        medium and within radio range hears the frame; addressing is a
        convention interpreted by receivers, exactly as on a shared
        wireless medium.  ``Simulator.deliveries`` counts *arrivals*:
        a receiver that crashes, detaches or loses the interface while
        the frame is in flight never becomes a delivery.

        One link-budget pass covers every candidate: per-pair digests,
        shadowing and loss are computed with numpy, the distance mask
        comes first, and the alive/interface checks are deferred to the
        survivors (legitimate because draws are pure per-pair
        functions).  Candidate rows are kept in node-id order, so the
        survivors come out in dispatch order; they are scheduled as a
        single :class:`_DeliveryBatch` heap entry that dispatches them
        in that order at arrival time.

        The topology-dependent prologue — neighborhood gather, distance
        mask, tail collection and the deterministic mean-RSSI vector —
        is snapshotted per (medium, sender) in ``_sender_cache`` and
        replayed while the spatial grid's version stamp holds, so a
        static stretch of topology pays only the per-frame stochastic
        work (digests, shadowing, loss).  Liveness and interface state
        are deliberately *not* part of the snapshot: crashes and admin
        toggles don't change membership, and those checks run at the
        survivor stage.
        """
        model = self.medium(medium)
        self.transmissions += 1
        sequence = self.transmissions
        telemetry = self.telemetry
        trace_id = None
        delivery_counter = None
        if telemetry is not None:
            trace_id = telemetry.new_trace()
            self._bound_counter(
                self._tx_counters, "sim_transmissions_total", medium
            ).inc()
            delivery_counter = self._bound_counter(
                self._delivery_counters, "sim_deliveries_total", medium
            )
        airtime = packet.size_bytes * 8.0 / BITS_PER_SECOND[medium]
        arrival = self.clock.now + TRANSMIT_LATENCY_S + airtime
        sender_id = sender.node_id
        grid = self._grid(medium)
        entry = self._sender_cache.get((medium, sender_id))
        if (
            entry is not None
            and entry[0] is grid
            and entry[1] == grid.version
            and entry[2] is model.params
        ):
            count, nodes, tails, mean = entry[3], entry[4], entry[5], entry[6]
        else:
            keys, payloads, xs, ys = grid.near_arrays(sender.position)
            members = self._members.get(medium)
            sender_is_member = members is not None and sender_id in members
            count = len(keys) - (1 if sender_is_member else 0)
            sender_x, sender_y = sender.position
            dx = xs - sender_x
            dy = ys - sender_y
            distances = np.sqrt(dx * dx + dy * dy)
            in_range = distances <= model.cull_range_m()
            rows = in_range.nonzero()[0].tolist()
            if rows:
                # Hash and budget every in-range candidate (including
                # the sender and any dead or interface-down node): draws
                # are pure per-pair functions, so the extra rows cannot
                # perturb anyone else's, and deferring the attribute
                # checks to the few survivors is cheaper than
                # interrogating every candidate up front.  Rows go in
                # node-id order, so survivors come out in dispatch
                # order; the mean is computed in grid order first, so
                # no element's bits depend on the permutation.
                ids = [keys[index].value for index in rows]
                order = sorted(range(len(rows)), key=ids.__getitem__)
                picked = [payloads[rows[row]] for row in order]
                nodes = [payload[0] for payload in picked]
                tails = [payload[1] for payload in picked]
                mean = model.params.mean_rssi_block(distances[in_range])[order]
            else:
                nodes = []
                tails = []
                mean = None
            if sender_is_member:
                self._sender_cache[(medium, sender_id)] = (
                    grid, grid.version, model.params, count, nodes, tails, mean
                )
        if count <= 0:
            return 0
        self.candidate_evaluations += count
        loss = model.base_loss_probability + model.interference_loss_probability
        if loss >= 1.0:
            # Saturating jammer: every frame is dropped, no draws burned.
            return 0
        if not nodes:
            return 0
        block = model.pair_sample_block(sender_id, sequence, encoded_tails=tails)
        rssis = model.pair_rssi_block(block, mean)
        keep = rssis >= model.params.sensitivity_dbm
        if loss > 0.0:
            keep &= ~model.pair_frame_lost_block(block)
        survivors = keep.nonzero()[0]
        if survivors.size == 0:
            return 0
        receivers = []
        heard = []
        # Every row came from this medium's grid, so the receiver is
        # equipped with it: only a downed interface can exclude it.
        for row, rssi in zip(survivors.tolist(), rssis[survivors].tolist()):
            receiver = nodes[row]
            if (
                receiver is not sender
                and receiver.alive
                and medium not in receiver._disabled_mediums
            ):
                receivers.append(receiver)
                heard.append(rssi)
        if not receivers:
            return 0
        pool = self._delivery_pool
        batch = pool.pop() if pool else _DeliveryBatch()
        batch.bind(
            self,
            receivers,
            heard,
            packet,
            medium,
            arrival,
            telemetry,
            trace_id,
            delivery_counter,
        )
        self.schedule_at(arrival, batch)
        return len(receivers)


class _PeriodicTask:
    """One ``schedule_every`` cadence (callable; keeps the queue picklable).

    Re-schedules itself after each firing, so exactly one copy sits on
    the queue at any time and a checkpointed queue carries the cadence
    across a restore without re-installation.
    """

    __slots__ = ("sim", "interval", "callback", "until")

    def __init__(self, sim, interval, callback, until=None) -> None:
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.until = until

    def __call__(self) -> None:
        if self.until is not None and self.sim.clock.now > self.until:
            return
        self.callback()
        self.sim.schedule_in(self.interval, self)


class _DeliveryBatch:
    """All of one transmission's deliveries as a single heap entry.

    :meth:`Simulator.transmit` schedules one of these per transmission,
    so heappush churn is O(1) per frame.  Receivers are dispatched in
    node-id order, and each receiver's liveness / attachment / interface
    state is re-checked at its own dispatch moment: an earlier
    receiver's handler crashing a later one means the later one gets
    nothing, and a receiver that crashes, detaches or loses the
    interface while the frame is in flight is not a delivery and gets no
    ``sim.deliver`` span.  The batch carries the frame's trace id across
    the event-queue gap so the receivers' pipeline spans stay linked to
    the transmission.  Dispatched batches return themselves to the
    simulator's ``_delivery_pool`` for reuse.
    """

    __slots__ = (
        "sim",
        "receivers",
        "rssis",
        "packet",
        "medium",
        "timestamp",
        "telemetry",
        "trace_id",
        "delivery_counter",
    )

    def __init__(self) -> None:
        self.sim = None
        self.receivers: List = []
        self.rssis: List[float] = []
        self.packet = None
        self.medium = None
        self.timestamp = 0.0
        self.telemetry = None
        self.trace_id = None
        self.delivery_counter = None

    def bind(
        self,
        sim,
        receivers,
        rssis,
        packet,
        medium,
        timestamp,
        telemetry=None,
        trace_id=None,
        delivery_counter=None,
    ) -> None:
        self.sim = sim
        self.receivers = receivers
        self.rssis = rssis
        self.packet = packet
        self.medium = medium
        self.timestamp = timestamp
        self.telemetry = telemetry
        self.trace_id = trace_id
        self.delivery_counter = delivery_counter

    def __call__(self) -> None:
        sim = self.sim
        packet = self.packet
        medium = self.medium
        timestamp = self.timestamp
        telemetry = self.telemetry
        delivery_counter = self.delivery_counter
        for receiver, rssi in zip(self.receivers, self.rssis):
            if (
                not receiver.attached
                or not receiver.alive
                or medium in receiver._disabled_mediums
            ):
                continue
            sim.deliveries += 1
            if delivery_counter is not None:
                delivery_counter.inc()
            if telemetry is None:
                receiver.handle_frame(packet, medium, rssi, timestamp)
                continue
            with telemetry.span(
                "sim.deliver",
                node=str(receiver.node_id),
                t=timestamp,
                trace_id=self.trace_id,
                medium=medium.value,
                kind=type(packet).__name__,
            ):
                receiver.handle_frame(packet, medium, rssi, timestamp)
        # Drop object references and return to the pool for reuse.
        self.bind(None, [], [], None, None, 0.0)
        sim._delivery_pool.append(self)

