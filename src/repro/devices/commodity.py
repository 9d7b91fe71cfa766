"""Commodity IoT device traffic models.

Each class reproduces the externally-observable behaviour of one of the
paper's testbed devices.  Timing parameters are jittered per-device from
a seeded generator so traces look organic while staying reproducible.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.addressing import BROADCAST
from repro.net.packets.base import Medium, RawPayload
from repro.net.packets.bluetooth import BlePacket, BleRole
from repro.net.packets.ip import IpPacket
from repro.net.packets.udp import UdpDatagram
from repro.net.packets.wifi import WifiFrame, WifiFrameKind
from repro.proto.iphost import BROADCAST_IP, IpHost, LanDirectory
from repro.util.ids import NodeId
from repro.util.rng import SeededRng

#: Well-known ports used by the traffic models.
HTTPS_PORT = 443
LIFX_UDP_PORT = 56700


class CloudService(IpHost):
    """A manufacturer cloud endpoint, reachable through the home router.

    Listens on 443 and answers whatever its devices send.  Lives on the
    WAN (wired) segment; devices reach it via the router.
    """

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        directory: LanDirectory,
        gateway: Optional[NodeId] = None,
    ) -> None:
        super().__init__(
            node_id, position, directory, medium=Medium.WIRED, gateway=gateway
        )
        self.tcp.listen(HTTPS_PORT)


class _CloudConnectedDevice(IpHost):
    """Shared behaviour: periodic encrypted check-ins with a cloud service."""

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        directory: LanDirectory,
        cloud_ip: str,
        gateway: NodeId,
        keepalive_interval: float,
        keepalive_bytes: int,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(
            node_id, position, directory, medium=Medium.WIFI, gateway=gateway
        )
        self.cloud_ip = cloud_ip
        self.keepalive_interval = keepalive_interval
        self.keepalive_bytes = keepalive_bytes
        self._rng = rng if rng is not None else SeededRng(0, "device", node_id.value)
        self.checkins_sent = 0

    def start(self) -> None:
        first = self._rng.uniform(0.5, self.keepalive_interval)
        self.sim.schedule_in(first, self._keepalive_tick)

    def _keepalive_tick(self) -> None:
        if not self.attached:
            return
        self.cloud_checkin()
        delay = self._rng.jitter(self.keepalive_interval, 0.15)
        self.sim.schedule_in(delay, self._keepalive_tick)

    def cloud_checkin(self, payload_bytes: Optional[int] = None) -> None:
        """One encrypted report to the cloud: full TCP lifecycle."""
        self.checkins_sent += 1
        size = payload_bytes if payload_bytes is not None else self.keepalive_bytes
        self.open_tcp(self.cloud_ip, HTTPS_PORT, data_bytes=size)


class NestThermostat(_CloudConnectedDevice):
    """A smart thermostat: steady telemetry to its cloud every ~30 s."""

    def __init__(self, node_id, position, directory, cloud_ip, gateway, rng=None):
        super().__init__(
            node_id,
            position,
            directory,
            cloud_ip,
            gateway,
            keepalive_interval=30.0,
            keepalive_bytes=180,
            rng=rng,
        )

    def report_presence(self) -> None:
        """User-at-home event: an immediate, larger report (Figure 1)."""
        self.cloud_checkin(payload_bytes=420)


class ArloCamera(_CloudConnectedDevice):
    """A security camera: light keepalives, heavy uploads on motion."""

    def __init__(self, node_id, position, directory, cloud_ip, gateway, rng=None):
        super().__init__(
            node_id,
            position,
            directory,
            cloud_ip,
            gateway,
            keepalive_interval=20.0,
            keepalive_bytes=96,
            rng=rng,
        )
        self.motion_events = 0

    def motion_event(self, clip_bytes: int = 1400) -> None:
        """Motion detected: upload a clip (several data-bearing rounds)."""
        self.motion_events += 1
        for _ in range(3):
            self.cloud_checkin(payload_bytes=clip_bytes)


class LifxBulb(_CloudConnectedDevice):
    """A WiFi smart bulb: LAN UDP state broadcasts plus cloud check-ins."""

    def __init__(self, node_id, position, directory, cloud_ip, gateway, rng=None):
        super().__init__(
            node_id,
            position,
            directory,
            cloud_ip,
            gateway,
            keepalive_interval=45.0,
            keepalive_bytes=128,
            rng=rng,
        )
        self.state_broadcast_interval = 5.0

    def start(self) -> None:
        super().start()
        self.sim.schedule_every(
            self.state_broadcast_interval,
            self.broadcast_state,
            first_delay=self._rng.uniform(0.2, self.state_broadcast_interval),
        )

    def broadcast_state(self) -> None:
        """Lifx LAN-protocol state broadcast on UDP 56700."""
        if not self.attached:
            return
        state = IpPacket(
            src_ip=self.ip,
            dst_ip=BROADCAST_IP,
            payload=UdpDatagram(
                sport=LIFX_UDP_PORT,
                dport=LIFX_UDP_PORT,
                payload=RawPayload(length=52),
            ),
        )
        self.send_ip(state, link_dst=BROADCAST)


class DashButton(_CloudConnectedDevice):
    """An Amazon Dash button: silent until pressed, then one burst."""

    def __init__(self, node_id, position, directory, cloud_ip, gateway, rng=None):
        super().__init__(
            node_id,
            position,
            directory,
            cloud_ip,
            gateway,
            keepalive_interval=3600.0,  # effectively silent
            keepalive_bytes=64,
            rng=rng,
        )
        self.presses = 0

    def start(self) -> None:
        pass  # no periodic traffic; the button only talks when pressed

    def press(self) -> None:
        """Button press: wake, associate, one order request, sleep."""
        self.presses += 1
        probe = WifiFrame(
            src=self.node_id,
            dst=BROADCAST,
            wifi_kind=WifiFrameKind.PROBE_REQUEST,
        )
        self.send(Medium.WIFI, probe)
        self.cloud_checkin(payload_bytes=96)


class AugustSmartLock(IpHost):
    """A BLE smart lock: periodic advertisements, commands from a phone.

    The lock has no WiFi of its own (the real product pairs over BLE and
    optionally bridges via a separate module); it advertises on BLE and
    exchanges encrypted attribute data with a paired smartphone.
    """

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        directory: LanDirectory,
        rng: Optional[SeededRng] = None,
        advertise_interval: float = 2.0,
    ) -> None:
        super().__init__(
            node_id,
            position,
            directory,
            medium=Medium.BLUETOOTH,
            respond_to_ping=False,
        )
        self._rng = rng if rng is not None else SeededRng(0, "device", node_id.value)
        self.advertise_interval = advertise_interval
        self.operations = 0

    def start(self) -> None:
        self.sim.schedule_every(
            self.advertise_interval,
            self.advertise,
            first_delay=self._rng.uniform(0.1, self.advertise_interval),
        )

    def advertise(self) -> None:
        if not self.attached:
            return
        beacon = BlePacket(
            src=self.node_id,
            dst=BROADCAST,
            role=BleRole.ADVERTISEMENT,
            data_length=24,
        )
        self.send(Medium.BLUETOOTH, beacon)

    def operate(self, phone_id: NodeId) -> None:
        """A lock/unlock exchange with the paired phone."""
        self.operations += 1
        response = BlePacket(
            src=self.node_id,
            dst=phone_id,
            role=BleRole.DATA,
            data_length=48,
        )
        self.send(Medium.BLUETOOTH, response)


class Smartphone(IpHost):
    """The user's phone: issues commands to devices via their clouds."""

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        directory: LanDirectory,
        gateway: NodeId,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(node_id, position, directory, medium=Medium.WIFI,
                         gateway=gateway, extra_mediums=(Medium.BLUETOOTH,))
        self._rng = rng if rng is not None else SeededRng(0, "device", node_id.value)

    def ble_request(self, lock: AugustSmartLock) -> None:
        """Direct BLE operation of a paired lock."""
        request = BlePacket(
            src=self.node_id,
            dst=lock.node_id,
            role=BleRole.DATA,
            data_length=40,
        )
        self.send(Medium.BLUETOOTH, request)
        lock.operate(self.node_id)
