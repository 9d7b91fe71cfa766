"""Ground-truth bookkeeping shared by all attackers.

A *symptom instance* is one adverse event the IDS should detect — one
flood burst, one dropped data packet, one replica transmission.  The
paper runs "50 symptom instances, representing the ground truth for
detection" per scenario; experiments here do the same, scoring alerts
against the windows recorded in a :class:`SymptomLog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.util.ids import NodeId
from repro.util.rng import SeededRng


@dataclass(frozen=True)
class SymptomInstance:
    """One ground-truth adverse event.

    :param attack: canonical attack name (see
        :mod:`repro.taxonomy.attacks` for the vocabulary).
    :param attacker: the true culprit.
    :param instance: index within this attacker's log.
    :param start: when the symptom began (simulated seconds).
    :param end: when it ended.
    """

    attack: str
    attacker: NodeId
    instance: int
    start: float
    end: float

    def overlaps(self, start: float, end: float) -> bool:
        return self.start <= end and start <= self.end


class SymptomLog:
    """Collects the symptom instances an attacker produces."""

    def __init__(self, attack: str, attacker: NodeId) -> None:
        self.attack = attack
        self.attacker = attacker
        self._instances: List[SymptomInstance] = []

    def record(self, start: float, end: Optional[float] = None) -> SymptomInstance:
        """Log one adverse event; instantaneous if ``end`` is omitted."""
        instance = SymptomInstance(
            attack=self.attack,
            attacker=self.attacker,
            instance=len(self._instances),
            start=start,
            end=end if end is not None else start,
        )
        self._instances.append(instance)
        return instance

    @property
    def instances(self) -> List[SymptomInstance]:
        return list(self._instances)

    def __len__(self) -> int:
        return len(self._instances)


class RecurringAttack:
    """Mixin owning the strike schedule of a timer-driven attacker.

    The first :meth:`fire` runs ``start_delay`` after :meth:`start`; each
    later one runs ``rng.jitter(interval, 0.1)`` after the previous.  None
    runs once the log holds ``max_instances`` instances (``None`` means
    unlimited) or the node has been detached.  Every :meth:`fire` records
    exactly one symptom instance, so the log is the instance count.

    List the mixin before the :class:`~repro.sim.node.SimNode` base and
    call :meth:`_init_recurring` once that base is constructed.  The
    default RNG is ``SeededRng(0, "attack", node_id)``.
    """

    ATTACK_NAME: str

    def _init_recurring(
        self,
        interval: float,
        start_delay: float,
        max_instances: Optional[int],
        rng: Optional[SeededRng],
    ) -> None:
        self.interval = interval
        self.start_delay = start_delay
        self.max_instances = max_instances
        self._rng = rng if rng is not None else SeededRng(0, "attack", self.node_id.value)
        self.log = SymptomLog(self.ATTACK_NAME, self.node_id)

    def start(self) -> None:
        self.sim.schedule_in(self.start_delay, self._strike)

    def _strike(self) -> None:
        if not self.attached:
            return
        if self.max_instances is not None and len(self.log) >= self.max_instances:
            return
        self.fire()
        self.sim.schedule_in(self._rng.jitter(self.interval, 0.1), self._strike)

    def fire(self) -> None:
        """One strike: emit the attack traffic and record one instance."""
        raise NotImplementedError
