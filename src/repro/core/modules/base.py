"""Module base classes and the knowledge-requirement predicate.

Each module is able, "given a particular instance of the Knowledge
Base, to determine whether its services are required" (§IV-B4).  That
determination is declarative here: a module lists
:class:`Requirement` predicates, and :meth:`KalisModule.required`
evaluates them.  Declarative requirements buy two things:

- the Module Manager needs no per-module knowledge;
- the paper's Figure 3 feature-vs-attack taxonomy can be machine-checked
  against the module library (see :mod:`repro.taxonomy` and its tests).

An *unknown* knowgget (never written) leaves a requirement unsatisfied,
so detection modules stay dormant until sensing modules have actually
established the relevant feature — the behaviour the paper's reactivity
experiment (§VI-C) relies on.  A requirement on an a-priori knowgget an
operator may never configure (``IntegrityProtection``) instead names
the ``default`` an absent knowgget counts as.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

from repro.core.alerts import ALERT_TOPIC, Alert
from repro.core.datastore import DataStore
from repro.core.knowledge import KnowledgeBase
from repro.eventbus.bus import EventBus
from repro.sim.capture import Capture
from repro.util.ids import NodeId

#: Marker for "the knowgget must exist, any value".
EXISTS = object()


@dataclass(frozen=True)
class Requirement:
    """A predicate over one knowgget.

    :param label: knowgget label to inspect (local creator).
    :param equals: required value, or :data:`EXISTS` for presence-only.
    :param expect: type to parse the stored value as.
    :param negate: invert the predicate (``label != equals``); an absent
        knowgget still fails, preserving activate-only-on-knowledge.
    :param default: the value an absent knowgget counts as; None (the
        default) means an absent knowgget fails the predicate.
    """

    label: str
    equals: Any = EXISTS
    expect: type = bool
    negate: bool = False
    default: Any = None

    def satisfied(self, kb: KnowledgeBase) -> bool:
        knowgget = kb.get_knowgget(self.label)
        if knowgget is None and self.default is None:
            return False
        if self.equals is EXISTS:
            return not self.negate
        if knowgget is None:
            value = self.default
        else:
            try:
                value = knowgget.parsed(self.expect)
            except (ValueError, TypeError):
                return False
        matches = value == self.equals
        return not matches if self.negate else matches

    def describe(self) -> str:
        if self.equals is EXISTS:
            text = f"{self.label} exists"
        else:
            operator = "!=" if self.negate else "=="
            text = f"{self.label} {operator} {self.equals!r}"
        if self.default is not None:
            text += f" (absent counts as {self.default!r})"
        return text


class ModuleContext:
    """Everything a module may touch: knowledge, history, alert output.

    Modules receive no simulator handle and no ground truth — their
    world is captures, knowggets and the data-store window.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        datastore: DataStore,
        bus: EventBus,
        node_id: NodeId,
    ) -> None:
        self.kb = kb
        self.datastore = datastore
        self.bus = bus
        self.node_id = node_id


class KalisModule:
    """Base class for all Kalis modules.

    Subclasses set :attr:`NAME` (unique, used by the registry and in
    config files), :attr:`REQUIREMENTS`, and optionally
    :attr:`COST_WEIGHT` — the relative per-capture processing cost fed
    into the CPU proxy (a heavier analysis costs more than a counter
    bump).

    :param params: configuration parameters (from the config file's
        ``ModuleName(key=value, ...)`` syntax); unknown keys are kept so
        subclasses can validate what they care about.
    """

    NAME = "module"
    KIND = "module"
    REQUIREMENTS: Tuple[Requirement, ...] = ()
    COST_WEIGHT = 1.0
    #: Attacks this module can classify (detection modules override).
    DETECTS: Tuple[str, ...] = ()

    def __init__(self, params: Optional[Dict[str, Any]] = None) -> None:
        self.params: Dict[str, Any] = dict(params) if params else {}
        self.ctx: Optional[ModuleContext] = None
        self.active = False
        self.processed_count = 0

    # -- lifecycle ------------------------------------------------------------

    def bind(self, ctx: ModuleContext) -> None:
        """Attach the module to its context (once, at registration)."""
        self.ctx = ctx

    def required(self, kb: KnowledgeBase) -> bool:
        """Should this module be active given the current knowledge?

        The answer may depend only on the knowggets :attr:`REQUIREMENTS`
        declare: the Module Manager re-checks a module only when one of
        those changes, so an override reading any other label would go
        stale (kalis-lint KL104 flags such a read).
        """
        return all(requirement.satisfied(kb) for requirement in self.REQUIREMENTS)

    def on_activate(self) -> None:
        """Hook invoked when the Module Manager activates the module."""

    def on_deactivate(self) -> None:
        """Hook invoked on deactivation; drop transient analysis state."""

    # -- processing -------------------------------------------------------------

    def process(self, capture: Capture) -> None:
        """Analyze one capture; subclasses implement."""

    def handle(self, capture: Capture) -> None:
        """Entry point used by the Module Manager."""
        self.processed_count += 1
        self.process(capture)

    # -- helpers ------------------------------------------------------------------

    def param(self, name: str, default: Any) -> Any:
        """Fetch a config parameter coerced to the default's type."""
        value = self.params.get(name, default)
        if isinstance(default, bool):
            if isinstance(value, str):
                return value.lower() == "true"
            return bool(value)
        if isinstance(default, float):
            return float(value)
        if isinstance(default, int) and not isinstance(value, bool):
            return int(value)
        return value

    def approximate_state_bytes(self) -> int:
        """Rough footprint of the module's analysis state (RAM proxy).

        The instance ``__dict__`` is copied into a plain dict before
        sizing: CPython attributes a key-sharing dict's shared-keys
        object to each instance by live refcount, so sizing it directly
        would depend on how many sibling instances exist — not on this
        module's state.
        """
        return _deep_sizeof(dict(self.__dict__), exclude={"ctx", "params"})

    def describe_requirements(self) -> str:
        if not self.REQUIREMENTS:
            return "always"
        return " and ".join(r.describe() for r in self.REQUIREMENTS)


class SensingModule(KalisModule):
    """Discovers features and writes knowggets; always required."""

    KIND = "sensing"


class DetectionModule(KalisModule):
    """Analyzes traffic + knowledge and raises alerts.

    :meth:`alert` is the only way a detection module raises one.  It
    owns the cooldown: each subclass sets ``self.cooldown`` (its
    ``cooldown`` parameter) and names the key an alert is rate-limited
    on — a victim, a suspect, a suspect pair, or ``None`` for one
    module-wide cooldown.
    """

    KIND = "detection"

    def __init__(self, params: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(params)
        #: When each cooldown key last alerted (simulated seconds).
        self._last_alert_at: Dict[Hashable, float] = {}

    def cooling(self, key: Hashable, now: float) -> bool:
        """Would an alert on ``key`` at ``now`` be suppressed?

        The same test :meth:`alert` runs, without recording anything, so
        a module can skip costly evidence gathering early.
        """
        last = self._last_alert_at.get(key)
        return last is not None and now - last < self.cooldown

    def alert(
        self,
        key: Hashable,
        now: float,
        suspects: Iterable[NodeId] = (),
        victim: Optional[NodeId] = None,
        confidence: float = 1.0,
        details: Optional[Dict[str, Any]] = None,
        attack: Optional[str] = None,
    ) -> Optional[Alert]:
        """Publish an alert on ``key`` unless the key is cooling down.

        Returns None while ``now - last < self.cooldown`` for the key;
        otherwise records ``now`` as the key's last alert and publishes
        an :class:`Alert` on :data:`ALERT_TOPIC`.  ``attack`` defaults to
        the module's first :attr:`DETECTS` entry; ``detected_by``,
        ``kalis_node`` and ``timestamp`` come from the module, its
        context and ``now``.
        """
        if self.cooling(key, now):
            return None
        self._last_alert_at[key] = now
        alert = Alert(
            attack=attack if attack is not None else self.DETECTS[0],
            timestamp=now,
            detected_by=self.NAME,
            kalis_node=self.ctx.node_id,
            suspects=tuple(suspects),
            victim=victim,
            confidence=confidence,
            details=details if details is not None else {},
        )
        self.ctx.bus.publish(ALERT_TOPIC, alert)
        return alert


def _deep_sizeof(obj: Any, exclude: set, _depth: int = 0) -> int:
    """Recursive ``sys.getsizeof`` over plain containers (bounded depth)."""
    if _depth > 6:
        return sys.getsizeof(obj)
    total = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(key, str) and key in exclude:
                continue
            total += _deep_sizeof(key, exclude, _depth + 1)
            total += _deep_sizeof(value, exclude, _depth + 1)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            total += _deep_sizeof(item, exclude, _depth + 1)
    return total
