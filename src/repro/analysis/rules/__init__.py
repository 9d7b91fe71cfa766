"""Bundled kalis-lint rules.

Importing this package registers every rule with the engine registry.
Adding a rule = adding a module here that defines a
:class:`~repro.analysis.engine.Rule` subclass decorated with
:func:`~repro.analysis.engine.register_rule`, and importing it below.
"""

from repro.analysis.rules import (  # noqa: F401  (imports register rules)
    boundaries,
    contracts,
    determinism,
    flows,
    imports,
    packets,
    prints,
    state,
    swallows,
    taint,
)

__all__ = [
    "boundaries",
    "contracts",
    "determinism",
    "flows",
    "imports",
    "packets",
    "prints",
    "state",
    "swallows",
    "taint",
]
