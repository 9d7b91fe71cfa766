"""Test-only reference for packet decoding: the generic value walker.

:func:`repro.net.packets.codec.decode_packet` decodes each field with a
decoder chosen at registration from the field's annotation.
:func:`reference_decode` decodes the same input the slow, obvious way:
it inspects every value and decides from its ``__node__``/``__flag__``/
``__enum__``/``__packet__`` tag alone, building a fresh ``NodeId`` for
every address.  On :func:`~repro.net.packets.codec.encode_packet` output
the two must produce equal packets.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.net.packets.base import Packet
from repro.net.packets.codec import _ENUM_TYPES, registered_packet_types
from repro.util.ids import NodeId


def reference_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__node__" in value:
            return NodeId(value["__node__"])
        if "__flag__" in value:
            flag_type = _ENUM_TYPES[value["__flag__"]]
            return flag_type(value["value"])
        if "__enum__" in value:
            enum_type = _ENUM_TYPES[value["__enum__"]]
            return enum_type[value["value"]]
        if "__packet__" in value:
            return reference_decode(value)
        raise ValueError(f"unrecognised encoded value: {value!r}")
    return value


def reference_decode(data: Dict[str, Any]) -> Packet:
    """Reconstruct a packet from :func:`encode_packet` output, tag by tag."""
    if "__packet__" not in data:
        raise ValueError("missing __packet__ discriminator in encoded packet")
    type_name = data["__packet__"]
    packet_type = registered_packet_types().get(type_name)
    if packet_type is None:
        raise ValueError(f"unknown packet type {type_name!r}")
    kwargs = {
        key: reference_value(value)
        for key, value in data.items()
        if key != "__packet__"
    }
    return packet_type(**kwargs)
