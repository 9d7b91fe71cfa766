"""Uniform spatial grid index for neighbor queries.

Frame delivery needs, per transmission, the set of nodes that could
conceivably receive the frame.  A :class:`SpatialGrid` bins members
into square cells at least as wide as the radio's culling range (mean
path loss plus the shadowing margin — see
:meth:`repro.sim.medium.RadioMedium.cull_range_m`), so every node
within that range of a sender lies in the 3x3 cell neighborhood around
the sender's cell.  Membership is maintained incrementally on
add/remove/move instead of re-scanning the whole registry per query.

The one query, :meth:`SpatialGrid.near_arrays`, returns the whole
neighborhood as packed parallel arrays — keys, the caller's opaque
payloads, and numpy x/y coordinate vectors — so frame delivery can
compute every candidate distance in one vectorized pass instead of one
position lookup per key.  Neighborhood results are cached per cell and
invalidated by a grid-wide version stamp (any insert/remove/move bumps
it, including within-cell moves, which change a coordinate without
changing the cell), making repeat queries from a static region O(1).
The per-cell packed arrays beneath them invalidate per cell, so one
mutation only re-packs its own cell.

When the culling range is unbounded (wired "mediums" whose path-loss
exponent is ~0), the grid degenerates to a single bucket: queries
return every member, and the per-medium registry still avoids touching
nodes without the interface.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

Position = Tuple[float, float]
Cell = Tuple[int, int]

#: (keys, payloads, xs, ys) parallel arrays for one cell or neighborhood.
Packed = Tuple[List[Hashable], List[Any], np.ndarray, np.ndarray]

#: Cull ranges beyond this are treated as "everything is in range":
#: a grid that coarse would put all members in one cell anyway.
UNBOUNDED_RANGE_M = 1.0e7

_EMPTY: Packed = ([], [], np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64))


class SpatialGrid:
    """Square-cell spatial index over objects with stable keys.

    :param cell_size: cell edge length in metres, or None/inf/huge for
        an unbounded (single-bucket) grid.
    """

    def __init__(self, cell_size: Optional[float] = None) -> None:
        if cell_size is not None and cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        if cell_size is None or not math.isfinite(cell_size) or cell_size > UNBOUNDED_RANGE_M:
            cell_size = None
        self.cell_size = cell_size
        self._cells: Dict[Cell, Set[Hashable]] = {}
        self._where: Dict[Hashable, Cell] = {}
        self._positions: Dict[Hashable, Position] = {}
        self._payloads: Dict[Hashable, Any] = {}
        #: Per-cell packed arrays, re-packed lazily after any mutation
        #: of that cell.
        self._packed: Dict[Cell, Packed] = {}
        #: Whole-3x3-neighborhood packed arrays keyed by center cell,
        #: valid only while the version stamp is unchanged.
        self._hood_cache: Dict[Cell, Tuple[int, Packed]] = {}
        #: Bumped by every mutation; cheap grid-wide invalidation for
        #: the neighborhood cache.
        self._version = 0

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._where

    @property
    def unbounded(self) -> bool:
        return self.cell_size is None

    @property
    def version(self) -> int:
        """Monotonic mutation stamp; equal stamps guarantee identical
        membership, positions, and payloads.  Callers (the engine's
        per-sender candidate cache) validate derived snapshots against
        it instead of subscribing to change events."""
        return self._version

    def cell_of(self, position: Position) -> Cell:
        if self.cell_size is None:
            return (0, 0)
        return (
            int(math.floor(position[0] / self.cell_size)),
            int(math.floor(position[1] / self.cell_size)),
        )

    # -- maintenance ---------------------------------------------------------

    def invalidate_caches(self) -> None:
        """Drop the packed-array caches; each rebuilds lazily on query.

        Membership, positions and payloads are untouched — only the
        derived per-cell and per-neighborhood snapshots go.  The
        version bump keeps any engine-side snapshot stamped against
        :attr:`version` honest too.
        """
        self._packed.clear()
        self._hood_cache.clear()
        self._version += 1

    def insert(self, key: Hashable, position: Position, payload: Any = None) -> None:
        """Add a member.  ``payload`` is an opaque value handed back by
        :meth:`near_arrays`, aligned with the keys (the engine stores
        the node object and its pre-encoded RNG tail there)."""
        if key in self._where:
            raise ValueError(f"duplicate grid member {key!r}")
        cell = self.cell_of(position)
        self._cells.setdefault(cell, set()).add(key)
        self._where[key] = cell
        self._positions[key] = (float(position[0]), float(position[1]))
        self._payloads[key] = payload
        self._packed.pop(cell, None)
        self._version += 1

    def remove(self, key: Hashable) -> None:
        cell = self._where.pop(key, None)
        if cell is None:
            return
        self._positions.pop(key, None)
        self._payloads.pop(key, None)
        self._packed.pop(cell, None)
        self._version += 1
        members = self._cells.get(cell)
        if members is not None:
            members.discard(key)
            if not members:
                del self._cells[cell]

    def move(self, key: Hashable, position: Position, payload: Any = None) -> None:
        """Update a member's position; cheap while it stays in its cell.
        An unknown key is inserted (with ``payload``); a known key keeps
        its existing payload."""
        old_cell = self._where.get(key)
        if old_cell is None:
            self.insert(key, position, payload)
            return
        self._positions[key] = (float(position[0]), float(position[1]))
        new_cell = self.cell_of(position)
        self._packed.pop(old_cell, None)
        self._version += 1
        if new_cell == old_cell:
            return
        self._packed.pop(new_cell, None)
        members = self._cells.get(old_cell)
        if members is not None:
            members.discard(key)
            if not members:
                del self._cells[old_cell]
        self._cells.setdefault(new_cell, set()).add(key)
        self._where[key] = new_cell

    # -- queries -------------------------------------------------------------

    def _packed_cell(self, cell: Cell, members: Set[Hashable]) -> Packed:
        """The cell's packed arrays, re-packing if stale.

        Keys are sorted when orderable so the packed layout is canonical
        across processes (set iteration order is salted for str-hashed
        keys); frame delivery orders each sender's candidates by id
        itself, so this only aids reproducibility of debugging output.
        """
        packed = self._packed.get(cell)
        if packed is None:
            try:
                keys = sorted(members)
            except TypeError:
                keys = list(members)
            positions = self._positions
            payloads = self._payloads
            xs = np.empty(len(keys), dtype=np.float64)
            ys = np.empty(len(keys), dtype=np.float64)
            for index, key in enumerate(keys):
                xs[index], ys[index] = positions[key]
            packed = self._packed[cell] = (
                keys, [payloads[key] for key in keys], xs, ys
            )
        return packed

    def near_arrays(self, position: Position) -> Packed:
        """The full 3x3 neighborhood as packed parallel arrays.

        Returns ``(keys, payloads, xs, ys)`` where ``xs``/``ys`` are
        float64 numpy arrays aligned with ``keys`` — frame delivery
        feeds them straight into the vectorized link budget.  With
        ``cell_size >= cull_range`` the keys are a superset of every
        member within ``cull_range`` of ``position``, in no particular
        order.  The querying node itself is *included* when it is a
        member; callers exclude it downstream (cheaper than slicing it
        out of every result).  Results are cached per center cell until
        the next grid mutation, so static-topology queries are O(1).
        """
        center = self.cell_of(position)
        cached = self._hood_cache.get(center)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        if self.cell_size is None:
            cells: Iterable[Cell] = (center,)
        else:
            cx, cy = center
            cells = (
                (cx + dx, cy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            )
        chunks = [
            self._packed_cell(cell, members)
            for cell in cells
            for members in (self._cells.get(cell),)
            if members
        ]
        if not chunks:
            packed = _EMPTY
        elif len(chunks) == 1:
            packed = chunks[0]
        else:
            keys: List[Hashable] = []
            payloads: List[Any] = []
            for chunk in chunks:
                keys.extend(chunk[0])
                payloads.extend(chunk[1])
            packed = (
                keys,
                payloads,
                np.concatenate([chunk[2] for chunk in chunks]),
                np.concatenate([chunk[3] for chunk in chunks]),
            )
        self._hood_cache[center] = (self._version, packed)
        return packed
