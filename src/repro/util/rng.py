"""Seeded randomness.

All stochastic behaviour in the reproduction — device traffic jitter,
mobility, attack timing, topology generation — flows through
:class:`SeededRng` so that every experiment is reproducible bit-for-bit
from a single integer seed.  Sub-streams are derived with
:func:`derive_seed` so that adding a new consumer of randomness does not
perturb existing ones.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

T = TypeVar("T")

#: One digest yields this many independent 8-byte uniform draws.
DRAWS_PER_DIGEST = 4

#: SHA-256 digest width, bytes.
DIGEST_BYTES = 32

#: Key parts are length-delimited by a separator and *type-tagged* so
#: that ``"1"`` and ``1`` hash to different digests (they used to
#: collide because both were encoded via ``str``).
_KEY_SEPARATOR = b"\x1f"
_TAG_STR = b"s"
_TAG_INT = b"i"


def encode_key_part(part: Union[str, int]) -> bytes:
    """Type-tagged wire encoding of one :class:`HashedStream` key part.

    Shared by :meth:`HashedStream.sample` and
    :meth:`HashedStream.sample_block` so per-key and block draws hash
    byte-identical messages.  ``bool`` is encoded as its integer
    value (it *is* an ``int`` in Python).
    """
    if isinstance(part, str):
        return _KEY_SEPARATOR + _TAG_STR + part.encode("utf-8")
    if isinstance(part, int):
        return _KEY_SEPARATOR + _TAG_INT + str(int(part)).encode("ascii")
    raise TypeError(
        f"hashed-stream key parts must be str or int, got {type(part).__name__}"
    )


def derive_seed(root_seed: int, *labels: str) -> int:
    """Derive a stable 63-bit sub-seed from a root seed and a label path.

    The derivation is a SHA-256 over the seed and labels, so streams with
    different labels are statistically independent and insensitive to the
    order in which other streams are created.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(label.encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") >> 1


class SeededRng:
    """A deterministic random source with labelled sub-stream derivation."""

    def __init__(self, seed: int, *labels: str) -> None:
        self._seed = derive_seed(seed, *labels) if labels else int(seed)
        self._labels = tuple(labels)
        self._np = np.random.default_rng(self._seed)

    @property
    def seed(self) -> int:
        return self._seed

    def substream(self, *labels: str) -> "SeededRng":
        """Return an independent generator for a labelled sub-purpose."""
        return SeededRng(self._seed, *labels)

    # -- convenience wrappers ------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._np.uniform(low, high))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        return float(self._np.normal(mean, std))

    def exponential(self, mean: float) -> float:
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self._np.exponential(mean))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return int(self._np.integers(low, high + 1))

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return bool(self._np.random() < probability)

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[int(self._np.integers(0, len(items)))]

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        """Sample ``count`` distinct items without replacement."""
        if count > len(items):
            raise ValueError(f"cannot sample {count} from {len(items)} items")
        indices = self._np.choice(len(items), size=count, replace=False)
        return [items[int(i)] for i in indices]

    def shuffled(self, items: Sequence[T]) -> List[T]:
        order = self._np.permutation(len(items))
        return [items[int(i)] for i in order]

    def jitter(self, value: float, fraction: float) -> float:
        """Return ``value`` perturbed uniformly by up to ``±fraction``."""
        if fraction < 0:
            raise ValueError(f"fraction must be non-negative, got {fraction}")
        return value * (1.0 + self.uniform(-fraction, fraction))

    def maybe(self, probability: float, value: T, default: Optional[T] = None):
        """Return ``value`` with the given probability, else ``default``."""
        return value if self.chance(probability) else default


class HashedDraws:
    """A fixed budget of independent draws derived from one digest.

    Successive calls consume successive 8-byte chunks of a SHA-256
    digest, so one :meth:`HashedStream.sample` supports up to
    :data:`DRAWS_PER_DIGEST` uniform draws (a normal consumes two).
    The consumption order is fixed by the calling code path, which is
    itself deterministic — no hidden generator state is involved.
    """

    __slots__ = ("_digest", "_offset")

    def __init__(self, digest: bytes) -> None:
        self._digest = digest
        self._offset = 0

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Next uniform draw in ``[low, high)``."""
        if self._offset + 8 > len(self._digest):
            raise RuntimeError("hashed draw budget exhausted for this key")
        raw = int.from_bytes(self._digest[self._offset : self._offset + 8], "big")
        self._offset += 8
        # 53-bit mantissa -> uniform in [0, 1) with full double precision.
        unit = (raw >> 11) * (2.0**-53)
        return low + (high - low) * unit

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Next normal draw, via Box-Muller (consumes two uniforms).

        The log goes through numpy's kernel (not ``math.log``) because
        the two differ by an ulp on some inputs: the batched path
        (:meth:`HashedBlock.uniforms` + vectorized Box-Muller) must
        reproduce scalar draws bit-for-bit, so both sides use the same
        kernels.  ``sqrt``/``cos`` agree between libm and numpy.
        """
        # 1 - u maps [0, 1) onto (0, 1], keeping log() finite.
        radius = math.sqrt(-2.0 * float(np.log(1.0 - self.uniform())))
        angle = 2.0 * math.pi * self.uniform()
        return mean + std * radius * math.cos(angle)

    def chance(self, probability: float) -> bool:
        """True with the given probability (consumes one uniform)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.uniform() < probability


class HashedBlock:
    """Draw budgets for a whole key array, packed for numpy.

    Produced by :meth:`HashedStream.sample_block`: row ``i`` holds the
    same 32 digest bytes :meth:`HashedStream.sample` would return for
    key ``common_key + (tails[i],)``, so per-key draws and frame
    delivery's block draws consume identical bits.  :attr:`units`
    converts every digest to its unit draws once, with the exact
    arithmetic of :meth:`HashedDraws.uniform`; :meth:`uniforms` reads
    one draw column of it.
    """

    __slots__ = ("digests", "count", "_units")

    def __init__(self, digests: bytes, count: int) -> None:
        self.digests = digests
        self.count = count
        self._units: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.count

    @property
    def units(self) -> np.ndarray:
        """Every unit draw in ``[0, 1)``, shape ``(count, DRAWS_PER_DIGEST)``.

        Built on first use and read-only: column ``j`` is the ``j``-th
        :meth:`HashedDraws.uniform` of every row, bit for bit.
        """
        units = self._units
        if units is None:
            # Big-endian chunks, like HashedDraws; astype converts to
            # native order on any host before the shift.
            words = np.frombuffer(self.digests, dtype=">u8").astype(np.uint64)
            words >>= np.uint64(11)
            # 53-bit mantissa -> uniform in [0, 1), exact in float64.
            units = (words * (2.0**-53)).reshape(self.count, DRAWS_PER_DIGEST)
            units.setflags(write=False)
            self._units = units
        return units

    def uniforms(
        self, draw_index: int, low: float = 0.0, high: float = 1.0
    ) -> np.ndarray:
        """One uniform draw column in ``[low, high)`` across all rows.

        Bit-identical to calling :meth:`HashedDraws.uniform` as the
        ``draw_index``-th draw of each row's budget.  The default bounds
        return a read-only view of :attr:`units`.
        """
        if draw_index < 0 or draw_index >= DRAWS_PER_DIGEST:
            raise ValueError(
                f"draw_index must be in [0, {DRAWS_PER_DIGEST}), got {draw_index}"
            )
        unit = self.units[:, draw_index]
        if low == 0.0 and high == 1.0:
            # 0.0 + 1.0 * unit == unit bit-for-bit; skip two ufunc passes.
            return unit
        return low + (high - low) * unit


class HashedStream:
    """Order-independent keyed randomness.

    Unlike :class:`SeededRng`, whose draws advance internal generator
    state (so *which* consumers draw, and in what order, perturbs every
    later draw), a :class:`HashedStream` draw is a pure function of
    ``(seed, labels, key)``.  Skipping a key, adding a consumer, or
    reordering the iteration cannot change any other key's draws —
    exactly the property frame delivery needs so that spatial culling
    of candidate receivers leaves the surviving receivers' RSSI/loss
    draws byte-identical to a scan of every node.
    """

    def __init__(self, seed: int, *labels: str) -> None:
        self._seed = derive_seed(seed, *labels) if labels else int(seed)
        self._labels = tuple(labels)
        self._rebuild_prefix()

    def _rebuild_prefix(self) -> None:
        prefix = hashlib.sha256()
        prefix.update(self._seed.to_bytes(8, "big"))
        self._prefix = prefix

    def __getstate__(self) -> dict:
        # The live hashlib object cannot cross pickle; it is a pure
        # function of the seed, so snapshot only the seed and labels.
        return {"_seed": self._seed, "_labels": self._labels}

    def __setstate__(self, state: dict) -> None:
        self._seed = state["_seed"]
        self._labels = state["_labels"]
        self._rebuild_prefix()

    @property
    def seed(self) -> int:
        return self._seed

    def sample(self, *key: Union[str, int]) -> HashedDraws:
        """The draw budget for one key (a pure function of the key).

        Key parts are type-tagged (see :func:`encode_key_part`), so
        ``sample("1")`` and ``sample(1)`` are independent streams.
        """
        hasher = self._prefix.copy()
        for part in key:
            hasher.update(encode_key_part(part))
        return HashedDraws(hasher.digest())

    def sample_block(
        self,
        common_key: Tuple[Union[str, int], ...],
        tails: Sequence[Union[str, int]],
        encoded: bool = False,
    ) -> HashedBlock:
        """Draw budgets for a whole key array, in one pass.

        Row ``i`` is byte-identical to ``sample(*common_key, tails[i])``:
        the shared prefix (seed plus ``common_key``) is hashed once and
        each tail finalizes a copy, so an n-key block costs one prefix
        round plus n short finalizations instead of n full re-hashes.
        Frame delivery calls this with
        ``common_key=(sender, sequence)`` and one tail per candidate
        receiver.

        With ``encoded=True`` the tails are ``bytes`` already produced
        by :func:`encode_key_part` — callers on the hot path cache the
        encoding per stable identity instead of re-encoding per frame.
        """
        base = self._prefix.copy()
        for part in common_key:
            base.update(encode_key_part(part))
        copy = base.copy
        if not encoded:
            tails = [encode_key_part(part) for part in tails]
        digests = []
        for tail in tails:
            hasher = copy()
            hasher.update(tail)
            digests.append(hasher.digest())
        return HashedBlock(b"".join(digests), len(digests))

    # -- one-shot conveniences (each re-hashes the key) ----------------------

    def uniform(self, key: Tuple[Union[str, int], ...], low: float = 0.0,
                high: float = 1.0) -> float:
        return self.sample(*key).uniform(low, high)

    def normal(self, key: Tuple[Union[str, int], ...], mean: float = 0.0,
               std: float = 1.0) -> float:
        return self.sample(*key).normal(mean, std)

    def chance(self, key: Tuple[Union[str, int], ...], probability: float) -> bool:
        return self.sample(*key).chance(probability)
