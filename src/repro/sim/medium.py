"""Radio propagation model.

A :class:`RadioMedium` computes, for each transmission, which nodes can
hear it and at what RSSI, using the standard log-distance path-loss
model with log-normal shadowing::

    rssi(d) = tx_power - (pl_d0 + 10 * exponent * log10(d / d0)) + X_sigma

A frame is receivable when its RSSI is at or above the medium's receiver
sensitivity.  Radio range is therefore an emergent property of the
path-loss parameters, which keeps single-hop vs multi-hop topologies
honest: a "multi-hop" network is simply one whose nodes are physically
placed so that the sensitivity threshold forces intermediate forwarders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.net.packets.base import Medium
from repro.util.rng import HashedBlock, HashedStream, SeededRng, encode_key_part

#: Shadowing draws are clamped to this many sigmas.  The clamp makes
#: the spatial cull *provably* lossless: beyond the distance where
#: ``mean_rssi + SHADOWING_CULL_SIGMAS * sigma`` crosses the
#: sensitivity floor, no draw can ever make a frame receivable, so
#: culling those candidates cannot change the reception set.  At six
#: sigmas the truncated tail has probability ~1e-9 per draw — far
#: below one clamped draw per simulated year of traffic.
SHADOWING_CULL_SIGMAS = 6.0


def receiver_tail(receiver_id) -> bytes:
    """The pre-encoded hashed-stream tail for one receiver.

    This is the final key part :meth:`RadioMedium.pair_sample_block`
    hashes for the receiver; the engine caches it per node (ids are
    immutable) so the hot path skips per-frame re-encoding.
    """
    return encode_key_part(str(receiver_id))


@dataclass(frozen=True)
class PathLossParams:
    """Parameters of the log-distance path-loss model for one medium.

    :param tx_power_dbm: transmit power.
    :param pl_d0_db: path loss at the reference distance ``d0``.
    :param exponent: path-loss exponent (2 free space, ~3 indoors).
    :param d0_m: reference distance in metres.
    :param sensitivity_dbm: minimum RSSI at which reception succeeds.
    :param shadowing_sigma_db: std-dev of log-normal shadowing.
    """

    tx_power_dbm: float = 0.0
    pl_d0_db: float = 40.0
    exponent: float = 3.0
    d0_m: float = 1.0
    sensitivity_dbm: float = -90.0
    shadowing_sigma_db: float = 1.5

    def mean_rssi(self, distance_m: float) -> float:
        """Deterministic (shadowing-free) RSSI at a given distance.

        Distances below the reference distance ``d0_m`` clamp to it:
        the log-distance model is only calibrated from ``d0`` outward,
        and letting ``log10(d/d0)`` go negative would hand sub-``d0``
        receivers *negative* path loss (RSSI above transmit power).
        The log goes through numpy's kernel so this stays bit-identical
        to :meth:`mean_rssi_block` (libm's ``log10`` differs by an ulp
        on some inputs).
        """
        clamped = max(distance_m, self.d0_m)
        path_loss = self.pl_d0_db + 10.0 * self.exponent * float(
            np.log10(clamped / self.d0_m)
        )
        return self.tx_power_dbm - path_loss

    def mean_rssi_block(self, distances_m: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`mean_rssi`, bit-identical per element."""
        clamped = np.maximum(distances_m, self.d0_m)
        # x / 1.0 == x bit-for-bit; skip the ufunc pass for the common
        # 1 m reference distance.
        ratio = clamped if self.d0_m == 1.0 else clamped / self.d0_m
        path_loss = self.pl_d0_db + (10.0 * self.exponent) * np.log10(ratio)
        return self.tx_power_dbm - path_loss

    def max_range_m(self, margin_db: float = 0.0) -> float:
        """Distance at which mean RSSI crosses the sensitivity floor.

        With ``margin_db`` the floor is lowered by that many dB, giving
        the distance beyond which not even a ``margin_db`` shadowing
        boost can make a frame receivable.  Near-zero path-loss
        exponents (the wired pseudo-medium) overflow the exponential —
        those return ``inf``, meaning "everything is in range".
        """
        budget = self.tx_power_dbm - self.sensitivity_dbm - self.pl_d0_db + margin_db
        try:
            return self.d0_m * 10.0 ** (budget / (10.0 * self.exponent))
        except OverflowError:
            return math.inf


#: Defaults per medium, roughly matching commodity hardware:
#: 802.15.4 motes (0 dBm, ~-90 dBm sensitivity, short range),
#: home WiFi (20 dBm, longer range), BLE (0 dBm, short range).
DEFAULT_PARAMS = {
    Medium.IEEE_802_15_4: PathLossParams(
        tx_power_dbm=0.0,
        pl_d0_db=40.0,
        exponent=3.0,
        sensitivity_dbm=-90.0,
        shadowing_sigma_db=1.5,
    ),
    Medium.WIFI: PathLossParams(
        tx_power_dbm=20.0,
        pl_d0_db=40.0,
        exponent=3.0,
        sensitivity_dbm=-85.0,
        shadowing_sigma_db=2.0,
    ),
    Medium.BLUETOOTH: PathLossParams(
        tx_power_dbm=0.0,
        pl_d0_db=40.0,
        exponent=3.0,
        sensitivity_dbm=-80.0,
        shadowing_sigma_db=2.0,
    ),
    Medium.WIRED: PathLossParams(
        tx_power_dbm=0.0,
        pl_d0_db=0.0,
        exponent=0.01,
        sensitivity_dbm=-100.0,
        shadowing_sigma_db=0.0,
    ),
}


class RadioMedium:
    """Propagation and loss model for one physical medium."""

    def __init__(
        self,
        medium: Medium,
        params: Optional[PathLossParams] = None,
        rng: Optional[SeededRng] = None,
        base_loss_probability: float = 0.0,
    ) -> None:
        if params is None:
            params = DEFAULT_PARAMS[medium]
        if not 0.0 <= base_loss_probability < 1.0:
            raise ValueError(
                f"base_loss_probability must be in [0, 1), got {base_loss_probability}"
            )
        self.medium = medium
        self.params = params
        self._rng = rng if rng is not None else SeededRng(0, "medium", medium.value)
        #: Order-independent per-(sender, receiver, sequence) draws for
        #: frame delivery; seeded from the medium's stream seed so one
        #: simulator seed still pins every draw.
        self._pairwise = HashedStream(self._rng.seed, "pairwise")
        self._cull_range_m = params.max_range_m(
            margin_db=SHADOWING_CULL_SIGMAS * params.shadowing_sigma_db
        )
        self.base_loss_probability = base_loss_probability
        #: Extra loss injected by environment effects (e.g. jamming attack).
        self.interference_loss_probability = 0.0

    def cull_range_m(self) -> float:
        """Distance beyond which reception is impossible even with the
        maximum (clamped) shadowing boost; ``inf`` for wired media."""
        return self._cull_range_m

    def pair_sample_block(
        self, sender_id, sequence: int, encoded_tails: Sequence[bytes]
    ) -> HashedBlock:
        """Draw budgets for every (sender, receiver, transmission) pair,
        one per receiver, hashed in a single pass over the candidates.

        The type-tagged key is ``(sender, sequence, receiver)``: sender
        and sequence form the shared per-transmission prefix, and each
        receiver is a tail from :func:`receiver_tail`, pre-encoded and
        cached by the engine so the hot path skips per-frame key
        encoding.
        """
        return self._pairwise.sample_block(
            (str(sender_id), int(sequence)), encoded_tails, encoded=True
        )

    def pair_rssi_block(self, block: HashedBlock, mean: np.ndarray) -> np.ndarray:
        """RSSI for every pair in a candidate block, given its mean RSSI.

        ``mean`` is :meth:`PathLossParams.mean_rssi_block` over the
        candidates' distances; the engine caches it per (sender,
        topology version) since it only changes when something moves.
        Shadowing is Box-Muller over draw columns 0 and 1 of
        :attr:`HashedBlock.units`, clamped to ±``SHADOWING_CULL_SIGMAS``.
        With ``sigma <= 0`` no draw words are consumed and the returned
        array *is* ``mean``, so treat it as read-only.
        """
        sigma = self.params.shadowing_sigma_db
        if sigma <= 0:
            return mean
        units = block.units
        radius = np.sqrt(-2.0 * np.log(1.0 - units[:, 0]))
        shadowing = radius * np.cos(2.0 * math.pi * units[:, 1])
        # Two ufuncs clamp like np.clip, whose dispatch costs more than
        # the clamp: 1 - u lies in (0, 1], so shadowing is never NaN.
        np.maximum(shadowing, -SHADOWING_CULL_SIGMAS, out=shadowing)
        np.minimum(shadowing, SHADOWING_CULL_SIGMAS, out=shadowing)
        return mean + shadowing * sigma

    def pair_frame_lost_block(self, block: HashedBlock) -> np.ndarray:
        """Loss decision for every pair in a candidate block.

        The loss uniform is draw word 2 when shadowing consumed words
        0–1, or word 0 when ``sigma <= 0`` left the budget untouched.
        ``loss <= 0`` and the certain-drop ``loss >= 1`` branches
        consume no draw at all.
        """
        loss = self.base_loss_probability + self.interference_loss_probability
        if loss <= 0.0:
            return np.zeros(len(block), dtype=bool)
        if loss >= 1.0:
            return np.ones(len(block), dtype=bool)
        column = 2 if self.params.shadowing_sigma_db > 0 else 0
        return block.uniforms(column) < loss

    def set_interference(self, loss_probability: float) -> None:
        """Set environment-induced loss (used by the jamming attack)."""
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1], got {loss_probability}"
            )
        self.interference_loss_probability = loss_probability
