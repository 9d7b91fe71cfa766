"""Tests for the radio propagation model."""

import math

import numpy as np
import pytest

from repro.net.packets.base import Medium
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.engine import Simulator
from repro.sim.medium import (
    DEFAULT_PARAMS,
    SHADOWING_CULL_SIGMAS,
    PathLossParams,
    RadioMedium,
    receiver_tail,
)
from repro.sim.node import SimNode
from repro.util.ids import NodeId
from repro.util.rng import HashedBlock, HashedDraws, HashedStream, SeededRng
from tests.sim_reference import pair_lost, pair_rssi


class TestPathLossParams:
    def test_mean_rssi_decreases_with_distance(self):
        params = DEFAULT_PARAMS[Medium.IEEE_802_15_4]
        assert params.mean_rssi(10.0) > params.mean_rssi(20.0) > params.mean_rssi(40.0)

    def test_mean_rssi_formula(self):
        params = PathLossParams(
            tx_power_dbm=0.0, pl_d0_db=40.0, exponent=3.0, d0_m=1.0
        )
        expected = -40.0 - 30.0 * math.log10(10.0)
        assert params.mean_rssi(10.0) == pytest.approx(expected)

    def test_max_range_crosses_sensitivity(self):
        params = DEFAULT_PARAMS[Medium.IEEE_802_15_4]
        edge = params.max_range_m()
        assert params.mean_rssi(edge) == pytest.approx(params.sensitivity_dbm, abs=0.01)
        assert params.mean_rssi(edge * 1.1) < params.sensitivity_dbm

    def test_tiny_distances_clamped(self):
        params = DEFAULT_PARAMS[Medium.WIFI]
        assert params.mean_rssi(0.0) == params.mean_rssi(0.05)

    def test_sub_d0_clamps_to_d0_not_hardcoded_floor(self):
        """Regression: the clamp used to be a hardcoded 0.1 m, so with
        the default d0_m=1.0 a sub-metre receiver saw *negative* path
        loss — RSSI above transmit power."""
        params = PathLossParams(
            tx_power_dbm=0.0, pl_d0_db=40.0, exponent=3.0, d0_m=1.0
        )
        # At distance 0 the model clamps to d0: exactly the d0 path loss.
        assert params.mean_rssi(0.0) == params.mean_rssi(params.d0_m)
        assert params.mean_rssi(0.0) == pytest.approx(-40.0)
        # Everything at or inside d0 is flat; never above tx - pl_d0.
        for distance in (0.0, 0.05, 0.1, 0.5, 1.0):
            assert params.mean_rssi(distance) == pytest.approx(-40.0)
            assert params.mean_rssi(distance) <= params.tx_power_dbm

    def test_mean_rssi_block_matches_scalar_bitwise(self):
        params = DEFAULT_PARAMS[Medium.IEEE_802_15_4]
        distances = np.array([0.0, 0.3, 1.0, 2.5, 17.0, 63.2, 1e4])
        batch = params.mean_rssi_block(distances)
        for index, distance in enumerate(distances):
            assert batch[index] == params.mean_rssi(float(distance))

    def test_wifi_outranges_802154(self):
        wifi = DEFAULT_PARAMS[Medium.WIFI].max_range_m()
        wpan = DEFAULT_PARAMS[Medium.IEEE_802_15_4].max_range_m()
        assert wifi > wpan


def _tails(receivers):
    return [receiver_tail(receiver) for receiver in receivers]


def _draws(medium, sender, sequence, receiver):
    """The reference's scalar draw budget for one pair."""
    return HashedStream(medium._pairwise.seed).sample(sender, sequence, receiver)


def _rssi(medium, block, distance):
    mean = medium.params.mean_rssi_block(np.full(len(block), float(distance)))
    return medium.pair_rssi_block(block, mean)


class TestPairSampling:
    """Order-independent per-(sender, receiver, sequence) draws: the
    block methods against the reference's per-pair values."""

    def test_same_key_same_rssi(self):
        medium = RadioMedium(Medium.IEEE_802_15_4, rng=SeededRng(4))
        first = _rssi(medium, medium.pair_sample_block("a", 7, _tails(["b"])), 20.0)
        again = _rssi(medium, medium.pair_sample_block("a", 7, _tails(["b"])), 20.0)
        assert first[0] == again[0]
        assert first[0] == pair_rssi(medium.params, 20.0, _draws(medium, "a", 7, "b"))

    def test_distinct_keys_distinct_draws(self):
        medium = RadioMedium(Medium.IEEE_802_15_4, rng=SeededRng(4))
        values = {
            float(_rssi(medium, medium.pair_sample_block(s, q, _tails([r])), 20.0)[0])
            for s, r, q in [("a", "b", 1), ("a", "b", 2), ("a", "c", 1), ("b", "a", 1)]
        }
        assert len(values) == 4

    def test_pair_rssi_clamped_to_cull_margin(self):
        """Shadowing clamps at ±6σ: over many ordinary draws, and on
        hand-built extreme digests whose Box-Muller value is ±8.6σ."""
        medium = RadioMedium(Medium.IEEE_802_15_4, rng=SeededRng(4))
        params = medium.params
        bound = SHADOWING_CULL_SIGMAS * params.shadowing_sigma_db
        receivers = [f"r{index}" for index in range(2000)]
        rssi = _rssi(medium, medium.pair_sample_block("a", 1, _tails(receivers)), 20.0)
        assert (abs(rssi - params.mean_rssi(20.0)) <= bound + 1e-9).all()
        # Word 0 all ones puts u1 at 1 - 2**-53 (radius ~8.6); word 1
        # picks the angle: 0 for +8.6σ, 0.5 turn for -8.6σ.
        top = b"\xff" * 8
        digests = [top + bytes(24), top + b"\x80" + bytes(23)]
        extreme = HashedBlock(b"".join(digests), len(digests))
        clamped = _rssi(medium, extreme, 20.0)
        mean = params.mean_rssi(20.0)
        assert list(clamped) == [mean + bound, mean - bound]
        for row, digest in enumerate(digests):
            assert clamped[row] == pair_rssi(params, 20.0, HashedDraws(digest))

    def test_pair_frame_lost_matches_probability(self):
        medium = RadioMedium(
            Medium.WIFI, rng=SeededRng(4), base_loss_probability=0.5
        )
        receivers = [f"r{index}" for index in range(500)]
        block = medium.pair_sample_block("a", 1, _tails(receivers))
        losses = int(medium.pair_frame_lost_block(block).sum())
        assert 150 < losses < 350

    def test_pair_certain_loss_and_zero_loss_skip_draws(self):
        medium = RadioMedium(Medium.WIFI, rng=SeededRng(4))
        block = medium.pair_sample_block("a", 1, _tails(["b"]))
        draws = _draws(medium, "a", 1, "b")
        assert not medium.pair_frame_lost_block(block)[0]  # loss == 0
        assert not pair_lost(0.0, draws)  # ...and no draw
        medium.set_interference(1.0)
        assert medium.pair_frame_lost_block(block)[0]  # loss >= 1
        assert pair_lost(1.0, draws)  # ...and no draw
        # The full budget is still available afterwards.
        draws.normal()
        draws.uniform()
        draws.uniform()

    def test_cull_range_exceeds_mean_range(self):
        medium = RadioMedium(Medium.IEEE_802_15_4, rng=SeededRng(4))
        assert medium.cull_range_m() > medium.params.max_range_m()

    def test_pair_rssi_block_bit_identical_to_scalar(self):
        medium = RadioMedium(Medium.IEEE_802_15_4, rng=SeededRng(4))
        receivers = [f"r{index}" for index in range(64)]
        distances = np.linspace(0.0, 120.0, 64)
        block = medium.pair_sample_block("sender", 9, _tails(receivers))
        batch = medium.pair_rssi_block(block, medium.params.mean_rssi_block(distances))
        for index, receiver in enumerate(receivers):
            draws = _draws(medium, "sender", 9, receiver)
            assert batch[index] == pair_rssi(medium.params, float(distances[index]), draws)

    def test_pair_frame_lost_block_bit_identical_to_scalar(self):
        medium = RadioMedium(
            Medium.WIFI, rng=SeededRng(4), base_loss_probability=0.4
        )
        receivers = [f"r{index}" for index in range(200)]
        block = medium.pair_sample_block("sender", 3, _tails(receivers))
        lost = medium.pair_frame_lost_block(block)
        for index, receiver in enumerate(receivers):
            draws = _draws(medium, "sender", 3, receiver)
            # Shadowing is consumed first, so the reference's loss draw
            # lines up with the block's loss column.
            pair_rssi(medium.params, 25.0, draws)
            assert bool(lost[index]) == pair_lost(0.4, draws)
        assert 0 < int(lost.sum()) < len(receivers)

    def test_pair_frame_lost_block_degenerate_branches(self):
        medium = RadioMedium(Medium.WIFI, rng=SeededRng(4))
        block = medium.pair_sample_block("s", 1, _tails(["a", "b", "c"]))
        assert not medium.pair_frame_lost_block(block).any()  # loss == 0
        medium.set_interference(1.0)
        assert medium.pair_frame_lost_block(block).all()  # certain drop

    def test_pair_frame_lost_block_zero_sigma_uses_first_word(self):
        """With sigma == 0 shadowing consumes nothing, so the loss
        uniform is draw word 0 — in both the reference and the block."""
        params = PathLossParams(shadowing_sigma_db=0.0)
        medium = RadioMedium(
            Medium.WIFI, params=params, rng=SeededRng(4),
            base_loss_probability=0.3,
        )
        receivers = [f"r{index}" for index in range(100)]
        block = medium.pair_sample_block("s", 5, _tails(receivers))
        rssi = _rssi(medium, block, 10.0)
        assert (rssi == params.mean_rssi(10.0)).all()
        lost = medium.pair_frame_lost_block(block)
        for index, receiver in enumerate(receivers):
            draws = _draws(medium, "s", 5, receiver)
            assert pair_rssi(params, 10.0, draws) == params.mean_rssi(10.0)
            assert bool(lost[index]) == pair_lost(0.3, draws)


def _link(params=None, loss=0.0, receiver_at=5.0):
    """One sender and one receiver ``receiver_at`` metres apart."""
    sim = Simulator(seed=3)
    sim.set_medium(
        RadioMedium(
            Medium.IEEE_802_15_4, params=params, rng=SeededRng(3),
            base_loss_probability=loss,
        )
    )
    sender = sim.add_node(SimNode(NodeId("s"), (0.0, 0.0), (Medium.IEEE_802_15_4,)))
    sim.add_node(SimNode(NodeId("r"), (receiver_at, 0.0), (Medium.IEEE_802_15_4,)))
    sim.run_until(0.0)
    return sim, sender


def _receptions(sim, sender, frames):
    heard = []
    for sequence in range(frames):
        frame = Ieee802154Frame(pan_id=1, seq=sequence % 256, src=sender.node_id, dst=None)
        heard.append(sender.send(Medium.IEEE_802_15_4, frame))
        sim.run(0.01)
    return heard


class TestRadioMedium:
    def test_shadowing_varies_samples(self):
        medium = RadioMedium(Medium.WIFI, rng=SeededRng(1))
        block = medium.pair_sample_block("a", 1, _tails([f"r{i}" for i in range(10)]))
        assert len(set(_rssi(medium, block, 20.0).tolist())) > 1

    def test_zero_sigma_is_deterministic(self):
        params = PathLossParams(shadowing_sigma_db=0.0)
        medium = RadioMedium(Medium.WIFI, params=params, rng=SeededRng(1))
        block = medium.pair_sample_block("a", 1, _tails(["b", "c"]))
        assert (_rssi(medium, block, 20.0) == params.mean_rssi(20.0)).all()

    def test_receivable_threshold(self):
        """A frame is heard at mean RSSI -89.9 dBm and not at -90.1."""
        params = PathLossParams(shadowing_sigma_db=0.0)
        for rssi, heard in ((-89.9, 1), (-90.1, 0)):
            distance = 10.0 ** ((-40.0 - rssi) / 30.0)
            sim, sender = _link(params, receiver_at=distance)
            assert _receptions(sim, sender, 1) == [heard]

    def test_no_loss_by_default(self):
        sim, sender = _link()
        assert _receptions(sim, sender, 100) == [1] * 100

    def test_base_loss_probability(self):
        sim, sender = _link(loss=0.5)
        assert 150 < sum(_receptions(sim, sender, 500)) < 350

    def test_interference_injection(self):
        sim, sender = _link()
        sim.medium(Medium.IEEE_802_15_4).set_interference(1.0)
        # A saturating jammer is a certain drop — no ~0.1% leak.
        assert _receptions(sim, sender, 100) == [0] * 100

    def test_certain_loss_consumes_no_draw(self):
        """Frames after a total blackout hear exactly what they would
        have heard without it: draws are keyed per frame, so a blackout
        cannot perturb later ones."""
        def after(blackout):
            sim, sender = _link(loss=0.5)
            medium = sim.medium(Medium.IEEE_802_15_4)
            medium.set_interference(1.0 if blackout else 0.0)
            _receptions(sim, sender, 137)
            medium.set_interference(0.0)
            return _receptions(sim, sender, 50)

        assert after(blackout=True) == after(blackout=False)

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            RadioMedium(Medium.WIFI, base_loss_probability=1.0)
        medium = RadioMedium(Medium.WIFI)
        with pytest.raises(ValueError):
            medium.set_interference(1.5)
