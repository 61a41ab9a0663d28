"""Airtime arithmetic, the binary-disc channel, CCA, and collision rules."""

import pytest

from wpansim.kernel import SimulationError
from wpansim.phy import (ACK_AIRTIME, BEACON_AIRTIME, CCA_DURATION, FrameKind,
                         Medium, TURNAROUND, Transmission, UNIT_BACKOFF,
                         data_frame_airtime, frame_airtime)


def test_airtime_oracles():
    assert data_frame_airtime(60) == 154     # 60 B payload + 11 B MAC + 6 B PHY
    assert ACK_AIRTIME == 22
    assert BEACON_AIRTIME == 38
    assert frame_airtime(127) == 266         # largest PHY packet
    assert TURNAROUND == 12
    assert CCA_DURATION == 8
    assert UNIT_BACKOFF == 20


def test_airtime_is_linear_in_bytes():
    for n in range(0, 100, 7):
        assert frame_airtime(n + 1) - frame_airtime(n) == 2
    with pytest.raises(ValueError):
        frame_airtime(-1)
    with pytest.raises(ValueError):
        data_frame_airtime(-1)


def _medium_with(*nodes):
    med = Medium()
    for node_id, x, y in nodes:
        med.add_node(node_id, x, y)
    return med


def _data(src, airtime=154, pkt=1):
    return Transmission(FrameKind.DATA, src, airtime, pkt)


def test_in_range_is_a_closed_disc():
    med = _medium_with((0, 0, 0), (1, 176, 0), (2, 176.01, 0), (3, 50, 0))
    assert 1 in med._hears[0]       # exactly at the radius
    assert 2 not in med._hears[0]
    assert 3 in med._hears[0]


def test_duplicate_node_registration_rejected():
    med = _medium_with((0, 0, 0))
    with pytest.raises(ValueError):
        med.add_node(0)


def test_lone_frame_heard_intact():
    med = _medium_with((0, 0, 0), (1, 50, 0))
    tx = med.begin_tx(_data(1), 100)
    med.end_tx(tx, 254)
    assert med.heard_intact(tx, 0)
    assert not med.heard_intact(tx, 1)   # own frame


def test_any_overlap_corrupts_both_frames():
    med = _medium_with((0, 0, 0), (1, 50, 0), (2, -50, 0))
    tx1 = med.begin_tx(_data(1, pkt=1), 100)
    tx2 = med.begin_tx(_data(2, pkt=2), 253)   # one symbol before tx1 ends
    med.end_tx(tx1, 254)
    med.end_tx(tx2, 407)
    assert not med.heard_intact(tx1, 0)
    assert not med.heard_intact(tx2, 0)


def test_back_to_back_frames_do_not_overlap():
    # Intervals are half-open: a frame starting exactly when another ends is clean.
    med = _medium_with((0, 0, 0), (1, 50, 0), (2, -50, 0))
    tx1 = med.begin_tx(_data(1, pkt=1), 100)
    med.end_tx(tx1, 254)
    tx2 = med.begin_tx(_data(2, pkt=2), 254)
    med.end_tx(tx2, 408)
    assert med.heard_intact(tx1, 0)
    assert med.heard_intact(tx2, 0)


def test_out_of_range_transmitters_do_not_collide():
    # Two sources both audible at nobody in common: each side hears its own.
    med = _medium_with((0, 0, 0), (1, 100, 0), (2, -100, 0), (3, -200, 0))
    tx1 = med.begin_tx(_data(1, pkt=1), 0)
    tx2 = med.begin_tx(Transmission(FrameKind.DATA, 3, 154, 2), 0)
    med.end_tx(tx1, 154)
    med.end_tx(tx2, 154)
    assert med.heard_intact(tx1, 0)          # node 3 is 376 m away from 0
    assert med.heard_intact(tx2, 2)          # node 1 is 300 m away from 2
    assert not med.heard_intact(tx1, 3)      # out of range entirely


def test_sleeping_with_a_frame_on_the_air_raises():
    med = _medium_with((0, 0, 0), (1, 50, 0))
    med.begin_tx(_data(1), 0)
    with pytest.raises(SimulationError):
        med.set_awake(False, 100)


def test_sleeping_exactly_at_frame_end_still_hears_it():
    med = _medium_with((0, 0, 0), (1, 50, 0))
    tx = med.begin_tx(_data(1), 0)
    med.set_awake(False, 154)
    med.end_tx(tx, 154)
    assert med.heard_intact(tx, 0)


def test_receiver_transmitting_during_frame_is_deaf():
    med = _medium_with((0, 0, 0), (1, 50, 0), (2, -50, 0))
    own = med.begin_tx(_data(0, pkt=9), 0)
    tx = med.begin_tx(_data(1, pkt=1), 50)
    med.end_tx(own, 154)
    med.end_tx(tx, 204)
    assert not med.heard_intact(tx, 0)


def test_protocol_violations_raise():
    med = _medium_with((0, 0, 0), (1, 50, 0))
    tx = med.begin_tx(_data(1), 0)
    with pytest.raises(SimulationError):
        med.begin_tx(_data(1, pkt=2), 50)      # already transmitting
    with pytest.raises(SimulationError):
        med.end_tx(tx, 100)                    # wrong end time
    med.end_tx(tx, 154)
    med.set_awake(False, 200)
    with pytest.raises(SimulationError):
        med.begin_tx(_data(0, pkt=3), 200)     # transmitting while asleep
    with pytest.raises(SimulationError):
        med.cca_busy(0, 300)                   # sensing while asleep


def test_a_sender_whose_collided_frame_is_on_the_air_cannot_start_another():
    med = _medium_with((0, 0, 0), (1, 50, 0))
    med.begin_tx(_data(0, pkt=1), 0)
    med.begin_tx(_data(1, pkt=2), 50)          # overlaps node 0's frame
    with pytest.raises(SimulationError):
        med.begin_tx(_data(1, pkt=3), 100)


def test_a_sender_may_start_a_frame_as_its_last_one_ends():
    # As in set_awake, an own frame ending exactly now has finished even
    # before end_tx closes it; closing it then leaves the new frame current.
    med = _medium_with((0, 0, 0), (1, 50, 0))
    ack = med.begin_tx(Transmission(FrameKind.ACK, 0, ACK_AIRTIME, 1), 0)
    beacon = med.begin_tx(Transmission(FrameKind.BEACON, 0, BEACON_AIRTIME), 22)
    med.end_tx(ack, 22)
    assert med.heard_intact(ack, 1)
    with pytest.raises(SimulationError):
        med.begin_tx(_data(0, pkt=2), 30)      # the beacon is still on the air
    med.end_tx(beacon, 60)
    assert med.heard_intact(beacon, 1)


def test_cca_busy_during_and_just_after_a_frame():
    med = _medium_with((0, 0, 0), (1, 50, 0), (2, -50, 0))
    tx = med.begin_tx(_data(1), 100)
    assert med.cca_busy(2, 120)                # mid-frame
    assert med.cca_busy(0, 254)                # window [246, 254) overlaps
    med.end_tx(tx, 254)
    assert med.cca_busy(2, 258)                # window [250, 254) still busy
    assert med.cca_busy(2, 261)                # window [253, 254)
    assert not med.cca_busy(2, 262)            # window [254, 262): frame gone


def test_cca_idle_on_quiet_or_distant_channel():
    med = _medium_with((0, 0, 0), (1, 50, 0), (2, 300, 0))
    assert not med.cca_busy(0, 50)
    tx = med.begin_tx(_data(2), 10)     # 250 m from node 0
    assert not med.cca_busy(0, 50)
    assert med.cca_busy(1, 50) == (2 in med._hears[1])
    med.end_tx(tx, 164)


def test_own_transmission_does_not_trip_own_cca():
    med = _medium_with((0, 0, 0), (1, 50, 0))
    med.begin_tx(_data(1), 0)
    assert not med.cca_busy(1, 100)
