"""End-to-end star-network runs: delivery timing, drop accounting,
stop conditions, determinism, and beacon-mode structure."""

import hashlib
from io import StringIO

import pytest

from wpansim.csma import CsmaParams, DropReason
from wpansim.experiment import write_metrics_csv
from wpansim.kernel import SimulationError, seconds_to_symbols
from wpansim.metrics import write_packet_log
from wpansim.network import StarNetwork
from wpansim.phy import (ACK_AIRTIME, CCA_DURATION, TURNAROUND, UNIT_BACKOFF,
                         data_frame_airtime)
from wpansim.scenario import ScenarioSpec
from wpansim.superframe import SuperframeSchedule
from wpansim.trace import MacTrace

# A lone device with acknowledgements completes one transaction in
# CCA (8) + data frame for 60 B (154) + turnaround (12) + ACK (22) symbols
# past the end of its random backoff.
LONE_TX_TAIL = 8 + 154 + 12 + 22


def test_lone_device_delivers_everything_on_schedule():
    result = StarNetwork(n_devices=1, msdu=60, interval_s=1.0,
                         distribution="periodic", quota=50, seed=7).run()
    m = result.metrics
    assert m.generated == 50 and m.delivered == 50
    assert m.packet_loss_rate == 0.0
    assert m.unresolved == 0
    allowed = {LONE_TX_TAIL + 20 * k for k in range(8)}   # BE=3: 0..7 units
    assert {rec.rx_time - rec.gen_time for rec in result.log} <= allowed
    # Periodic arrivals land exactly one second apart per the symbol clock.
    gens = [rec.gen_time for rec in result.log]
    assert all(b - a == 62500 for a, b in zip(gens, gens[1:]))


def test_ackless_mode_delivers_at_frame_end():
    result = StarNetwork(n_devices=1, msdu=60, interval_s=1.0,
                         distribution="periodic", quota=10, seed=7,
                         csma_params=CsmaParams(ack_enabled=False)).run()
    assert result.metrics.delivered == 10
    allowed = {8 + 154 + 20 * k for k in range(8)}        # no turnaround/ACK
    assert {rec.rx_time - rec.gen_time for rec in result.log} <= allowed


def test_same_seed_reproduces_the_packet_log_exactly():
    def go():
        return StarNetwork(n_devices=8, msdu=60, interval_s=0.02,
                           quota=40, seed=123).run()
    a, b = go(), go()
    assert a.log == b.log
    assert a.metrics == b.metrics
    c = StarNetwork(n_devices=8, msdu=60, interval_s=0.02,
                    quota=40, seed=124).run()
    assert c.log != a.log


def test_saturation_produces_every_drop_kind():
    # A 100 m circle puts diametrically opposite devices out of carrier-sense
    # range of each other, so colliding retransmissions can exhaust retries
    # alongside the queue and channel-access drops that load alone causes.
    result = StarNetwork(n_devices=16, msdu=100, interval_s=0.005,
                         quota=60, seed=11, circle_radius_m=100.0).run()
    m = result.metrics
    assert m.dropped_queue_overflow > 0
    assert m.dropped_channel_access > 0
    assert m.dropped_retry_exhausted > 0
    assert m.generated == 16 * 60
    assert (m.delivered + m.dropped_queue_overflow + m.dropped_channel_access
            + m.dropped_retry_exhausted + m.unresolved) == m.generated


def test_timed_run_stops_exactly_and_closes_open_packets():
    result = StarNetwork(n_devices=8, msdu=60, interval_s=0.01,
                         run_time_s=0.5, seed=3).run()
    assert result.summary.end_time == seconds_to_symbols(0.5) == 31250
    assert result.metrics.t_end_symbols == 31250
    m = result.metrics
    assert m.unresolved > 0       # something was always in flight
    assert all(rec.rx_time is not None or rec.drop_reason is not None
               for rec in result.log)


def test_quota_run_resolves_every_packet():
    result = StarNetwork(n_devices=4, msdu=60, interval_s=0.02,
                         quota=25, seed=9).run()
    m = result.metrics
    assert m.generated == 100
    assert m.unresolved == 0
    assert m.delivered + (m.dropped_queue_overflow + m.dropped_channel_access
                          + m.dropped_retry_exhausted) == 100


def test_quota_run_whose_events_run_dry_is_an_error(monkeypatch):
    # A handler that loses its event strands the packet it served; the run
    # must not close the stranded packets as unresolved_at_end and pass.
    monkeypatch.setattr(StarNetwork, "_on_ack_timeout", lambda self, dev: None)
    net = StarNetwork(n_devices=8, msdu=60, interval_s=0.01, quota=50, seed=3)
    with pytest.raises(SimulationError, match="quota unmet"):
        net.run()


def test_beacon_quota_run_whose_events_run_dry_is_an_error(monkeypatch):
    # Superframes keep rescheduling themselves; once no device event is left
    # they must stop too, or the run never ends.
    monkeypatch.setattr(StarNetwork, "_on_ack_timeout", lambda self, dev: None)
    net = StarNetwork(mode="beacon", bo=4, so=3, n_devices=8, msdu=60,
                      interval_s=0.01, quota=50, seed=3)
    with pytest.raises(SimulationError, match="quota unmet"):
        net.run()


def test_slotted_transactions_end_by_the_cap_end_and_may_end_on_it():
    # At 66 B, data + turnaround + ACK is 200 symbols, on the 20-symbol grid,
    # so a transaction can end exactly on a CAP end.
    transaction = data_frame_airtime(66) + TURNAROUND + ACK_AIRTIME
    assert transaction == 200
    trace = MacTrace()
    StarNetwork(mode="beacon", bo=2, so=1, n_devices=8, msdu=66, interval_s=0.01,
                run_time_s=10.0, seed=5, trace=trace).run()
    schedule = SuperframeSchedule(2, 1)
    flush = 0
    for ev in trace.of_kind("tx-start"):
        cap_end = schedule.cap_end_for(ev.time)
        assert ev.time + transaction <= cap_end
        flush += ev.time + transaction == cap_end
    assert flush > 0
    defers = trace.of_kind("defer")
    assert defers
    for ev in defers:
        # The deferred frame would have gone out on the next boundary.
        tx_start = ev.time + UNIT_BACKOFF - CCA_DURATION
        assert tx_start + transaction > schedule.cap_end_for(ev.time)


def test_zero_capacity_queue_drops_every_arrival_while_busy():
    result = StarNetwork(n_devices=1, msdu=118, interval_s=0.0008,
                         queue_capacity=0, quota=200, seed=5).run()
    m = result.metrics
    assert m.dropped_queue_overflow > 0
    # Whatever is not dropped on arrival went straight into service.
    assert m.dropped_queue_overflow + m.delivered \
        + m.dropped_channel_access + m.dropped_retry_exhausted == 200


def test_unbounded_queue_never_overflows():
    result = StarNetwork(n_devices=8, msdu=100, interval_s=0.002,
                         queue_capacity=None, quota=50, seed=5).run()
    assert result.metrics.dropped_queue_overflow == 0


def test_beacon_mode_runs_a_superframe_cadence():
    trace = MacTrace()
    result = StarNetwork(mode="beacon", n_devices=4, msdu=60,
                         interval_s=0.05, bo=3, so=2, quota=20, seed=21,
                         trace=trace).run()
    assert result.metrics.delivered > 0
    bi = 960 * 2 ** 3
    beacons = [ev.time for ev in trace.of_kind("beacon-start")]
    assert beacons[:4] == [0, bi, 2 * bi, 3 * bi]
    # Half duty cycle: the coordinator announces sleep each superframe.
    sleeps = [ev.time for ev in trace.of_kind("sleep")]
    assert sleeps and all(t % bi == 960 * 2 ** 2 for t in sleeps)


def test_beacon_mode_with_full_duty_cycle_never_sleeps():
    trace = MacTrace()
    StarNetwork(mode="beacon", n_devices=2, msdu=60, interval_s=0.05,
                bo=2, so=2, quota=10, seed=22, trace=trace).run()
    assert not trace.of_kind("sleep")


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        StarNetwork(msdu=119, quota=1)                  # above the MSDU cap
    with pytest.raises(ValueError):
        StarNetwork(msdu=0, quota=1)
    with pytest.raises(ValueError):
        StarNetwork(mode="beacon", bo=3, so=4, quota=1)  # SO above BO
    with pytest.raises(ValueError):
        StarNetwork(mode="nonbeacon", bo=3, so=2, quota=1)
    with pytest.raises(ValueError):
        StarNetwork(n_devices=0, quota=1)
    with pytest.raises(ValueError):
        StarNetwork(interval_s=0.0, quota=1)
    with pytest.raises(ValueError):
        StarNetwork(quota=None, run_time_s=None)         # no stop condition
    with pytest.raises(ValueError):
        StarNetwork(distribution="uniform", quota=1)


def test_deadline_stops_the_run_at_exactly_run_time_s():
    result = StarNetwork(n_devices=1, msdu=60, interval_s=1.0,
                         distribution="periodic", run_time_s=2.5,
                         seed=2).run()
    assert result.summary.end_time == seconds_to_symbols(2.5)
    assert result.metrics.delivered == 2     # arrivals at 1 s and 2 s
    # Exactly one stop condition, as in a scenario file.
    with pytest.raises(ValueError, match="mutually exclusive"):
        StarNetwork(quota=1000, run_time_s=2.5)
    with pytest.raises(ValueError, match="stop condition is required"):
        StarNetwork()


def test_unset_keywords_take_the_scenario_defaults():
    result = StarNetwork(quota=1, interval_s=1.0, distribution="periodic").run()
    assert result.metrics.generated == ScenarioSpec(quota=1).n_devices


def test_mac_parameters_are_set_only_through_csma_params():
    with pytest.raises(TypeError):
        StarNetwork(min_be=2, quota=1)


def test_beacon_mode_requires_both_orders():
    with pytest.raises(ValueError):
        StarNetwork(mode="beacon", bo=3, quota=1)
    with pytest.raises(ValueError):
        StarNetwork(mode="beacon", so=2, quota=1)


def test_device_out_of_reach_loses_everything_to_retries():
    # A circle radius beyond communication range leaves the coordinator
    # unreachable: every frame goes unacknowledged until retries run out.
    result = StarNetwork(n_devices=1, msdu=60, interval_s=1.0, quota=3,
                         seed=1, circle_radius_m=600.0).run()
    m = result.metrics
    assert m.delivered == 0
    assert m.dropped_retry_exhausted == 3
    assert m.packet_loss_rate == 1.0
    # Four transmissions per packet: the original and three retries.
    assert all(rec.tx_count == 4 for rec in result.log)


def test_random_placement_outputs_are_pinned(tmp_path):
    # No golden run places devices at random.  On a 100 m circle some pairs
    # are out of each other's 176 m range, so the drawn angles decide who
    # hears whom and every output byte depends on the placement stream.
    net = StarNetwork(placement="random", circle_radius_m=100.0, n_devices=16,
                      interval_s=0.05, quota=40, seed=2024)
    devices = range(1, 17)
    assert any(not net.medium.in_range(a, b) for a in devices for b in devices)
    result = net.run()
    buf = StringIO()
    write_metrics_csv([result.metrics], buf)
    write_packet_log(tmp_path / "packets.csv", result.log)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "11a9393bce8210be9dd7a41509f56741185d4ec7fa51ca28f749f5954d1221cb")
    assert hashlib.sha256((tmp_path / "packets.csv").read_bytes()).hexdigest() == (
        "a3fb52a9e497b56b63cd545da76bbb0b39d4904bbc8cb9f6c13dcc86efec28d0")
