"""Metamorphic relations: two related runs that must agree exactly.

A relation needs no expected value, so it holds for any generated scenario
(Chen, Cheung & Yiu, "Metamorphic Testing: A New Approach for Generating
Next Test Cases", HKUST-CS98-01, 1998).
"""

from io import StringIO

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpansim.metrics import write_metrics_csv, write_packet_log
from wpansim.network import StarNetwork

from test_transition_table import small_networks


def outputs(kwargs) -> tuple[str, str]:
    """The metrics CSV and the packet log of one run."""
    metrics, log = StringIO(), StringIO()
    result = StarNetwork(**kwargs, packets=write_packet_log(log)).run()
    write_metrics_csv([result.metrics], metrics)
    return metrics.getvalue(), log.getvalue()


@st.composite
def quota_runs(draw):
    return dict(draw(small_networks()), run_time_s=None, quota=100)


# Bursty sources that queue many frames at once: unslotted devices that
# contend, and slotted ones whose arrivals wait out the inactive portion.
@settings(max_examples=10, deadline=None)
@given(quota_runs())
@example(dict(n_devices=4, msdu=100, interval_s=0.004, quota=100, seed=3))
@example(dict(mode="beacon", bo=3, so=0, n_devices=3, msdu=60, interval_s=0.004,
              quota=100, seed=1))
def test_an_unbounded_queue_runs_as_one_too_deep_to_fill(kwargs):
    # A quota run generates at most 100 packets per device, so no more can
    # wait at once than a capacity of 10,000 admits.
    assert (outputs(dict(kwargs, queue_capacity=None))
            == outputs(dict(kwargs, queue_capacity=10_000)))
