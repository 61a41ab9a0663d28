"""One-hop IEEE 802.15.4 star-network simulator and QoS sweep harness."""

from wpansim.csma import CsmaParams, DropReason
from wpansim.kernel import SYMBOL_RATE, Scheduler, SimulationError, seconds_to_symbols
from wpansim.metrics import MetricsRow, PacketRecord
from wpansim.network import RunResult, StarNetwork, run_scenario_full
from wpansim.scenario import (BUILTINS, ScenarioError, ScenarioSpec, SweepSpec,
                              load_builtin, load_scenario)
from wpansim.superframe import SuperframeSchedule

__version__ = "0.1.0"

__all__ = [
    "BUILTINS",
    "CsmaParams",
    "DropReason",
    "MetricsRow",
    "PacketRecord",
    "ResultsTable",
    "RunResult",
    "SYMBOL_RATE",
    "ScenarioError",
    "ScenarioSpec",
    "Scheduler",
    "SimulationError",
    "StarNetwork",
    "SuperframeSchedule",
    "SweepSpec",
    "emit_plot_data",
    "load_builtin",
    "load_scenario",
    "run_scenario",
    "run_scenario_full",
    "run_sweep",
    "seconds_to_symbols",
    "__version__",
]


def __getattr__(name):
    # PEP 562: the names of __all__ not imported above load the sweep layer.
    if name in __all__:
        from wpansim import experiment
        return getattr(experiment, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
