"""Quasi-deterministic transmission policy: spacing gate, simulator, tools.

The package splits into three layers:

* closed-form waiting-time recursions (``recursions``) — the ground truth
  every other layer is checked against;
* a deterministic discrete-event simulator (``scenario``, ``simulator``,
  ``mitigation``, ``metrics``, ``artifacts``, ``manifests``) reproducing
  the reference flood experiments;
* a live UDP pacing forwarder and protected-device stub (``forwarder``).

``qdtp.cli`` wires everything into the ``qdtp`` command.
"""

from .errors import (
    ConfigurationError,
    ContractViolation,
    InvariantViolation,
    QdtpError,
)
from .forwarder import (
    ForwarderConfig,
    ForwarderStats,
    UdpForwarder,
    UdpServerStub,
)
from .manifests import (
    ExperimentManifest,
    bundled_manifest_names,
    bundled_scenario_names,
    load_manifest,
    resolve_scenario,
    run_manifest,
)
from .metrics import (
    RunComparison,
    SummaryStats,
    compare_runs,
    drain_time,
    run_summary,
    summarize,
)
from .mitigation import MitigationGate, MitigationPolicy
from .recursions import (
    ArrivalSequence,
    ForwardSchedule,
    QdtpConfig,
    lindley_waits,
    qdtp_schedule,
    server_waits,
)
from .scenario import (
    Scenario,
    ServiceModel,
    TrafficModel,
    generate_arrivals,
)
from .simulator import (
    ABSENT_NS,
    Packets,
    TraceSeries,
    simulate,
    simulate_sequences,
    verify_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ABSENT_NS",
    "ArrivalSequence",
    "ConfigurationError",
    "ContractViolation",
    "ExperimentManifest",
    "ForwardSchedule",
    "ForwarderConfig",
    "ForwarderStats",
    "InvariantViolation",
    "MitigationGate",
    "MitigationPolicy",
    "Packets",
    "QdtpConfig",
    "QdtpError",
    "RunComparison",
    "Scenario",
    "ServiceModel",
    "SummaryStats",
    "TraceSeries",
    "TrafficModel",
    "UdpForwarder",
    "UdpServerStub",
    "bundled_manifest_names",
    "bundled_scenario_names",
    "compare_runs",
    "drain_time",
    "generate_arrivals",
    "lindley_waits",
    "load_manifest",
    "qdtp_schedule",
    "resolve_scenario",
    "run_manifest",
    "run_summary",
    "server_waits",
    "simulate",
    "simulate_sequences",
    "summarize",
    "verify_trace",
]
