"""Workload models for the three converging worlds.

* :mod:`repro.workloads.microservice` — latency-sensitive cloud services
  (queueing model with multi-resource service demands).
* :mod:`repro.workloads.bigdata` — elastic DAG-structured analytics jobs,
  plus BatchBench-style batch-mix builders and recurring pipelines.
* :mod:`repro.workloads.hpc` — rigid gang-scheduled tightly-coupled jobs.

Plus the pieces they share: load-trace generators
(:mod:`repro.workloads.traces`), open-loop arrival processes and
correlated surges (:mod:`repro.workloads.arrivals`), versioned trace files and
the event replayer (:mod:`repro.workloads.traceio`), performance-level
objectives (:mod:`repro.workloads.plo`), and the replica-managing
application driver base (:mod:`repro.workloads.base`).
"""

from repro.workloads.arrivals import (
    ArrivalProcess,
    CorrelatedSurge,
    MarkedArrivals,
    MMPPArrivals,
    ParetoSizes,
    PoissonArrivals,
    SizeDistribution,
    trace_integral,
)
from repro.workloads.base import Application
from repro.workloads.bigdata import (
    BigDataJob,
    RecurringPipeline,
    Stage,
    fork_join_stages,
    skewed_fanout_stages,
)
from repro.workloads.hpc import HPCJob
from repro.workloads.stream import Operator, StreamJob
from repro.workloads.microservice import DemandPhase, Microservice, ServiceDemands
from repro.workloads.plo import (
    DeadlinePLO,
    LatencyPLO,
    PLOStatus,
    ThroughputPLO,
    ViolationTracker,
)
from repro.workloads.traceio import (
    LoadedTrace,
    TraceReplayer,
    TraceSchemaError,
    event_fingerprint,
    load_trace,
)
from repro.workloads.traces import (
    BurstyTrace,
    CompositeTrace,
    ConstantTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    LoadTrace,
    NoisyTrace,
    OUTrace,
    RampTrace,
    ReplayTrace,
    ScaledTrace,
    StepTrace,
)

__all__ = [
    "Application",
    "Microservice",
    "ServiceDemands",
    "DemandPhase",
    "BigDataJob",
    "Stage",
    "RecurringPipeline",
    "fork_join_stages",
    "skewed_fanout_stages",
    "HPCJob",
    "StreamJob",
    "Operator",
    "PLOStatus",
    "LatencyPLO",
    "ThroughputPLO",
    "DeadlinePLO",
    "ViolationTracker",
    "LoadTrace",
    "ConstantTrace",
    "StepTrace",
    "DiurnalTrace",
    "BurstyTrace",
    "FlashCrowdTrace",
    "RampTrace",
    "NoisyTrace",
    "OUTrace",
    "ReplayTrace",
    "ScaledTrace",
    "CompositeTrace",
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "SizeDistribution",
    "ParetoSizes",
    "MarkedArrivals",
    "CorrelatedSurge",
    "trace_integral",
    "LoadedTrace",
    "load_trace",
    "TraceReplayer",
    "TraceSchemaError",
    "event_fingerprint",
]
