"""Priority-aware admission control and load shedding.

When cluster pressure crosses a configurable high watermark, the
:class:`AdmissionController` turns the scheduler's FIFO pending queue into
a class-aware one: latency-sensitive work is served first, and the lowest
classes are *shed* — rejected from the pending queue, or evicted from
nodes to requeue — until pressure falls back below the low watermark.
Applications resubmit shed replicas through their self-healing path
(with crash-loop backoff), which models clients retrying with backoff.

Shed classes, most- to least-protected::

    latency > stream > batch > best-effort

Classification derives from the pod's workload class and priority, with a
``shed-class`` pod label as an explicit override. Two guarantees hold:

* **No starvation** — pods pending longer than :data:`STARVATION_TIMEOUT`
  seconds are exempt from shedding and admitted ahead of fresh work, so
  every class eventually makes progress even under sustained overload.
* **Gang atomicity** — gang members are never shed (a partial shed would
  strand their siblings).

Everything here is deterministic (no RNG) and entirely inert unless a
scheduler is given a controller, preserving the platform's seeded
bit-identical discipline when the feature is off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.api import ClusterAPI
from repro.cluster.pod import Pod, WorkloadClass
from repro.sim.engine import Engine

#: Shed classes ordered most-protected first; the shed policy walks this
#: list from the *end*.
SHED_CLASSES = ("latency", "stream", "batch", "best-effort")

#: Rank of each class (lower = more protected).
CLASS_RANK = {cls: rank for rank, cls in enumerate(SHED_CLASSES)}

#: Big-data pods at or above this priority are treated as streaming.
STREAM_PRIORITY = 8

#: Cap on pending-queue rejections per scheduling cycle.
MAX_SHED_PER_CYCLE = 4

#: Seconds after which a pending pod becomes exempt from shedding and is
#: admitted ahead of fresh work.
STARVATION_TIMEOUT = 300.0


def classify_pod(pod: Pod) -> str:
    """Shed class of a pod: explicit label, else class/priority heuristics.

    Microservices (and system daemons) are latency-sensitive; big-data
    pods at streaming priority (≥ ``STREAM_PRIORITY``) rank as stream;
    negative priority marks best-effort; everything else — batch big-data
    and HPC — is batch.
    """
    label = pod.spec.labels.get("shed-class")
    if label in CLASS_RANK:
        return label
    cls = pod.spec.workload_class
    if cls in (WorkloadClass.MICROSERVICE, WorkloadClass.SYSTEM):
        return "latency"
    if pod.spec.priority < 0:
        return "best-effort"
    if cls is WorkloadClass.BIGDATA and pod.spec.priority >= STREAM_PRIORITY:
        return "stream"
    return "batch"


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of the overload-resilience layer. Everything defaults *off*:
    a default config changes nothing about platform behaviour.

    Parameters
    ----------
    admission:
        Enable admission control and load shedding in the scheduler.
    backpressure:
        Enable control-loop backpressure: scale-up actuations are queued
        and coalesced instead of issued while the loop is distressed
        (pending retries, open breakers, safe mode).
    brownout:
        Enable hysteretic brownout degradation for services that support
        it (reduced per-request demand at a latency penalty; thresholds
        are the ``BROWNOUT_*`` constants of :mod:`repro.control.manager`).
    high_watermark / low_watermark:
        Cluster allocation fraction (max over CPU and memory) that
        activates / deactivates shedding. The gap is the hysteresis band.
    pending_high:
        Pending-queue depth that activates shedding regardless of
        allocation pressure (queue blow-up from a flash crowd).
    """

    admission: bool = False
    backpressure: bool = False
    brownout: bool = False
    high_watermark: float = 0.9
    low_watermark: float = 0.75
    pending_high: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.low_watermark <= self.high_watermark:
            raise ValueError("need 0 < low_watermark <= high_watermark")
        if self.pending_high < 1:
            raise ValueError("pending_high must be >= 1")


class AdmissionController:
    """Class-aware admission control over the scheduler pending queue.

    The scheduler calls :meth:`admit_cycle` with the FIFO pending snapshot
    at the top of each cycle and :meth:`post_cycle` after binding. While
    the overload latch is clear both are near-free passthroughs; while it
    is set, ``admit_cycle`` sheds the newest low-class pending pods (up to
    :data:`MAX_SHED_PER_CYCLE`) and reorders the remainder most-protected
    class first, and ``post_cycle`` evicts-to-requeue at most one running
    best-effort pod per cycle while latency/stream work is stuck pending.
    """

    def __init__(self, engine: Engine, api: ClusterAPI, config: OverloadConfig):
        self.engine = engine
        self.api = api
        self.config = config
        self.shedding_active = False
        self.activations = 0
        self.shed_total = 0
        self.shed_by_class: dict[str, int] = {cls: 0 for cls in SHED_CLASSES}
        self.rejected_pending = 0
        self.evicted_running = 0
        self.aged_admissions = 0
        self.last_pressure = 0.0
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle; when
        #: set, latch transitions and shed/evict decisions are traced
        #: under the ``sched`` category and shed pending-ages observed.
        self.telemetry = None
        #: Optional ``collector.scrape_span_at`` ref: parents each admit
        #: cycle span to the scrape round whose signals it acted on,
        #: extending the causal DecisionProvenance graph into shedding.
        self.scrape_span_at = None

    # -- pressure & latch -----------------------------------------------------

    def pressure(self) -> float:
        """Cluster allocation fraction, max over CPU and memory.

        A cluster with zero allocatable capacity (every node down) reads
        as fully pressured.
        """
        cap = self.api.total_allocatable()
        alloc = self.api.total_allocated()
        worst = 0.0
        for capacity, allocated in ((cap.cpu, alloc.cpu), (cap.memory, alloc.memory)):
            frac = allocated / capacity if capacity > 0 else 1.0
            if frac > worst:
                worst = frac
        return worst

    def _update_latch(self, pending_depth: int) -> None:
        pressure = self.pressure()
        self.last_pressure = pressure
        hot = (
            pressure >= self.config.high_watermark
            or pending_depth >= self.config.pending_high
        )
        if self.shedding_active:
            if (
                pressure < self.config.low_watermark
                and pending_depth < self.config.pending_high
            ):
                self.shedding_active = False
                if self.telemetry is not None:
                    self.telemetry.tracer.instant(
                        "shed_latch_off", "sched",
                        pressure=pressure, pending=pending_depth,
                    )
        elif hot:
            self.shedding_active = True
            self.activations += 1
            if self.telemetry is not None:
                self.telemetry.tracer.instant(
                    "shed_latch_on", "sched",
                    pressure=pressure, pending=pending_depth,
                )

    # -- cycle hooks ----------------------------------------------------------

    def admit_cycle(self, pending: list[Pod]) -> list[Pod]:
        """Shed and reorder the pending queue for one scheduling cycle."""
        self._update_latch(len(pending))
        if not self.shedding_active:
            return pending

        now = self.engine.now
        tel = self.telemetry
        cycle_span = None
        if tel is not None:
            # Parent the admit cycle to the scrape round whose pressure
            # signal set the latch, when the link is wired.
            parent = (
                self.scrape_span_at(now)
                if self.scrape_span_at is not None
                else None
            )
            cycle_span = tel.tracer.begin(
                "admit", "sched", parent=parent,
                pending=len(pending), pressure=self.last_pressure,
            )
        try:
            return self._shed_and_reorder(pending, now, tel, cycle_span)
        finally:
            if cycle_span is not None:
                tel.tracer.end(cycle_span)

    def _shed_and_reorder(self, pending, now, tel, cycle_span):
        aged: list[Pod] = []
        fresh: list[Pod] = []
        for pod in pending:
            waited = now - pod.created_at
            (aged if waited >= STARVATION_TIMEOUT else fresh).append(pod)
        self.aged_admissions += len(aged)

        shed: set[str] = set()
        budget = MAX_SHED_PER_CYCLE
        for cls in reversed(SHED_CLASSES):
            if budget <= 0 or CLASS_RANK[cls] <= CLASS_RANK["stream"]:
                break
            victims = [
                pod
                for pod in fresh
                if pod.spec.gang_id is None and classify_pod(pod) == cls
            ]
            # Newest first: the most recently offered work is rejected,
            # the queue's head keeps its place.
            for pod in reversed(victims):
                if budget <= 0:
                    break
                self.api.delete_pod(pod.name, reason="load-shed")
                shed.add(pod.name)
                self._count_shed(cls)
                self.rejected_pending += 1
                budget -= 1
                if tel is not None:
                    age = now - pod.created_at
                    tel.shed_pending_age.observe(age)
                    tel.tracer.instant(
                        "shed", "sched", parent=cycle_span,
                        pod=pod.name, shed_class=cls, age=age,
                    )

        admitted = [pod for pod in fresh if pod.name not in shed]
        admitted.sort(key=lambda pod: CLASS_RANK[classify_pod(pod)])
        return aged + admitted

    def post_cycle(self) -> None:
        """Evict-to-requeue one running best-effort pod if high-class
        work is still stuck pending under an active shed latch."""
        if not self.shedding_active:
            return
        stuck = any(
            CLASS_RANK[classify_pod(pod)] <= CLASS_RANK["stream"]
            for pod in self.api.pending_pods()
        )
        if not stuck:
            return
        victims = [
            pod
            for pod in self.api.list_pods()
            if pod.active
            and pod.spec.gang_id is None
            and classify_pod(pod) == "best-effort"
        ]
        if not victims:
            return
        victim = max(victims, key=lambda pod: (pod.created_at, pod.name))
        self.api.delete_pod(victim.name, reason="load-shed")
        self._count_shed("best-effort")
        self.evicted_running += 1
        if self.telemetry is not None:
            self.telemetry.tracer.instant(
                "shed_evict", "sched", pod=victim.name,
                shed_class="best-effort",
            )

    def _count_shed(self, cls: str) -> None:
        self.shed_total += 1
        self.shed_by_class[cls] += 1

    # -- reporting ------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "shedding_active": self.shedding_active,
            "activations": self.activations,
            "last_pressure": self.last_pressure,
            "shed_total": self.shed_total,
            "shed_by_class": dict(self.shed_by_class),
            "rejected_pending": self.rejected_pending,
            "evicted_running": self.evicted_running,
            "aged_admissions": self.aged_admissions,
        }
