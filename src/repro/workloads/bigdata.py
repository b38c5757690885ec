"""Elastic big-data analytics jobs (Spark-like stage DAGs).

A job is a DAG of stages; each stage has a CPU work volume and an input
volume read from the shared object store. Executors (the job's pods)
process the current stage with a fluid model: per-executor progress is
limited by whichever is scarcer — CPU or input bandwidth — and input
bandwidth depends on data locality (local blocks stream over disk
bandwidth, remote ones over penalized network bandwidth).

Stages execute in topological order, one at a time (the common Spark
shape where a shuffle barrier separates stages); parallelism within a
stage is capped by its task count.

Fault tolerance (opt-in via ``ft=True``, which the platform passes when
``PlatformConfig.data_plane`` is set): the fluid model is replaced by a task-granular
engine — each stage splits into ``max_parallelism`` tasks, in-flight
task progress is lost when its executor dies (only that share re-opens),
completed tasks remember which node holds their shuffle output so losing
that node re-opens exactly the upstream work (lineage recompute),
stragglers get speculative duplicate copies (first finish wins), and
each stage carries a retry budget with exponential backoff before the
job is failed with a poison-stage quarantine. With ``ft`` off the
fluid path runs untouched and seeded results are bit-identical to
builds without any of this.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import networkx as nx

from repro.cluster.api import ClusterAPI
from repro.cluster.cluster import NodeNotFound
from repro.cluster.pod import Pod, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.dataplane import (
    SPECULATION_QUANTILE,
    STAGE_MAX_ATTEMPTS,
    STRAGGLER_PATIENCE,
    backoff,
)
from repro.sim.engine import Engine
from repro.storage.objectstore import REMOTE_PENALTY, ObjectStore
from repro.workloads.base import Application, require_count

#: An FT executor is a straggler when its retired-work rate stays below
#: this fraction of its stage's median rate for
#: :data:`~repro.dataplane.STRAGGLER_PATIENCE` consecutive ticks.
STRAGGLER_RATE = 0.5


@dataclass
class Stage:
    """One stage of the job DAG.

    Parameters
    ----------
    name:
        Stage name, unique within the job.
    work_cpu_seconds:
        Total CPU work of the stage.
    input_mb:
        Total bytes read (from the dataset for source stages, shuffle
        data otherwise).
    deps:
        Names of stages that must complete first.
    max_parallelism:
        Task count: at most this many executors contribute concurrently.
    accel_speedup:
        CPU-work speedup an executor enjoys on an accelerator node (the
        EVOLVE FPGA path); 1.0 means the stage is not accelerable.
    """

    name: str
    work_cpu_seconds: float
    input_mb: float = 0.0
    deps: tuple[str, ...] = ()
    max_parallelism: int = 64
    accel_speedup: float = 1.0
    remaining_work: float = field(init=False)
    remaining_input: float = field(init=False)

    def __post_init__(self) -> None:
        if self.work_cpu_seconds <= 0:
            raise ValueError(f"stage {self.name!r}: work must be positive")
        if self.input_mb < 0:
            raise ValueError(f"stage {self.name!r}: input must be non-negative")
        if isinstance(self.deps, str):  # would iterate as one name per letter
            raise TypeError(
                f"stage {self.name!r}: deps must be a sequence of stage names, "
                f"got {self.deps!r}"
            )
        require_count(self.max_parallelism, f"stage {self.name!r}: max_parallelism")
        if self.max_parallelism < 1:
            raise ValueError(f"stage {self.name!r}: max_parallelism must be ≥ 1")
        if self.accel_speedup < 1:
            raise ValueError(f"stage {self.name!r}: accel_speedup must be ≥ 1")
        self.remaining_work = self.work_cpu_seconds
        self.remaining_input = self.input_mb

    @property
    def complete(self) -> bool:
        return self.remaining_work <= 1e-9 and self.remaining_input <= 1e-9


def _validate_dag(stages: Sequence[Stage]) -> list[Stage]:
    """Check the stage graph is a DAG and return topological order."""
    by_name = {s.name: s for s in stages}
    if len(by_name) != len(stages):
        raise ValueError("duplicate stage names")
    graph = nx.DiGraph()
    graph.add_nodes_from(by_name)
    for stage in stages:
        for dep in stage.deps:
            if dep not in by_name:
                raise ValueError(f"stage {stage.name!r} depends on unknown {dep!r}")
            graph.add_edge(dep, stage.name)
    if not nx.is_directed_acyclic_graph(graph):
        raise ValueError("stage dependencies contain a cycle")
    # Stable topological order: break ties by submission order.
    order = list(nx.lexicographical_topological_sort(
        graph, key=lambda n: list(by_name).index(n)
    ))
    return [by_name[name] for name in order]


_TASK_EPS = 1e-9


class _Plan(NamedTuple):
    """One fluid executor step, fixed while its inputs are.

    ``key`` is every value the step reads except the stage's remaining
    work and input: (stage, allocation, accelerated CPU rate, locality
    fraction, input bandwidth, whether input remains, dt). ``work`` and
    ``input_mb`` are what the step drains before the clamp to what
    remains; ``usage`` is the vector ``Pod.record_usage`` stored.
    """

    key: tuple
    work: float
    input_mb: float
    usage: ResourceVector


@dataclass
class _Task:
    """One task of a stage under the fault-tolerant engine.

    A task runs on at most one primary executor plus, optionally, one
    speculative copy. Work/input drain independently per copy; the first
    copy to finish retires the task and the loser's progress is wasted.
    """

    index: int
    work: float
    input_mb: float
    work_left: float = field(init=False)
    input_left: float = field(init=False)
    runner: str | None = None
    started_at: float | None = None
    spec_runner: str | None = None
    spec_started_at: float | None = None
    spec_work_left: float = 0.0
    spec_input_left: float = 0.0
    done: bool = False
    #: Node holding this task's (shuffle) output once done, and the
    #: wipe-epoch of that node at completion time — outputs written
    #: before a node went dark are gone even after it recovers.
    output_node: str | None = None
    output_epoch: int = 0
    #: Earliest time the task may be (re-)dispatched (retry backoff).
    dispatch_after: float = 0.0

    def __post_init__(self) -> None:
        self.work_left = self.work
        self.input_left = self.input_mb

    @property
    def speculating(self) -> bool:
        return self.spec_runner is not None

    def spec_progress(self) -> float:
        return (self.work - self.spec_work_left) if self.speculating else 0.0


class _StageTasks:
    """Task-granular runtime state for one stage."""

    def __init__(self, stage: Stage):
        self.stage = stage
        n = stage.max_parallelism
        work = stage.work_cpu_seconds / n
        input_mb = stage.input_mb / n
        self.tasks = [_Task(i, work, input_mb) for i in range(n)]
        #: Fault-driven re-open batches this stage has absorbed.
        self.attempts = 0

    def done_count(self) -> int:
        return sum(1 for t in self.tasks if t.done)

    # The ledger sums below run at every invariant audit. ``sum`` over a
    # list adds the same floats in the same order as over a generator,
    # without one generator resumption per task.

    def useful_work(self) -> float:
        return sum([t.work if t.done else t.work - t.work_left for t in self.tasks])

    def spec_inflight(self) -> float:
        """Progress of the live speculative copies (``spec_progress`` inlined)."""
        return sum([
            t.work - t.spec_work_left if t.spec_runner is not None else 0.0
            for t in self.tasks
            if not t.done
        ])

    def sync_stage(self) -> None:
        """Mirror task state into the stage's fluid counters so
        ``Stage.complete`` / ``progress`` / metrics work unchanged."""
        self.stage.remaining_work = sum(
            t.work_left for t in self.tasks if not t.done
        )
        self.stage.remaining_input = sum(
            t.input_left for t in self.tasks if not t.done
        )


class BigDataJob(Application):
    """An elastic analytics job whose executors are cluster pods.

    Parameters
    ----------
    stages:
        The stage DAG.
    store / dataset:
        Object store and bucket holding the job's input; source stages
        (no deps) read it with locality-dependent bandwidth. Jobs without
        a dataset read everything at disk bandwidth.
    deadline:
        Optional absolute completion deadline, used by DeadlinePLO.
    accelerator:
        Accelerator class this job's stages can use (matched against the
        node label ``accelerator``). Sets a soft scheduling preference on
        the executors; stages with ``accel_speedup > 1`` retire CPU work
        faster on matching nodes.
    ft:
        Data-plane fault tolerance: the task engine replaces the fluid
        model.
    """

    priority = 5

    def __init__(
        self,
        name: str,
        engine: Engine,
        api: ClusterAPI,
        *,
        stages: Sequence[Stage],
        initial_allocation: ResourceVector,
        initial_executors: int = 2,
        store: ObjectStore | None = None,
        dataset: str | None = None,
        deadline: float | None = None,
        accelerator: str | None = None,
        ft: bool = False,
        labels: Mapping[str, str] | None = None,
        **kwargs,
    ):
        if accelerator:
            kwargs.setdefault("node_preference", {"accelerator": accelerator})
        super().__init__(
            name,
            engine,
            api,
            workload_class=WorkloadClass.BIGDATA,
            initial_allocation=initial_allocation,
            initial_replicas=initial_executors,
            labels=labels,
            **kwargs,
        )
        self.accelerator = accelerator
        self.stages = _validate_dag(stages)
        self.store = store
        self.dataset = dataset
        self.deadline = deadline
        if dataset is not None and store is None:
            raise ValueError("dataset requires a store")
        if dataset is not None:
            self.labels.setdefault("dataset", dataset)
        self.submitted_at: float | None = None
        self.completed_at: float | None = None
        self.current_throughput = 0.0  # cpu-seconds of work retired per second
        self._total_work = sum(s.work_cpu_seconds for s in self.stages)
        # -- fluid tick reuse (see tick) --
        self._runnable: list[Stage] | None = None
        self._assigned_to: list[Stage] | None = None
        self._assigned_pods: list[Pod] = []
        self._assigned_stages: list[Stage | None] = []
        self._plans: dict[Pod, _Plan] = {}
        # -- fault-tolerant task engine (off → fluid model, seed behaviour) --
        self.ft = ft
        self.quarantined_stage: str | None = None
        self.failed_at: float | None = None
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle; when
        #: set, FT events (executor loss, lineage recompute, speculation,
        #: quarantine) are traced under the ``dp`` category.
        self.telemetry = None
        if self.ft:
            self._runtime = {s.name: _StageTasks(s) for s in self.stages}
            self._dependents: dict[str, list[Stage]] = {s.name: [] for s in self.stages}
            for stage in self.stages:
                for dep in stage.deps:
                    self._dependents[dep].append(stage)
            self._prev_executors: set[Pod] = set()
            self._dark_nodes: set[str] = set()
            self._node_wipes: dict[str, int] = {}
            self._slow_ticks: dict[str, int] = {}
            # Work-conservation ledger (cpu-seconds), audited by the
            # data-plane invariant: every unit an executor retires lands
            # in exactly one of useful / speculative-in-flight / wasted /
            # reopened.
            self.ft_retired_work = 0.0
            self.ft_reopened_work = 0.0
            self.ft_wasted_work = 0.0
            self.lineage_recomputes = 0
            self.executor_losses = 0
            self.speculative_launched = 0
            self.speculative_wins = 0

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        self.submitted_at = self.engine.now
        super().start()

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def failed(self) -> bool:
        """True once a poison stage exhausted its retry budget."""
        return self.failed_at is not None

    def makespan(self) -> float | None:
        """Submission-to-completion time, if finished."""
        if self.completed_at is None or self.submitted_at is None:
            return None
        return self.completed_at - self.submitted_at

    # -- dynamics ------------------------------------------------------------------

    def runnable_stages(self) -> list[Stage]:
        """Incomplete stages whose dependencies are all complete, in
        topological order. Independent DAG branches run concurrently."""
        done = {s.name for s in self.stages if s.complete}
        return [
            stage
            for stage in self.stages
            if not stage.complete and all(d in done for d in stage.deps)
        ]

    def progress(self) -> float:
        """Work-weighted completion fraction across all stages."""
        if self._total_work <= 0:
            return 1.0
        done = sum(s.work_cpu_seconds - s.remaining_work for s in self.stages)
        return min(1.0, done / self._total_work)

    def _input_locality(self, pod: Pod, stage: Stage) -> tuple[float, float]:
        """Locality fraction and effective input MB/s of this executor.

        Source stages read the dataset: the local fraction over disk
        bandwidth, the rest over network bandwidth discounted by the
        store's :data:`~repro.storage.objectstore.REMOTE_PENALTY`. Shuffle input, or a job without a
        dataset, is all local and charged against disk bandwidth. The
        task engine calls this; the fluid :meth:`tick` computes it inline.
        """
        if not stage.deps and self.dataset is not None and self.store is not None:
            assert pod.node_name is not None
            local = self.store.locality_fraction(self.dataset, pod.node_name)
            remote_bw = pod.allocation.net_bw * REMOTE_PENALTY
            return local, local * pod.allocation.disk_bw + (1 - local) * remote_bw
        return 1.0, pod.allocation.disk_bw

    def _assign_executors(
        self, stages: list[Stage], executors: list[Pod]
    ) -> dict[str, Stage]:
        """Distribute executors over runnable stages.

        Round-robin in topological order, one executor per open stage
        per round, honoring each stage's ``max_parallelism``; leftover
        executors idle. Returns a map from pod name to its stage.
        """
        assignment: dict[str, Stage] = {}
        pods = iter(executors)
        open_stages = stages
        rounds = 0
        while open_stages:
            for stage in open_stages:
                pod = next(pods, None)
                if pod is None:
                    return assignment
                assignment[pod.name] = stage
            rounds += 1
            open_stages = [s for s in open_stages if s.max_parallelism > rounds]
        return assignment

    def tick(self, dt: float, now: float) -> None:
        """Advance every executor by ``dt`` in one loop on locals.

        Input and work drain proportionally: an executor that has read
        fraction f of its input share can have completed at most f of its
        work share; the fluid model couples them through ``frac_rate``.

        Each executor keeps the plan it stepped with on the previous
        tick while the plan's key, every value the step reads but the
        stage's remaining work and input, is unchanged; otherwise a new
        plan is computed. Either way the stage drains by the same four
        clamps, so the floats do not depend on reuse. ``b if b < a else
        a`` and ``b if b > a else a`` stand for ``min(a, b)`` and
        ``max(a, b)``: they return the builtins' operand, so ties, signed
        zeros and NaN give the same floats.
        """
        if self.ft:
            self._tick_ft(dt, now)
            return
        if self.done:
            return
        # The runnable list holds while none of its stages is complete;
        # the tick in which one completes recomputes it below.
        runnable = self._runnable
        if runnable is None:
            runnable = self._runnable = self.runnable_stages()
        if not runnable:
            self._complete(now)
            return
        executors = self.running_pods()
        if runnable is not self._assigned_to or executors != self._assigned_pods:
            assignment = self._assign_executors(runnable, executors)
            self._assigned_to = runnable
            self._assigned_pods = executors
            self._assigned_stages = [assignment.get(pod.name) for pod in executors]
        plans = self._plans
        self._plans = stepped = {}
        accelerator = self.accelerator
        dataset = self.dataset
        store = self.store
        reads_dataset = dataset is not None and store is not None
        work_retired = 0.0
        for pod, stage in zip(executors, self._assigned_stages):
            alloc = pod.allocation
            if stage is None:
                pod.record_usage(ResourceVector(memory=min(0.25, alloc.memory)))
                continue
            cpu_rate = alloc.cpu  # cpu-seconds per second
            if (
                stage.accel_speedup > 1.0
                and accelerator is not None
                and pod.node_name is not None
                and self.api.get_node(pod.node_name).labels.get("accelerator")
                == accelerator
            ):
                cpu_rate *= stage.accel_speedup
            # Source stages read the dataset (``_input_locality``).
            if not stage.deps and reads_dataset:
                local_frac = store.locality_fraction(dataset, pod.node_name)
                remote_bw = alloc.net_bw * REMOTE_PENALTY
                in_bw = local_frac * alloc.disk_bw + (1 - local_frac) * remote_bw
            else:
                local_frac = 1.0
                in_bw = alloc.disk_bw
            has_input = stage.input_mb > 0 and stage.remaining_input > 0
            key = (stage, alloc, cpu_rate, local_frac, in_bw, has_input, dt)
            plan = plans.get(pod)
            if plan is not None and plan.key == key:
                pod.usage = plan.usage
            else:
                if has_input:
                    work_frac_rate = cpu_rate / stage.work_cpu_seconds
                    input_frac_rate = in_bw / stage.input_mb
                    frac_rate = min(work_frac_rate, input_frac_rate)
                    stage_work = frac_rate * stage.work_cpu_seconds * dt
                    stage_input = frac_rate * stage.input_mb * dt
                    cpu_used = stage_work / dt
                    io_used = min(in_bw, stage_input / dt)
                else:
                    stage_work = cpu_rate * dt
                    stage_input = 0.0
                    cpu_used = cpu_rate
                    io_used = 0.0
                pod.record_usage(
                    ResourceVector(
                        cpu=min(cpu_used, alloc.cpu),
                        memory=min(alloc.memory, 0.5 + 0.1 * alloc.cpu),
                        disk_bw=io_used * local_frac,
                        net_bw=io_used * (1 - local_frac),
                    )
                )
                plan = _Plan(key, stage_work, stage_input, pod.usage)
            stepped[pod] = plan
            remaining = stage.remaining_work
            work = plan.work
            work = remaining if remaining < work else work
            remaining -= work
            stage.remaining_work = remaining if remaining > 0.0 else 0.0
            remaining = stage.remaining_input
            drained = plan.input_mb
            drained = remaining if remaining < drained else drained
            remaining -= drained
            stage.remaining_input = remaining if remaining > 0.0 else 0.0
            work_retired += work
        self.current_throughput = work_retired / dt
        for stage in runnable:
            if stage.complete:
                # Empty exactly when every stage is complete.
                self._runnable = self.runnable_stages()
                if not self._runnable:
                    self._complete(now)
                break

    def _complete(self, now: float) -> None:
        if self.completed_at is not None:
            return
        self.completed_at = now
        self.current_throughput = 0.0
        self._plans = {}  # nothing steps any more
        self._finish(succeeded=True)

    # -- fault-tolerant task engine --------------------------------------------

    def _tick_ft(self, dt: float, now: float) -> None:
        assert self.ft
        if self.done or self.failed:
            return
        self._detect_executor_loss(now)
        self._reopen_lost_outputs(now)
        if self._check_quarantine(now):
            return
        runnable = self.runnable_stages()
        if not runnable:
            self._complete(now)
            return
        executors = self.running_pods()
        assignment = self._assign_executors(runnable, executors)
        self._release_moved_tasks(assignment)
        work_retired = 0.0
        stage_rates: dict[str, dict[str, float]] = {}
        for pod in executors:
            stage = assignment.get(pod.name)
            if stage is None:
                pod.record_usage(
                    ResourceVector(memory=min(0.25, pod.allocation.memory))
                )
                continue
            retired = self._advance_pod_ft(pod, self._runtime[stage.name], dt, now)
            work_retired += retired
            stage_rates.setdefault(stage.name, {})[pod.name] = retired / dt
        self._update_stragglers(stage_rates)
        for rt in self._runtime.values():
            rt.sync_stage()
        self.current_throughput = work_retired / dt
        self._prev_executors = set(self._pods)
        if all(s.complete for s in self.stages):
            self._complete(now)

    # -- fault detection -------------------------------------------------------

    def _detect_executor_loss(self, now: float) -> None:
        """Re-open the in-flight share of executors that disappeared."""
        gone = self._prev_executors - set(self._pods)
        if not gone:
            return
        lost = {pod.name for pod in gone}
        self.executor_losses += len(lost)
        if self.telemetry is not None:
            self.telemetry.tracer.instant(
                "executor_loss", "dp", job=self.name,
                lost=len(lost), executors=sorted(lost),
            )
        for name in lost:
            self._slow_ticks.pop(name, None)
        for rt in self._runtime.values():
            struck = False
            for t in rt.tasks:
                if t.done:
                    continue
                if t.spec_runner in lost:
                    self.ft_reopened_work += t.spec_progress()
                    self._clear_spec(t)
                    struck = True
                if t.runner in lost:
                    struck = True
                    self.ft_reopened_work += t.work - t.work_left
                    if t.speculating:
                        # Promote the surviving copy to primary.
                        t.runner = t.spec_runner
                        t.started_at = t.spec_started_at
                        t.work_left = t.spec_work_left
                        t.input_left = t.spec_input_left
                        self._clear_spec(t)
                    else:
                        t.runner = None
                        t.started_at = None
                        t.work_left = t.work
                        t.input_left = t.input_mb
                        t.dispatch_after = now  # backoff applied below
            if struck:
                self._charge_attempt(rt, now)
            rt.sync_stage()

    def _charge_attempt(self, rt: _StageTasks, now: float) -> None:
        """One fault batch on a stage: bump attempts, back off re-dispatch."""
        rt.attempts += 1
        backoff_until = now + backoff(rt.attempts)
        for t in rt.tasks:
            if not t.done and t.runner is None:
                t.dispatch_after = max(t.dispatch_after, backoff_until)

    def _check_quarantine(self, now: float) -> bool:
        """Fail the job once any stage exhausts its retry budget."""
        if self.failed:
            return True
        for stage in self.stages:
            rt = self._runtime[stage.name]
            if rt.attempts > STAGE_MAX_ATTEMPTS:
                self.quarantined_stage = stage.name
                self.failed_at = now
                if self.telemetry is not None:
                    self.telemetry.tracer.instant(
                        "stage_quarantine", "dp", job=self.name,
                        stage=stage.name, attempts=rt.attempts,
                    )
                self.current_throughput = 0.0
                self._finish(succeeded=False)
                return True
        return False

    # -- lineage recompute -----------------------------------------------------

    def _refresh_dark_nodes(self) -> None:
        referenced = {
            t.output_node
            for rt in self._runtime.values()
            for t in rt.tasks
            if t.done and t.output_node is not None
        }
        for name in sorted(referenced):
            try:
                dark = self.api.get_node(name).allocatable.is_zero()
            except NodeNotFound:
                dark = True
            if dark and name not in self._dark_nodes:
                self._dark_nodes.add(name)
                self._node_wipes[name] = self._node_wipes.get(name, 0) + 1
            elif not dark and name in self._dark_nodes:
                self._dark_nodes.discard(name)

    def _output_lost(self, t: _Task) -> bool:
        if t.output_node is None:
            return False
        if t.output_node in self._dark_nodes:
            return True
        return self._node_wipes.get(t.output_node, 0) != t.output_epoch

    def _reopen_lost_outputs(self, now: float) -> None:
        """Re-open completed tasks whose shuffle output is gone and still
        needed by an incomplete dependent, cascading into upstream stages
        until a fixpoint (recomputing a stage needs *its* inputs too)."""
        self._refresh_dark_nodes()
        changed = True
        while changed:
            changed = False
            for stage in self.stages:
                if not any(not d.complete for d in self._dependents[stage.name]):
                    continue  # output not needed (terminal results are durable)
                rt = self._runtime[stage.name]
                lost = [t for t in rt.tasks if t.done and self._output_lost(t)]
                if not lost:
                    continue
                for t in lost:
                    t.done = False
                    t.work_left = t.work
                    t.input_left = t.input_mb
                    t.output_node = None
                    t.runner = None
                    t.started_at = None
                    self._clear_spec(t)
                    self.ft_reopened_work += t.work
                self.lineage_recomputes += len(lost)
                if self.telemetry is not None:
                    self.telemetry.tracer.instant(
                        "lineage_recompute", "dp", job=self.name,
                        stage=stage.name, tasks=len(lost),
                    )
                self._charge_attempt(rt, now)
                rt.sync_stage()
                changed = True

    # -- task execution --------------------------------------------------------

    def _clear_spec(self, t: _Task) -> None:
        t.spec_runner = None
        t.spec_started_at = None
        t.spec_work_left = 0.0
        t.spec_input_left = 0.0

    def _release_moved_tasks(self, assignment: Mapping[str, Stage]) -> None:
        """Drop task claims of pods now assigned elsewhere (or idled).

        A moved primary keeps its partial progress (the share stays
        attributable as useful work); a moved speculative copy is
        abandoned and its progress counted as waste. Releasing idle
        pods' claims matters for liveness: an unreleased claim would
        block every other executor from ever picking the task up."""
        for stage_name, rt in self._runtime.items():
            for t in rt.tasks:
                if t.done:
                    continue
                if t.runner is not None:
                    target = assignment.get(t.runner)
                    if target is None or target.name != stage_name:
                        t.runner = None
                        t.started_at = None
                if t.spec_runner is not None:
                    target = assignment.get(t.spec_runner)
                    if target is None or target.name != stage_name:
                        self.ft_wasted_work += t.spec_progress()
                        self._clear_spec(t)

    def _held_task(self, rt: _StageTasks, pod_name: str) -> tuple[_Task, bool] | None:
        """The (task, is_primary) this pod currently runs in ``rt``."""
        for t in rt.tasks:
            if t.done:
                continue
            if t.runner == pod_name:
                return t, True
            if t.spec_runner == pod_name:
                return t, False
        return None

    def _claim_task(
        self, rt: _StageTasks, pod_name: str, now: float
    ) -> tuple[_Task, bool] | None:
        for t in rt.tasks:
            if not t.done and t.runner is None and t.dispatch_after <= now:
                t.runner = pod_name
                t.started_at = now
                return t, True
        if rt.done_count() >= SPECULATION_QUANTILE * len(rt.tasks):
            candidates = [
                t
                for t in rt.tasks
                if not t.done
                and t.runner is not None
                and t.runner != pod_name
                and not t.speculating
                and self._slow_ticks.get(t.runner, 0) >= STRAGGLER_PATIENCE
            ]
            if candidates:
                t = min(candidates, key=lambda t: (t.started_at, t.index))
                t.spec_runner = pod_name
                t.spec_started_at = now
                t.spec_work_left = t.work
                t.spec_input_left = t.input_mb
                self.speculative_launched += 1
                if self.telemetry is not None:
                    self.telemetry.tracer.instant(
                        "speculation_launch", "dp", job=self.name,
                        stage=rt.stage.name, task=t.index,
                        straggler=t.runner, duplicate=pod_name,
                    )
                return t, False
        return None

    def _advance_pod_ft(
        self, pod: Pod, rt: _StageTasks, dt: float, now: float
    ) -> float:
        """Run one executor inside one stage for ``dt``; returns retired work.

        The executor drains its claimed task and, with leftover tick
        budget, pulls further pending tasks — so task granularity does
        not throttle throughput below the fluid model's."""
        stage = rt.stage
        cpu_rate = pod.allocation.cpu
        node = None
        if pod.node_name is not None:
            try:
                node = self.api.get_node(pod.node_name)
            except NodeNotFound:  # pragma: no cover - nodes are never removed
                node = None
        if node is not None:
            cpu_rate *= node.speed_factor
            if (
                stage.accel_speedup > 1.0
                and self.accelerator is not None
                and node.labels.get("accelerator") == self.accelerator
            ):
                cpu_rate *= stage.accel_speedup
        if cpu_rate <= 0:
            pod.record_usage(ResourceVector(memory=min(0.25, pod.allocation.memory)))
            return 0.0
        local_frac, in_bw = self._input_locality(pod, stage)
        budget = dt
        retired = 0.0
        io_mb = 0.0
        while budget > _TASK_EPS:
            held = self._held_task(rt, pod.name)
            if held is None:
                held = self._claim_task(rt, pod.name, now)
            if held is None:
                break
            t, primary = held
            work_left = t.work_left if primary else t.spec_work_left
            input_left = t.input_left if primary else t.spec_input_left
            if t.input_mb > 0 and input_left > _TASK_EPS:
                frac_rate = min(cpu_rate / t.work, in_bw / t.input_mb)
            else:
                frac_rate = cpu_rate / t.work
            if frac_rate <= 0:
                break
            time_to_finish = (work_left / t.work) / frac_rate
            step = min(budget, time_to_finish)
            dw = min(frac_rate * t.work * step, work_left)
            di = (
                min(frac_rate * t.input_mb * step, input_left)
                if input_left > 0
                else 0.0
            )
            if primary:
                t.work_left = max(0.0, t.work_left - dw)
                t.input_left = max(0.0, t.input_left - di)
                finished = t.work_left <= _TASK_EPS and t.input_left <= _TASK_EPS
            else:
                t.spec_work_left = max(0.0, t.spec_work_left - dw)
                t.spec_input_left = max(0.0, t.spec_input_left - di)
                finished = (
                    t.spec_work_left <= _TASK_EPS
                    and t.spec_input_left <= _TASK_EPS
                )
            retired += dw
            io_mb += di
            budget -= max(step, _TASK_EPS)
            self.ft_retired_work += dw
            if finished:
                self._finish_task(t, primary, pod)
        io_rate = io_mb / dt
        pod.record_usage(
            ResourceVector(
                cpu=min(retired / dt, pod.allocation.cpu),
                memory=min(pod.allocation.memory, 0.5 + 0.1 * pod.allocation.cpu),
                disk_bw=io_rate * local_frac,
                net_bw=io_rate * (1 - local_frac),
            )
        )
        return retired

    def _finish_task(self, t: _Task, primary: bool, pod: Pod) -> None:
        """Retire a task copy; the losing duplicate's progress is waste."""
        if primary:
            if t.speculating:
                self.ft_wasted_work += t.spec_progress()
                self._clear_spec(t)
        else:
            self.ft_wasted_work += t.work - t.work_left
            self.speculative_wins += 1
            if self.telemetry is not None:
                self.telemetry.tracer.instant(
                    "speculation_win", "dp", job=self.name,
                    task=t.index, winner=pod.name, loser=t.runner,
                )
            t.runner = pod.name
            self._clear_spec(t)
        t.done = True
        t.work_left = 0.0
        t.input_left = 0.0
        t.output_node = pod.node_name
        t.output_epoch = (
            self._node_wipes.get(pod.node_name, 0) if pod.node_name else 0
        )

    def _update_stragglers(self, stage_rates: dict[str, dict[str, float]]) -> None:
        """Track executors persistently below their stage's median rate."""
        active: set[str] = set()
        for rates in stage_rates.values():
            active |= set(rates)
            if len(rates) < 3:
                continue  # median is meaningless for tiny pools
            median = statistics.median(rates.values())
            if median <= 0:
                continue
            threshold = STRAGGLER_RATE * median
            for pod_name, rate in rates.items():
                if rate < threshold:
                    self._slow_ticks[pod_name] = self._slow_ticks.get(pod_name, 0) + 1
                else:
                    self._slow_ticks.pop(pod_name, None)
        for pod_name in list(self._slow_ticks):
            if pod_name not in active:
                self._slow_ticks.pop(pod_name)

    # -- conservation ledger ---------------------------------------------------

    def ft_accounting(self) -> dict[str, float] | None:
        """Work-conservation ledger: retired = useful + spec + waste + reopened."""
        if not self.ft:
            return None
        runtimes = self._runtime.values()
        useful = sum([rt.useful_work() for rt in runtimes])
        spec_inflight = sum([rt.spec_inflight() for rt in runtimes])
        return {
            "retired": self.ft_retired_work,
            "useful": useful,
            "spec_inflight": spec_inflight,
            "wasted": self.ft_wasted_work,
            "reopened": self.ft_reopened_work,
        }

    # -- metrics -------------------------------------------------------------------

    def sample_metrics(self, now: float) -> dict[str, float]:
        metrics = super().sample_metrics(now)
        metrics["progress"] = self.progress()  # what a DeadlinePLO reads
        return metrics


# -- BatchBench-style batch mixes -----------------------------------------------
#
# Builders for the workload-aware batch shapes BatchBench argues autoscaler
# evaluation needs: deadline-bearing fork-join DAGs, skewed fan-outs with
# stragglers, and recurring pipelines. They produce plain ``Stage`` lists /
# submissions, so every engine feature above (FT, speculation, lineage)
# applies unchanged.


def fork_join_stages(
    *,
    width: int = 4,
    source_work: float = 300.0,
    branch_work: float = 600.0,
    join_work: float = 200.0,
    input_mb: float = 512.0,
    branch_parallelism: int = 16,
    accel_speedup: float = 1.0,
) -> list[Stage]:
    """A deterministic fork-join DAG: source → ``width`` branches → join.

    The canonical deadline-job shape — submit with
    ``platform.submit_bigdata(..., deadline=...)`` to get a
    deadline-bearing DAG job whose critical path is one branch.
    """
    if width < 1:
        raise ValueError("width must be ≥ 1")
    stages = [Stage("source", source_work, input_mb=input_mb)]
    for i in range(width):
        stages.append(
            Stage(
                f"branch-{i}",
                branch_work,
                input_mb=input_mb / width,
                deps=("source",),
                max_parallelism=branch_parallelism,
                accel_speedup=accel_speedup,
            )
        )
    stages.append(
        Stage(
            "join",
            join_work,
            input_mb=input_mb / 4,
            deps=tuple(f"branch-{i}" for i in range(width)),
        )
    )
    return stages


def skewed_fanout_stages(
    rng,
    *,
    fanout: int = 8,
    base_work: float = 400.0,
    skew_alpha: float = 1.3,
    straggler_factor: float = 4.0,
    source_work: float = 200.0,
    input_mb: float = 256.0,
    join_work: float = 150.0,
    branch_parallelism: int = 8,
) -> list[Stage]:
    """A fan-out whose branch work is Pareto-skewed, with one straggler.

    Per-branch work is ``base_work · (1 + Pareto(skew_alpha))`` — a few
    branches dominate, as skewed shuffle partitions do — and one branch
    (chosen by ``rng``) is further multiplied by ``straggler_factor``.
    Draws come from ``rng`` (use a named stream, e.g.
    ``workload/<job>/mix``) so the mix is seed-deterministic.
    """
    if fanout < 1:
        raise ValueError("fanout must be ≥ 1")
    if skew_alpha <= 0 or straggler_factor < 1:
        raise ValueError("skew_alpha must be > 0 and straggler_factor ≥ 1")
    multipliers = 1.0 + rng.pareto(skew_alpha, size=fanout)
    straggler = int(rng.integers(fanout))
    stages = [Stage("source", source_work, input_mb=input_mb)]
    for i in range(fanout):
        work = base_work * float(multipliers[i])
        if i == straggler:
            work *= straggler_factor
        stages.append(
            Stage(
                f"part-{i}",
                work,
                input_mb=input_mb / fanout,
                deps=("source",),
                max_parallelism=branch_parallelism,
            )
        )
    stages.append(
        Stage(
            "merge",
            join_work,
            input_mb=input_mb / 4,
            deps=tuple(f"part-{i}" for i in range(fanout)),
        )
    )
    return stages


class RecurringPipeline:
    """Periodic re-submission of a DAG job (the nightly-ETL shape).

    ``runs`` jobs are created up front, one per period:
    ``submit(name, stages, run_index)`` is called for each and must
    arrange the actual start at ``start + run_index · period`` (the
    platform's deferred-start submission does exactly that — see
    :meth:`repro.platform.evolve.EvolvePlatform.submit_recurring_pipeline`).
    ``stages_factory(run_index)`` builds each run's DAG, so runs may
    vary (e.g. a seeded skewed fan-out per run).
    """

    def __init__(
        self,
        submit,
        *,
        name: str,
        stages_factory,
        period: float,
        runs: int,
        start: float = 0.0,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        if runs < 1:
            raise ValueError("runs must be ≥ 1")
        if start < 0:
            raise ValueError("start must be non-negative")
        self.name = name
        self.period = float(period)
        self.runs = int(runs)
        self.start = float(start)
        self.jobs: list[BigDataJob] = [
            submit(f"{name}-r{i}", stages_factory(i), i) for i in range(runs)
        ]

    def makespans(self) -> list[float]:
        """Per-run submission-to-completion times for finished runs."""
        return [s for s in (job.makespan() for job in self.jobs) if s is not None]
