"""Integration tests: the checker on a live platform.

Covers the wiring half of the harness: `InvariantChecker.attach`
installs the registry through the engine cycle hook, seeded runs are
bit-identical with the checker on or off, a stride of 32 stays within
its profiled overhead budget, an every-cycle audit stays within its
profiled calls-per-check budget, and a corruption planted mid-run is
caught while the platform is driving real workloads.
"""

import cProfile

from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.verify import fuzzer
from repro.verify.invariants import InvariantChecker
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import DiurnalTrace


def _build(seed=21, *, every=None, replicas=1):
    """The test platform, with a checker attached at stride ``every``
    before any workload is deployed (None: no checker)."""
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=seed, controller_replicas=replicas),
        policy="adaptive",
    )
    checker = None
    if every is not None:
        checker = InvariantChecker.attach(platform, every=every)
    platform.deploy_microservice(
        "web",
        trace=DiurnalTrace(base=150, amplitude=90, period=600),
        demands=ServiceDemands(cpu_seconds=0.006, base_latency=0.005),
        allocation=ResourceVector(cpu=1, memory=2, disk_bw=10, net_bw=30),
        plo=LatencyPLO(0.05, window=30),
        replicas=2,
    )
    platform.submit_hpc(
        "mpi",
        ranks=3,
        duration=120.0,
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=5, net_bw=40),
        delay=30.0,
    )
    return platform, checker


class TestPlatformWiring:
    def test_config_attaches_checker(self):
        platform, checker = _build(every=32)
        assert checker is not None
        assert checker.every == 32
        platform.run(300.0)
        assert checker.cycles_seen > 0
        assert checker.checks_run > 0
        assert checker.ok, checker.report()

    def test_attach_defaults_to_every_cycle(self):
        platform, _ = _build()
        assert InvariantChecker.attach(platform).every == 1

    def test_checker_off_by_default(self):
        platform, checker = _build()
        assert checker is None
        assert not platform.engine._cycle_hooks

    def test_clean_run_with_every_cycle_checking(self):
        platform, checker = _build(every=1, replicas=3)
        platform.run(400.0)
        checker.final_check()
        assert checker.ok, checker.report()
        assert checker.checks_run == checker.cycles_seen + 1

    def test_injected_double_bind_caught_mid_run(self):
        platform, checker = _build(every=1)
        cluster = platform.cluster

        def corrupt():
            for pod in cluster.pods.values():
                if pod.active and pod.node_name is not None:
                    for node in cluster.nodes.values():
                        if node.name != pod.node_name and node.can_fit(
                            pod.allocation
                        ):
                            node.bind(pod)
                            return

        platform.engine.schedule_at(60.0, corrupt)
        platform.run(300.0)
        assert not checker.ok
        assert any(
            v.invariant == "no-double-bind" and "bound to 2 nodes" in v.detail
            for v in checker.violations
        )
        # Caught at the first audited boundary after the corruption.
        first = min(v.time for v in checker.violations)
        assert 60.0 <= first <= 70.0

    def test_final_check_covers_the_last_batch(self):
        # Cycle hooks fire *between* timestamps, so corruption in the
        # run's final events is only visible to an explicit final pass.
        platform, checker = _build(every=1)
        platform.run(120.0)
        node = platform.cluster.get_node("node-00")
        node._allocated = node._allocated + ResourceVector(
            cpu=1, memory=0, disk_bw=0, net_bw=0
        )
        assert checker.ok
        fresh = checker.final_check()
        assert any("allocation drift" in v.detail for v in fresh)


class TestBitIdentity:
    def _fingerprint(self, platform):
        series = platform.collector.series("app/web/latency")
        times, values = series.to_lists()
        assert times, "fingerprint series must not be empty"
        return platform.engine.events_executed, times, values

    def test_checker_on_off_bit_identical(self):
        base, _ = _build(seed=33)
        base.run(600.0)
        checked, checker = _build(seed=33, every=1)
        checked.run(600.0)
        assert checker.checks_run > 0
        assert self._fingerprint(base) == self._fingerprint(checked)

    def test_stride_does_not_change_the_run(self):
        a, _ = _build(seed=33, every=1)
        a.run(600.0)
        b, _ = _build(seed=33, every=64)
        b.run(600.0)
        assert self._fingerprint(a) == self._fingerprint(b)


class TestOverheadBudget:
    def test_default_stride_within_five_percent_call_budget(self):
        # A stride of 32 must keep the checker within a 5% profiled-call
        # budget on a control-loop-heavy run. Call counts in a seeded
        # simulation are deterministic, so this is a stable gate, not a
        # wall-clock flake.
        def calls(every):
            platform, _ = _build(seed=21, every=every)
            profile = cProfile.Profile()
            profile.enable()
            platform.run(1800.0)
            profile.disable()
            return sum(
                entry.callcount for entry in profile.getstats()
            )

        baseline = calls(None)
        checked = calls(32)
        overhead = (checked - baseline) / baseline
        assert overhead < 0.05, f"checker call overhead {overhead:.1%}"

    def test_every_cycle_call_budget(self):
        # Profiled calls per audit of the full registry at every=1 on
        # seed-7 fuzz episode 7 (three FT big-data jobs under data-loss
        # chaos): the episode's calls minus those of the same episode
        # with an empty registry, per check. Measured 133 (Python 3.11);
        # the budget is that plus ~25%. The run is seeded, so the count
        # is the same on every machine.
        spec = fuzzer.generate_scenario(7, 7)

        def calls(invariants):
            profile = cProfile.Profile()
            result = profile.runcall(
                fuzzer.run_episode, spec, every=1, invariants=invariants
            )
            return sum(entry.callcount for entry in profile.getstats()), result

        fuzzer.run_episode(spec)  # first-run caches stay out of both counts
        bare, _ = calls([])
        audited, result = calls(None)
        per_check = (audited - bare) / result.checks_run
        assert per_check < 167, f"{per_check:.0f} profiled calls per check"


class TestWalReplayIdempotence:
    def test_second_restore_is_all_dedupe(self):
        # End-to-end strong idempotence behind the wal-discipline
        # invariant: after a real failover replayed the WAL tail, a
        # second replay must deduplicate every record — re-issuing an
        # absolute resize target the cluster already reflects would
        # trample concurrent changes.
        platform, checker = _build(seed=5, every=1, replicas=3)
        plane = platform.control_plane
        platform.run(400.0)
        assert platform.statestore.wal, "adaptive run should log actuations"
        leader = plane.leader_index()
        assert leader is not None
        plane.crash_replica(leader)
        platform.run(200.0)
        assert plane.failovers, "crashing the leader should fail over"
        assert checker.ok, checker.report()
        new_leader = plane.leader_index()
        assert new_leader is not None and new_leader != leader
        stats = plane._restore(plane.replicas[new_leader].manager)
        assert stats["wal_reissued"] == 0
        assert stats["wal_failed"] == 0
        assert stats["wal_deduped"] >= 1
