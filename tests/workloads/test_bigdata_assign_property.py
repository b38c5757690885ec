"""Property tests for executor assignment (hypothesis).

``BigDataJob._assign_executors`` is the one piece of scheduling logic
shared verbatim between the fluid model and the fault-tolerant
task-granular engine, so its invariants are load-bearing twice over:

* no stage ever receives more executors than its ``max_parallelism``;
* the assignment is work-conserving — executors idle only once every
  runnable stage is saturated;
* filling is balanced — stages that never hit their cap end within one
  executor of each other;
* the result is a pure function of its inputs (determinism is what the
  seeded-replay contract of the whole simulator rests on);
* it is exactly the assignment of the original min-first loop, kept
  below as the reference: pod → stage mapping and insertion order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.bigdata import BigDataJob, Stage


class _FakePod:
    """Assignment only reads ``pod.name``; a stub keeps the test pure."""

    def __init__(self, name: str):
        self.name = name


def _assign(stages, pods):
    # _assign_executors never touches self: call it unbound so the
    # property holds for any job configuration.
    return BigDataJob._assign_executors(None, stages, pods)


def _min_first(stages, pods):
    """Reference: give each pod, in order, to the open stage holding the
    fewest executors; topological order breaks ties."""
    assignment = {}
    counts = {stage.name: 0 for stage in stages}
    pending = list(pods)
    while pending:
        open_stages = [s for s in stages if counts[s.name] < s.max_parallelism]
        if not open_stages:
            break
        target = min(open_stages, key=lambda s: counts[s.name])
        pod = pending.pop(0)
        assignment[pod.name] = target
        counts[target.name] += 1
    return assignment


def _make_stages(caps):
    return [
        Stage(f"s{i}", 100.0, max_parallelism=cap)
        for i, cap in enumerate(caps)
    ]


stage_lists = st.lists(
    st.integers(min_value=1, max_value=6), min_size=1, max_size=5
).map(_make_stages)

pod_lists = st.integers(min_value=0, max_value=24).map(
    lambda n: [_FakePod(f"exec-{i}") for i in range(n)]
)


@settings(max_examples=200, deadline=None)
@given(stages=stage_lists, pods=pod_lists)
def test_assignment_invariants(stages, pods):
    assignment = _assign(stages, pods)

    counts = {s.name: 0 for s in stages}
    for stage in assignment.values():
        counts[stage.name] += 1

    # Parallelism caps are hard limits.
    for s in stages:
        assert counts[s.name] <= s.max_parallelism

    # Work conservation: every executor is assigned until the stages
    # collectively saturate; only then do leftovers idle.
    capacity = sum(s.max_parallelism for s in stages)
    assert len(assignment) == min(len(pods), capacity)

    # Executors are consumed in order: exactly the first k pods run.
    expected = [p.name for p in pods[: len(assignment)]]
    assert sorted(assignment) == sorted(expected)

    # Balance: stages still below their cap at the end were available
    # to every round of the fill, so round-robin keeps them within one.
    open_counts = [
        counts[s.name] for s in stages if counts[s.name] < s.max_parallelism
    ]
    if open_counts:
        assert max(open_counts) - min(open_counts) <= 1

    # Determinism: same inputs, same assignment, object-for-object.
    again = _assign(stages, pods)
    assert {p: s.name for p, s in again.items()} == {
        p: s.name for p, s in assignment.items()
    }


@settings(max_examples=200, deadline=None)
@given(stages=stage_lists, pods=pod_lists)
def test_assignment_matches_min_first_reference(stages, pods):
    got = [(pod, stage.name) for pod, stage in _assign(stages, pods).items()]
    want = [(pod, stage.name) for pod, stage in _min_first(stages, pods).items()]
    assert got == want
