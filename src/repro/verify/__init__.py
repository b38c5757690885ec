"""Simulation correctness harness: invariants + scenario fuzzing.

``repro.verify`` turns the platform's safety properties into
machine-checked contracts:

* :mod:`repro.verify.invariants` — a registry of cluster-wide safety
  invariants (resource conservation, no double-bind, gang atomicity,
  single lease holder, WAL discipline, event-heap integrity, load-shed
  conservation) evaluated at engine timestamp boundaries through
  :meth:`repro.sim.engine.Engine.add_cycle_hook`.
* :mod:`repro.verify.fuzzer` — a seeded scenario fuzzer that composes
  workload mixes, chaos schedules, and controller configs into short
  episodes, and shrinks any violating scenario to a minimal replayable
  JSON repro (``repro fuzz``).

This module intentionally does not import the fuzzer: the fuzzer pulls
in :mod:`repro.platform.evolve`, which itself attaches an
:class:`~repro.verify.invariants.InvariantChecker` when asked to, and
the one-way dependency keeps imports acyclic.
"""

from repro.verify.invariants import (
    CheckContext,
    Invariant,
    InvariantChecker,
    Violation,
    default_invariants,
)

__all__ = [
    "CheckContext",
    "Invariant",
    "InvariantChecker",
    "Violation",
    "default_invariants",
]
