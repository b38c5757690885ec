"""The table-driven shrinker against the block-per-field shrinker it
replaced.

``reference_shrink`` is the earlier :func:`repro.verify.fuzzer.shrink`,
one hand-written block per reducible field. Both must evaluate the same
candidates in the same order and return the same spec, for every
predicate. The predicates are pure functions of the spec, so no
simulation runs.
"""

import dataclasses
import json
import zlib
from dataclasses import replace

import pytest

from repro.verify.fuzzer import (
    MAX_SHRINK_EVALS,
    MIN_HORIZON,
    generate_scenario,
    shrink,
)


def reference_shrink(spec, still_fails):
    evals = 0

    def attempt(candidate) -> bool:
        nonlocal evals
        if evals >= MAX_SHRINK_EVALS:
            return False
        evals += 1
        return still_fails(candidate)

    current = spec
    improved = True
    while improved and evals < MAX_SHRINK_EVALS:
        improved = False
        for i in range(len(current.workloads)):
            candidate = replace(
                current,
                workloads=current.workloads[:i] + current.workloads[i + 1:],
            )
            if attempt(candidate):
                current = candidate
                improved = True
                break
        if improved:
            continue
        for i in range(len(current.chaos)):
            candidate = replace(
                current, chaos=current.chaos[:i] + current.chaos[i + 1:]
            )
            if attempt(candidate):
                current = candidate
                improved = True
                break
        if improved:
            continue
        if current.controller_replicas > 1:
            candidate = replace(current, controller_replicas=1)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.zones > 1:
            candidate = replace(current, zones=1)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.overload:
            candidate = replace(current, overload=False)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.ft:
            candidate = replace(current, ft=False)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.surge:
            candidate = replace(current, surge=False)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.heavy_tail:
            candidate = replace(current, heavy_tail=False)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.arrival_model != "rate":
            candidate = replace(current, arrival_model="rate")
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.horizon > MIN_HORIZON:
            candidate = replace(
                current, horizon=max(MIN_HORIZON, current.horizon / 2)
            )
            if attempt(candidate):
                current = candidate
                improved = True
    return current


def _digest(spec) -> int:
    return zlib.crc32(json.dumps(spec.to_dict(), sort_keys=True).encode())


#: Pure failure predicates: each keeps a different part of the spec.
PREDICATES = {
    "always": lambda s: True,
    "never": lambda s: False,
    "micro-or-ft": lambda s: s.ft or any(w.kind == "micro" for w in s.workloads),
    "chaos-and-long": lambda s: bool(s.chaos) and s.horizon >= 120.0,
    "trace-models": lambda s: s.surge or s.arrival_model == "mmpp",
    "hashed": lambda s: _digest(s) % 3 != 0,
}


def _specs():
    for index in range(36):
        spec = generate_scenario(7, index)
        yield spec
        # Every reducible field armed, so every move of the table runs.
        yield dataclasses.replace(
            spec,
            controller_replicas=3,
            zones=3,
            overload=True,
            ft=True,
            surge=True,
            heavy_tail=True,
            arrival_model="mmpp",
        )


@pytest.mark.parametrize("name", PREDICATES)
def test_shrink_matches_reference(name):
    predicate = PREDICATES[name]
    for spec in _specs():
        seen, expected = [], []
        got = shrink(spec, lambda s: seen.append(s) or predicate(s))
        want = reference_shrink(
            spec, lambda s: expected.append(s) or predicate(s)
        )
        assert got == want
        assert seen == expected
