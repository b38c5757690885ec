"""Bottleneck attribution: which resource is responsible for the error.

A single scalar PID output must be turned into per-dimension allocation
changes. The estimator inspects per-resource *saturation* — how close
measured usage sits to the current allocation — and produces:

* **grow weights**: dimensions that are saturated (usage ≈ allocation)
  while the PLO is violated are the ones throttling the application and
  receive the scale-up signal;
* **reclaim weights**: dimensions with ample headroom receive the
  scale-down signal when the application overachieves.

Saturation is a robust signal under the Guaranteed-QoS enforcement the
cluster applies: a pod cannot consume beyond its allocation, so a
bottlenecked dimension pins usage at the allocation ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.resources import RESOURCES, ResourceVector

#: Saturation above which a dimension is a bottleneck candidate for
#: scale-up.
GROW_THRESHOLD = 0.85
#: Saturation below which a dimension is reclaimable.
RECLAIM_THRESHOLD = 0.6
#: Extra caution multiplier on memory reclaim weights (shrinking memory
#: too eagerly causes thrashing before the controller can recover).
MEMORY_HEADROOM = 0.5


@dataclass(frozen=True)
class SaturationSnapshot:
    """Per-dimension usage/allocation fractions for one application."""

    fractions: dict[str, float]

    @classmethod
    def from_vectors(
        cls, usage: ResourceVector, allocation: ResourceVector
    ) -> "SaturationSnapshot":
        fractions = {}
        for name in RESOURCES:
            alloc = allocation[name]
            fractions[name] = usage[name] / alloc if alloc > 0 else 0.0
        return cls(fractions)

    def most_saturated(self) -> str:
        return max(RESOURCES, key=lambda n: self.fractions[n])


class BottleneckEstimator:
    """Attribute control effort to resource dimensions."""

    def grow_weights(self, snapshot: SaturationSnapshot) -> dict[str, float]:
        """Weights in [0, 1] per dimension for distributing scale-up.

        Saturated dimensions get weight proportional to how far past the
        threshold they are; if nothing crosses the threshold (a transient
        violation with headroom everywhere), the most saturated dimension
        gets full weight so the controller still acts.
        """
        weights: dict[str, float] = {}
        for name in RESOURCES:
            sat = snapshot.fractions[name]
            if sat >= GROW_THRESHOLD:
                weights[name] = min(
                    1.0,
                    (sat - GROW_THRESHOLD) / (1 - GROW_THRESHOLD) + 0.25,
                )
            else:
                weights[name] = 0.0
        if all(w == 0.0 for w in weights.values()):
            weights[snapshot.most_saturated()] = 1.0
        return weights

    def reclaim_weights(self, snapshot: SaturationSnapshot) -> dict[str, float]:
        """Weights in [0, 1] per dimension for distributing scale-down.

        Only dimensions with comfortable headroom shrink; memory shrinks
        more cautiously (see :data:`MEMORY_HEADROOM`).
        """
        weights: dict[str, float] = {}
        for name in RESOURCES:
            sat = snapshot.fractions[name]
            if sat <= RECLAIM_THRESHOLD:
                weight = 1.0 - sat / RECLAIM_THRESHOLD
                if name == "memory":
                    weight *= MEMORY_HEADROOM
                weights[name] = weight
            else:
                weights[name] = 0.0
        return weights
