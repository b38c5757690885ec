"""Multi-dimensional resource vectors.

The controller manages four resources per application, following the
multi-resource control design the paper's calibration calls out:

* ``cpu`` — cores
* ``memory`` — GiB
* ``disk_bw`` — disk I/O bandwidth, MB/s
* ``net_bw`` — network bandwidth, MB/s

:class:`ResourceVector` is the value type used for node capacities, pod
requests/allocations, and measured usage. It is immutable; arithmetic
returns new vectors.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping

#: Canonical resource dimension names, in controller order.
RESOURCES: tuple[str, ...] = ("cpu", "memory", "disk_bw", "net_bw")

# Vector construction dominates several simulator hot loops (usage
# recording, scrape aggregation, node accounting): ``_from_fields``
# builds one with a single tuple.__new__, without __new__'s float()
# coercions.
_tuple_new = tuple.__new__


class ResourceVector(namedtuple("_ResourceFields", RESOURCES)):
    """Immutable 4-dimensional resource quantity.

    Supports elementwise arithmetic (``+``, ``-``, scalar ``*`` / ``/``),
    elementwise comparisons via :meth:`fits_within`, and convenience
    constructors. Negative intermediate values are permitted (useful for
    headroom math); use :meth:`clamp_nonnegative` before treating a vector
    as a physical quantity.

    The fields live in a tuple, which makes a vector immutable, but a
    vector is not a sequence of numbers: it never equals a plain tuple,
    indexing takes a dimension name (``vec[0]`` raises ``KeyError``), and
    a NaN field makes it unequal to itself, as a field-by-field
    comparison does.
    """

    __slots__ = ()

    def __new__(
        cls,
        cpu: float = 0.0,
        memory: float = 0.0,
        disk_bw: float = 0.0,
        net_bw: float = 0.0,
    ):
        return _tuple_new(
            cls, (float(cpu), float(memory), float(disk_bw), float(net_bw))
        )

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ResourceVector":
        """The all-zeros vector (shared instance; vectors are immutable)."""
        if cls is ResourceVector:
            return _ZERO
        return cls()

    @classmethod
    def uniform(cls, value: float) -> "ResourceVector":
        """A vector with every dimension set to ``value``."""
        return cls(value, value, value, value)

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "ResourceVector":
        """Build from a mapping; missing dimensions default to 0.

        Raises ``KeyError`` on unknown dimension names so typos fail loudly.
        """
        unknown = set(data) - set(RESOURCES)
        if unknown:
            raise KeyError(f"unknown resource dimensions: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in data.items()})

    # -- accessors ---------------------------------------------------------

    def __getitem__(self, name: str) -> float:
        if name not in RESOURCES:
            raise KeyError(f"unknown resource dimension: {name!r}")
        return getattr(self, name)

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view, keyed by :data:`RESOURCES` names."""
        return {
            "cpu": self.cpu,
            "memory": self.memory,
            "disk_bw": self.disk_bw,
            "net_bw": self.net_bw,
        }

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _from_fields(
        cpu: float, memory: float, disk_bw: float, net_bw: float
    ) -> "ResourceVector":
        """Fast constructor for values already known to be floats."""
        return _tuple_new(ResourceVector, (cpu, memory, disk_bw, net_bw))

    def _combine(self, other: "ResourceVector", op) -> "ResourceVector":
        return ResourceVector._from_fields(
            op(self.cpu, other.cpu),
            op(self.memory, other.memory),
            op(self.disk_bw, other.disk_bw),
            op(self.net_bw, other.net_bw),
        )

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector._from_fields(
            self.cpu + other.cpu,
            self.memory + other.memory,
            self.disk_bw + other.disk_bw,
            self.net_bw + other.net_bw,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector._from_fields(
            self.cpu - other.cpu,
            self.memory - other.memory,
            self.disk_bw - other.disk_bw,
            self.net_bw - other.net_bw,
        )

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector._from_fields(
            self.cpu * scalar,
            self.memory * scalar,
            self.disk_bw * scalar,
            self.net_bw * scalar,
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "ResourceVector":
        return ResourceVector._from_fields(
            self.cpu / scalar,
            self.memory / scalar,
            self.disk_bw / scalar,
            self.net_bw / scalar,
        )

    def elementwise_min(self, other: "ResourceVector") -> "ResourceVector":
        return self._combine(other, min)

    def elementwise_max(self, other: "ResourceVector") -> "ResourceVector":
        return self._combine(other, max)

    def clamp_nonnegative(self) -> "ResourceVector":
        """Replace negative components with 0."""
        cpu, memory, disk_bw, net_bw = self.cpu, self.memory, self.disk_bw, self.net_bw
        if cpu >= 0.0 and memory >= 0.0 and disk_bw >= 0.0 and net_bw >= 0.0:
            return self
        return ResourceVector._from_fields(
            cpu if cpu > 0.0 else 0.0,
            memory if memory > 0.0 else 0.0,
            disk_bw if disk_bw > 0.0 else 0.0,
            net_bw if net_bw > 0.0 else 0.0,
        )

    def clamp(self, lo: "ResourceVector", hi: "ResourceVector") -> "ResourceVector":
        """Clamp each dimension into ``[lo, hi]``."""
        return self.elementwise_max(lo).elementwise_min(hi)

    def replace(self, **updates: float) -> "ResourceVector":
        """Return a copy with the given dimensions overwritten."""
        values = self.as_dict()
        for name, value in updates.items():
            if name not in RESOURCES:
                raise KeyError(f"unknown resource dimension: {name!r}")
            values[name] = float(value)
        return ResourceVector(**values)

    # -- predicates / reductions ----------------------------------------------

    def fits_within(self, other: "ResourceVector", *, tolerance: float = 1e-9) -> bool:
        """True when every dimension is ≤ the other's (within tolerance)."""
        return (
            self.cpu <= other.cpu + tolerance
            and self.memory <= other.memory + tolerance
            and self.disk_bw <= other.disk_bw + tolerance
            and self.net_bw <= other.net_bw + tolerance
        )

    def is_zero(self, *, tolerance: float = 1e-12) -> bool:
        return all(abs(v) <= tolerance for v in self)

    def any_negative(self, *, tolerance: float = 1e-9) -> bool:
        return (
            self.cpu < -tolerance
            or self.memory < -tolerance
            or self.disk_bw < -tolerance
            or self.net_bw < -tolerance
        )

    def total_fraction_of(self, capacity: "ResourceVector") -> dict[str, float]:
        """Per-dimension fraction of ``capacity`` (0 where capacity is 0)."""
        result = {}
        for name in RESOURCES:
            cap = getattr(capacity, name)
            result[name] = (getattr(self, name) / cap) if cap > 0 else 0.0
        return result

    def dominant_share(self, capacity: "ResourceVector") -> float:
        """Max fraction across dimensions (DRF-style dominant share)."""
        return max(self.total_fraction_of(capacity).values(), default=0.0)

    def bottleneck(self, capacity: "ResourceVector") -> str:
        """Name of the dimension with the highest fraction of capacity."""
        fractions = self.total_fraction_of(capacity)
        return max(RESOURCES, key=lambda n: fractions[n])

    # -- dunder plumbing ------------------------------------------------------

    # Field by field, not tuple equality, which takes identical floats as
    # equal: a NaN field keeps a vector unequal even to itself.
    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceVector):
            return (
                self.cpu == other.cpu
                and self.memory == other.memory
                and self.disk_bw == other.disk_bw
                and self.net_bw == other.net_bw
            )
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    # hash((cpu, memory, disk_bw, net_bw)), as a plain tuple hashes.
    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}={getattr(self, n):g}" for n in RESOURCES)
        return f"ResourceVector({parts})"

    def approx_equal(self, other: "ResourceVector", *, tolerance: float = 1e-9) -> bool:
        """Elementwise closeness check for tests and invariants."""
        return all(
            abs(getattr(self, n) - getattr(other, n)) <= tolerance for n in RESOURCES
        )


#: Shared all-zeros vector returned by :meth:`ResourceVector.zero`.
_ZERO = ResourceVector()
