"""Pluggable autoscaler-policy registry.

Policies are decoupled from the platform and the control loop: anything
implementing the :class:`AutoscalerPolicy` protocol can be registered
under a name and selected with ``EvolvePlatform(policy="<name>")``, the
``repro`` CLI, config files, and the arena harness (``repro arena``).

Registering a policy::

    from repro.autoscaler.registry import register_policy

    @register_policy("my-policy")
    def _build(ctx, **kwargs):
        return MyPolicy(ctx.engine, ctx.collector, **kwargs)

The factory receives a :class:`PolicyContext` carrying every platform
handle a policy may need (engine, collector, allocation bounds, named
RNG streams, fault log, overload config). Factories must draw RNG only
through ``ctx.rng_stream(name)`` — streams are derived from the stream
name, not creation order, so seeded runs stay bit-identical no matter
how many policies are registered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # imports for annotations only; keep runtime deps thin
    from repro.cluster.chaos import FaultLog
    from repro.control.multiresource import AllocationBounds
    from repro.metrics.collector import MetricsCollector
    from repro.platform.config import OverloadConfig
    from repro.sim.engine import Engine
    from repro.workloads.base import Application


@runtime_checkable
class AutoscalerPolicy(Protocol):
    """The contract every registered policy must satisfy.

    A policy manages a set of attached applications and actuates them
    exclusively through the application-level verbs
    (:meth:`Application.scale_to` / :meth:`Application.set_target_allocation`)
    or the cluster API — never by mutating cluster state directly.
    """

    #: Human-readable name used in reports and scorecards.
    policy_name: str

    def attach(self, app: "Application") -> None:
        """Put ``app`` under this policy's management."""
        ...

    def detach(self, app: "Application") -> None:
        """Release ``app`` from management (idempotent)."""
        ...

    def start(self) -> None:
        """Begin the periodic reconcile loop."""
        ...

    def stop(self) -> None:
        """Cancel the reconcile loop (safe to call when not started)."""
        ...


@dataclass(frozen=True)
class PolicyContext:
    """Platform handles handed to policy factories at build time.

    One context per platform; factories pick what they need and ignore
    the rest. ``rng_stream`` is the *only* sanctioned randomness source:
    it returns a named child generator whose seed derives from the
    stream name, keeping seeded runs bit-identical across policies.
    """

    engine: "Engine"
    collector: "MetricsCollector"
    bounds: "AllocationBounds"
    control_interval: float
    rng_stream: Callable[[str], Any]
    fault_log: "FaultLog"
    overload: "OverloadConfig"


class UnknownPolicyError(ValueError):
    """Raised when a policy name is not in the registry.

    Subclasses :class:`ValueError` so pre-registry callers that caught
    ``ValueError`` keep working; the message lists every registered
    policy so misconfiguration is diagnosable at the call site instead
    of surfacing as an attribute error deep in the control loop.
    """

    def __init__(self, name: str, registered: tuple[str, ...]):
        self.name = name
        self.registered = registered
        super().__init__(
            f"unknown policy {name!r}; registered policies: "
            + ", ".join(repr(p) for p in registered)
        )


class PolicyInterfaceError(TypeError):
    """Raised when a factory returns an object missing the protocol."""

    def __init__(self, name: str, missing: tuple[str, ...]):
        self.policy = name
        self.missing = missing
        super().__init__(
            f"policy {name!r} does not satisfy AutoscalerPolicy: "
            f"missing {', '.join(missing)}"
        )


#: Factory signature: ``factory(ctx, **kwargs) -> AutoscalerPolicy``.
PolicyFactory = Callable[..., AutoscalerPolicy]

_REGISTRY: dict[str, PolicyFactory] = {}

#: Attributes checked on every built policy before it is handed out.
_REQUIRED_ATTRS = ("policy_name", "attach", "detach", "start", "stop")


def register_policy(name: str) -> Callable[[PolicyFactory], PolicyFactory]:
    """Decorator: register ``factory`` under ``name``.

    Names are unique; re-registering an existing name is an error so a
    typo cannot silently shadow a built-in policy.
    """
    if not name or not isinstance(name, str):
        raise ValueError("policy name must be a non-empty string")

    def decorator(factory: PolicyFactory) -> PolicyFactory:
        if name in _REGISTRY:
            raise ValueError(f"policy {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorator


def registered_policies() -> tuple[str, ...]:
    """All registered policy names, in registration order."""
    return tuple(_REGISTRY)


def build_policy(name: str, ctx: PolicyContext, **kwargs) -> AutoscalerPolicy:
    """Build the policy registered under ``name``.

    Raises :class:`UnknownPolicyError` for unregistered names and
    :class:`PolicyInterfaceError` when the factory's product does not
    implement the :class:`AutoscalerPolicy` protocol.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownPolicyError(name, registered_policies()) from None
    policy = factory(ctx, **kwargs)
    missing = tuple(
        attr for attr in _REQUIRED_ATTRS if not hasattr(policy, attr)
    )
    if missing:
        raise PolicyInterfaceError(name, missing)
    return policy


# -- built-in policies --------------------------------------------------------
#
# Construction mirrors the pre-registry EvolvePlatform._build_policy
# exactly (same constructor arguments, same RNG stream names) so seeded
# runs are bit-identical across the refactor.


@register_policy("static")
def _build_static(ctx: PolicyContext, **kwargs) -> AutoscalerPolicy:
    from repro.autoscaler.static import StaticPolicy

    return StaticPolicy(ctx.engine, ctx.collector, **kwargs)


@register_policy("hpa")
def _build_hpa(ctx: PolicyContext, **kwargs) -> AutoscalerPolicy:
    from repro.autoscaler.hpa import HorizontalPodAutoscaler

    return HorizontalPodAutoscaler(ctx.engine, ctx.collector, **kwargs)


@register_policy("vpa")
def _build_vpa(ctx: PolicyContext, **kwargs) -> AutoscalerPolicy:
    from repro.autoscaler.vpa import VerticalPodAutoscaler

    return VerticalPodAutoscaler(
        ctx.engine, ctx.collector, bounds=ctx.bounds, **kwargs
    )


@register_policy("adaptive")
def _build_adaptive(ctx: PolicyContext, **kwargs) -> AutoscalerPolicy:
    from repro.autoscaler.adaptive import AdaptiveAutoscaler

    return AdaptiveAutoscaler(
        ctx.engine,
        ctx.collector,
        bounds=ctx.bounds,
        interval=ctx.control_interval,
        rng=ctx.rng_stream("control/jitter"),
        fault_log=ctx.fault_log,
        overload=ctx.overload,
        **kwargs,
    )
