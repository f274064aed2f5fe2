"""Deployment knobs of a server: admission/batching policy and timing model.

:class:`ServePolicy` says how a server admits, sheds and batches frames;
:class:`ServiceModel` says what a dispatched batch costs on the modeled
accelerator.  Both are frozen, JSON-round-trippable spec sections shared
by the one-replica :class:`~repro.serve.server.DetectionServer` and every
replica of a :class:`~repro.fleet.server.FleetServer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.api.spec import _known_fields

#: Shedding policies for a full admission queue.
SHED_OLDEST = "oldest"  #: drop the oldest queued frame, admit the new one
SHED_NEWEST = "newest"  #: reject the arriving frame, keep the queue
SHED_POLICIES = (SHED_OLDEST, SHED_NEWEST)


@dataclass(frozen=True)
class ServePolicy:
    """Admission + batching + SLO knobs of one server deployment.

    Parameters
    ----------
    max_batch_size / max_wait_ms:
        Micro-batching policy (see :class:`~repro.serve.batcher.MicroBatcher`).
    queue_capacity:
        Bound on queued (admitted, undispatched) frames; arrivals beyond
        it trigger the shedding policy.
    shed_policy:
        ``"oldest"`` sheds the longest-queued frame in favour of the
        arrival (fresh frames are worth more than stale ones on a live
        feed); ``"newest"`` rejects the arrival.
    slo_ms:
        End-to-end latency objective used for violation counting.
    """

    max_batch_size: int = 8
    max_wait_ms: float = 25.0
    queue_capacity: int = 64
    shed_policy: str = SHED_OLDEST
    slo_ms: float = 200.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, got {self.shed_policy!r}"
            )
        if self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "queue_capacity": self.queue_capacity,
            "shed_policy": self.shed_policy,
            "slo_ms": self.slo_ms,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServePolicy":
        return cls(**_known_fields(cls, data))


@dataclass(frozen=True)
class ServiceModel:
    """Accelerator timing model: fixed per-invocation cost + MAC rate.

    The paper's systems run DNNs on an accelerator whose every
    invocation pays a fixed overhead (kernel launch, host round-trip,
    weight residency) before the data-dependent compute.  Micro-batching
    exists because of that first term: a batch of N frames pays it once
    instead of N times.

    Since the unified cost layer (:mod:`repro.cost`) every service time
    is computed by a :class:`~repro.cost.CostModel`.  The preferred
    construction is :meth:`for_device` (or just ``ServiceModel()``,
    which calibrates from the ``"abstract"`` profile): the model then
    carries its device provenance, uses the *full* profile — including
    per-frame CPU overhead — and its displayed rates are derived, never
    invented.  Explicit ``invocation_overhead_ms`` / ``gops_per_second``
    values remain supported for ad-hoc what-if models, but such a model
    records ``device=None`` and cannot be combined with a device-naming
    spec (the spec layer rejects the pair as contradictory).

    Parameters
    ----------
    invocation_overhead_ms:
        Fixed cost charged per batched detector invocation (``None``
        derives it from the device profile).
    gops_per_second:
        Sustained accelerator throughput the MAC volume is costed at
        (``None`` derives it from the device profile).
    device:
        Registered :data:`repro.cost.DEVICE_PROFILES` name this model is
        calibrated from; ``None`` marks explicit uncalibrated rates.
    """

    invocation_overhead_ms: Optional[float] = None
    gops_per_second: Optional[float] = None
    device: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.cost import get_device

        explicit = (
            self.invocation_overhead_ms is not None
            or self.gops_per_second is not None
        )
        if self.device is None and not explicit:
            object.__setattr__(self, "device", "abstract")
        if self.device is not None:
            profile = get_device(self.device)  # raises for unknown names
            for name, derived in (
                ("invocation_overhead_ms", profile.invocation_overhead_ms),
                ("gops_per_second", profile.gops_per_second),
            ):
                value = getattr(self, name)
                if value is None:
                    object.__setattr__(self, name, derived)
                elif value != derived:
                    raise ValueError(
                        f"{name}={value} contradicts device {self.device!r} "
                        f"(its calibrated value is {derived}); pass explicit "
                        f"rates or a device, not both"
                    )
        else:
            from repro.cost import ABSTRACT

            if self.invocation_overhead_ms is None:
                object.__setattr__(
                    self, "invocation_overhead_ms", ABSTRACT.invocation_overhead_ms
                )
            if self.gops_per_second is None:
                object.__setattr__(self, "gops_per_second", ABSTRACT.gops_per_second)
        if self.invocation_overhead_ms < 0:
            raise ValueError(
                f"invocation_overhead_ms must be >= 0, got {self.invocation_overhead_ms}"
            )
        if self.gops_per_second <= 0:
            raise ValueError(
                f"gops_per_second must be positive, got {self.gops_per_second}"
            )
        # batch_seconds sits in the simulator's per-batch hot loop: build
        # the cost model once, not per call.  Not a dataclass field, so
        # equality/repr/serialization are untouched.
        from repro.cost import CostModel, get_device, profile_from_service_rates

        if self.device is not None:
            cost = CostModel(get_device(self.device))
        else:
            cost = CostModel(
                profile_from_service_rates(
                    self.invocation_overhead_ms, self.gops_per_second
                )
            )
        object.__setattr__(self, "_cost_model", cost)

    @classmethod
    def for_device(cls, device: str) -> "ServiceModel":
        """A service model calibrated from a registered device profile."""
        from repro.cost import get_device

        return cls(device=get_device(device).name)

    def cost_model(self):
        """The :class:`~repro.cost.CostModel` service times come from."""
        return self._cost_model

    def batch_seconds(self, invocations: int, macs: float, frames: int = 0) -> float:
        """Service time of one batch from measured invocations + MACs.

        ``frames`` (the batch's frame count) charges the profile's
        per-frame CPU overhead; zero for uncalibrated explicit rates.
        """
        return self._cost_model.batch_seconds(invocations, macs, frames)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invocation_overhead_ms": self.invocation_overhead_ms,
            "gops_per_second": self.gops_per_second,
            "device": self.device,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServiceModel":
        return cls(**_known_fields(cls, data))
