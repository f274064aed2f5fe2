"""Unified device cost-model layer.

One calibrated :class:`DeviceProfile` (the ``T = alpha * W + b``
constants of paper Appendix I, plus CPU overheads) feeds one
:class:`CostModel`, and every timing consumer in the repo derives from
it: the Table-7 estimators (:mod:`repro.gpu.table7`), the
engine's per-frame :class:`~repro.engine.stages.TimingAccountingStage`
(``SystemConfig(device=...)``), and the serving simulator's
:class:`~repro.serve.server.ServiceModel` (``ServeSpec(device=...)``).

Profiles are frozen, JSON-round-trippable, and registered by name
(:data:`DEVICE_PROFILES`; built-ins ``"titanx"``, ``"abstract"`` and the
heterogeneous serving pair ``"edge"`` / ``"datacenter"``, extend with
:func:`register_device`).  Every profile carries a ``cost_per_hour``
dollar proxy, so device-time converts to the cost-per-frame objective
fleet tuning minimizes.
"""

from repro.core.results import FrameTiming
from repro.cost.model import CostModel
from repro.cost.profile import (
    ABSTRACT,
    DATACENTER,
    DEFAULT_DEVICE,
    DEVICE_PROFILES,
    EDGE,
    GIGA,
    TITANX,
    DeviceProfile,
    get_device,
    profile_from_service_rates,
    register_device,
)

__all__ = [
    "ABSTRACT",
    "CostModel",
    "DATACENTER",
    "DEFAULT_DEVICE",
    "DEVICE_PROFILES",
    "DeviceProfile",
    "EDGE",
    "FrameTiming",
    "GIGA",
    "TITANX",
    "get_device",
    "profile_from_service_rates",
    "register_device",
]
