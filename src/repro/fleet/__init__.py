"""Replicated fleet serving: routing, elasticity, and fleet tuning.

The serving layer (:mod:`repro.serve`) models *one* server; this package
scales it sideways without surrendering any of its guarantees:

* :mod:`~repro.fleet.spec` — frozen, fingerprinted
  :class:`FleetSpec` / :class:`AutoscalerPolicy` describing a deployment;
* :mod:`~repro.fleet.router` — sticky stream-to-replica pins over
  pluggable placement policies (``least_loaded``, ``round_robin``,
  ``cost_aware``);
* :mod:`~repro.fleet.replica` — the replica pool: heterogeneous device
  profiles, per-replica metrics registries, drain/retire lifecycle and
  allocation billing;
* :mod:`~repro.fleet.autoscaler` — the windowed, hysteretic control loop
  (scale out when queue-wait dominates the latency budget, in when batch
  occupancy collapses);
* :mod:`~repro.fleet.server` — the serving core (the one event loop,
  which ``DetectionServer`` runs with a single replica) and its
  cacheable :class:`FleetReport`;
* :mod:`~repro.fleet.tune` — the cheapest static fleet meeting an SLO.

Determinism carries over verbatim: per-frame detections are keyed by
``(model, seed, sequence, frame)``, so a bare ``DetectionServer`` is a
1-replica fleet and per-stream outputs are invariant under replica count
and autoscaling schedule.
"""

# repro.serve.server subclasses the serving core in repro.fleet.server, so
# the serve package must finish loading before this one's modules do.
import repro.serve  # noqa: F401  isort: skip
from repro.fleet.autoscaler import SCALE_IN, SCALE_OUT, Autoscaler, Decision
from repro.fleet.replica import ACTIVE, DRAINING, RETIRED, Replica, ReplicaSet
from repro.fleet.router import (
    PLACEMENT_POLICIES,
    FleetRouter,
    register_placement,
)
from repro.fleet.server import (
    FLEET_REPORT_FORMAT,
    FleetReport,
    FleetReportStore,
    FleetServer,
)
from repro.fleet.spec import FLEET_SPEC_FORMAT, AutoscalerPolicy, FleetSpec
from repro.fleet.tune import (
    DEFAULT_REPLICA_COUNTS,
    FleetCandidate,
    FleetTuneResult,
    tune_fleet,
)

__all__ = [
    "ACTIVE",
    "Autoscaler",
    "AutoscalerPolicy",
    "DEFAULT_REPLICA_COUNTS",
    "DRAINING",
    "Decision",
    "FLEET_REPORT_FORMAT",
    "FLEET_SPEC_FORMAT",
    "FleetCandidate",
    "FleetReport",
    "FleetReportStore",
    "FleetRouter",
    "FleetServer",
    "FleetSpec",
    "FleetTuneResult",
    "PLACEMENT_POLICIES",
    "RETIRED",
    "Replica",
    "ReplicaSet",
    "SCALE_IN",
    "SCALE_OUT",
    "register_placement",
    "tune_fleet",
]
