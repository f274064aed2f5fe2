"""Declarative, JSON-round-trippable experiment specifications.

An :class:`ExperimentSpec` fully describes one operating point of the
paper's grids — which system (:class:`~repro.core.config.SystemConfig`),
on which data (:class:`DatasetSpec`), evaluated how (:class:`EvalSpec`),
executed how (:class:`ExecSpec`).  Specs are frozen, hashable, serialize
to/from JSON exactly (``spec == ExperimentSpec.from_json(spec.to_json())``)
and carry a stable content :attr:`~ExperimentSpec.fingerprint` that keys
the on-disk result cache (:mod:`repro.api.cache`).

The fingerprint covers only result-affecting fields — the execution plan
(worker count, executor choice) is excluded, because results are
byte-identical at any worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.config import SystemConfig, config_from_dict, config_to_dict
from repro.metrics.kitti_eval import DIFFICULTIES

SPEC_FORMAT = "repro-spec/1"

_AP_METHODS = ("r40", "voc11")


@dataclass(frozen=True)
class DatasetSpec:
    """Which evaluation data to generate.

    Parameters
    ----------
    family:
        A registered dataset family (built-ins: ``"kitti"``,
        ``"citypersons"``; extend with
        :func:`repro.api.registry.register_dataset_family`).
    num_sequences / frames_per_sequence / seed:
        Size and world seed; ``None`` defers to the family's defaults.
    """

    family: str = "kitti"
    num_sequences: Optional[int] = None
    frames_per_sequence: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.family or not isinstance(self.family, str):
            raise ValueError(f"family must be a non-empty string, got {self.family!r}")
        for name in ("num_sequences", "frames_per_sequence"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "num_sequences": self.num_sequences,
            "frames_per_sequence": self.frames_per_sequence,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DatasetSpec":
        return cls(**_known_fields(cls, data))


@dataclass(frozen=True)
class EvalSpec:
    """How to score a run.

    Parameters
    ----------
    difficulties:
        KITTI difficulty names to evaluate at (see
        :data:`repro.metrics.kitti_eval.DIFFICULTIES`).
    ap_method:
        ``"r40"`` (KITTI 40-recall-point) or ``"voc11"``.
    delay_beta:
        Precision level of the reported mean delay (``mD@beta``).
    with_delay:
        Track per-object delay records (disable for sparse-label data).
    """

    difficulties: Tuple[str, ...] = ("moderate", "hard")
    ap_method: str = "r40"
    delay_beta: float = 0.8
    with_delay: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "difficulties", tuple(self.difficulties))
        if not self.difficulties:
            raise ValueError("at least one difficulty is required")
        for name in self.difficulties:
            if name not in DIFFICULTIES:
                raise ValueError(
                    f"unknown difficulty {name!r}; known: {tuple(sorted(DIFFICULTIES))}"
                )
        if self.ap_method not in _AP_METHODS:
            raise ValueError(f"ap_method must be one of {_AP_METHODS}, got {self.ap_method!r}")
        if not (0.0 < self.delay_beta <= 1.0):
            raise ValueError(f"delay_beta must lie in (0, 1], got {self.delay_beta}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "difficulties": list(self.difficulties),
            "ap_method": self.ap_method,
            "delay_beta": self.delay_beta,
            "with_delay": self.with_delay,
        }

    def result_key_dict(self) -> Dict[str, Any]:
        """The subset of fields that change the *stored* result.

        ``ap_method`` and ``delay_beta`` are applied at read time on the
        cached evaluation state, so specs differing only in them share one
        cache entry.
        """
        return {"difficulties": list(self.difficulties), "with_delay": self.with_delay}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EvalSpec":
        return cls(**_known_fields(cls, data))


@dataclass(frozen=True)
class ExecSpec:
    """How to execute a run — never affects the numbers, only the speed.

    Parameters
    ----------
    executor:
        A registered executor name (built-ins: ``"auto"``, ``"serial"``,
        ``"process"``, ``"multihost"``).
    workers:
        Sequence-level worker processes (``1`` = serial, ``0`` = one per
        CPU; ignored by ``"multihost"``, whose fleet size is whoever runs
        ``repro worker``).
    queue_dir:
        Shared work-queue directory for distributed executors
        (``"multihost"``); local executors ignore it.
    """

    executor: str = "auto"
    workers: int = 1
    queue_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.executor or not isinstance(self.executor, str):
            raise ValueError(f"executor must be a non-empty string, got {self.executor!r}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.queue_dir is not None and not isinstance(self.queue_dir, str):
            raise ValueError(f"queue_dir must be a string path, got {self.queue_dir!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "executor": self.executor,
            "workers": self.workers,
            "queue_dir": self.queue_dir,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExecSpec":
        return cls(**_known_fields(cls, data))


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-described experiment: system + data + scoring + execution."""

    system: SystemConfig
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    eval: EvalSpec = field(default_factory=EvalSpec)
    exec: ExecSpec = field(default_factory=ExecSpec)

    def __post_init__(self) -> None:
        if not isinstance(self.system, SystemConfig):
            raise TypeError(f"system must be a SystemConfig, got {type(self.system).__name__}")

    @property
    def label(self) -> str:
        """The system's table label plus the dataset family."""
        return f"{self.system.label} @ {self.dataset.family}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SPEC_FORMAT,
            "system": config_to_dict(self.system),
            "dataset": self.dataset.to_dict(),
            "eval": self.eval.to_dict(),
            "exec": self.exec.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        fmt = data.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ValueError(f"unsupported spec format {fmt!r}, expected {SPEC_FORMAT!r}")
        if "system" not in data:
            raise ValueError("spec is missing the required 'system' section")
        return cls(
            system=config_from_dict(data["system"]),
            dataset=DatasetSpec.from_dict(data.get("dataset", {})),
            eval=EvalSpec.from_dict(data.get("eval", {})),
            exec=ExecSpec.from_dict(data.get("exec", {})),
        )

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    @property
    def fingerprint(self) -> str:
        """Stable content address of the *result* this spec determines.

        Hashes the canonical JSON of the system, dataset and the
        result-affecting eval fields — not ``exec`` (worker count and
        executor choice never change the numbers) and not
        ``ap_method``/``delay_beta`` (applied at read time on the cached
        evaluation state).  Specs differing only in those therefore share
        one cache entry.
        """
        payload = {
            "format": SPEC_FORMAT,
            "system": config_to_dict(self.system),
            "dataset": self.dataset.to_dict(),
            "eval": self.eval.result_key_dict(),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_system(self, **changes: Any) -> "ExperimentSpec":
        """A copy with :class:`SystemConfig` fields replaced."""
        return replace(self, system=replace(self.system, **changes))

    @property
    def device(self) -> Optional[str]:
        """The modeled device the run reports latency for.

        Lives on the :class:`SystemConfig` (it rides along wherever the
        system description travels — worker processes, cluster
        envelopes, cache keys) and is therefore part of the content
        fingerprint: the same system on a different modeled device is a
        different result.
        """
        return self.system.device

    def with_device(self, device: Optional[str]) -> "ExperimentSpec":
        """A copy reporting latency for ``device`` (a registered
        :data:`repro.cost.DEVICE_PROFILES` name, or ``None`` to disable
        timing accounting)."""
        return self.with_system(device=device)


def _known_fields(cls, data: Dict[str, Any]) -> Dict[str, Any]:
    known = set(cls.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return dict(data)


# --------------------------------------------------------------------- #
# Serving specs
# --------------------------------------------------------------------- #

SERVE_SPEC_FORMAT = "repro-serve-spec/1"


class ServingSpec:
    """What :class:`ServeSpec` and :class:`~repro.fleet.spec.FleetSpec`
    share: the system, dataset, load, policy and query sections, their
    validation, JSON round trip and a fingerprint over the whole spec."""

    def _check_sections(self) -> None:
        """Validate the shared sections, defaulting ``load``/``policy``."""
        from repro.query.spec import QuerySpec
        from repro.serve.loadgen import LoadSpec
        from repro.serve.policy import ServePolicy

        if not isinstance(self.system, SystemConfig):
            raise TypeError(
                f"system must be a SystemConfig, got {type(self.system).__name__}"
            )
        if self.load is None:
            object.__setattr__(self, "load", LoadSpec())
        elif not isinstance(self.load, LoadSpec):
            raise TypeError(f"load must be a LoadSpec, got {type(self.load).__name__}")
        if self.policy is None:
            object.__setattr__(self, "policy", ServePolicy())
        elif not isinstance(self.policy, ServePolicy):
            raise TypeError(
                f"policy must be a ServePolicy, got {type(self.policy).__name__}"
            )
        if self.query is not None and not isinstance(self.query, QuerySpec):
            raise TypeError(
                f"query must be a QuerySpec, got {type(self.query).__name__}"
            )

    @staticmethod
    def _sections_from_dict(data: Dict[str, Any], kind: str) -> Dict[str, Any]:
        """The shared sections of a ``kind`` spec's dict, as constructor
        keywords."""
        from repro.query.spec import QuerySpec
        from repro.serve.loadgen import LoadSpec
        from repro.serve.policy import ServePolicy

        if "system" not in data:
            raise ValueError(f"{kind} spec is missing the required 'system' section")
        return dict(
            system=config_from_dict(data["system"]),
            dataset=DatasetSpec.from_dict(data.get("dataset", {})),
            load=LoadSpec.from_dict(data.get("load", {})),
            policy=ServePolicy.from_dict(data.get("policy", {})),
            query=(
                None
                if data.get("query") is None
                else QuerySpec.from_dict(data["query"])
            ),
        )

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    @property
    def fingerprint(self) -> str:
        """Stable content address of the report this spec determines."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ServeSpec(ServingSpec):
    """One fully-described serving deployment: system + data + load + knobs.

    The online-serving sibling of :class:`ExperimentSpec`: which system
    serves (:class:`~repro.core.config.SystemConfig`), which dataset
    family supplies the camera streams (:class:`DatasetSpec`), the
    open-loop load offered (:class:`~repro.serve.loadgen.LoadSpec`), the
    server's admission/batching policy
    (:class:`~repro.serve.server.ServePolicy`) and the accelerator timing
    model (:class:`~repro.serve.server.ServiceModel`).  Frozen, JSON
    round-trippable, and content-fingerprinted: serving is a
    deterministic simulation, so a spec's throughput/latency report is a
    pure function of the spec and
    :meth:`repro.api.session.Session.serve` caches it by fingerprint.

    Unlike :class:`ExperimentSpec`, *every* section is result-affecting
    (the policy changes batching, the service model changes every
    latency), so the fingerprint covers the whole spec — including the
    ``device``.

    The accelerator is named once: pass ``device`` (a registered
    :data:`repro.cost.DEVICE_PROFILES` name) and the
    :class:`~repro.serve.server.ServiceModel` is calibrated from that
    profile.  Passing an *explicit* uncalibrated service model together
    with a device is an error — the two would silently disagree about
    what a MAC costs.  With neither, the ``"abstract"`` profile (the
    historical serving defaults) applies; a ``device`` on the
    :class:`SystemConfig` itself, if any, takes precedence over that
    fallback so offline timing and serving simulate the same hardware.

    ``query`` optionally attaches a scenario query
    (:class:`~repro.query.spec.QuerySpec`) evaluated online per stream
    during the run; its windows land in the report's ``query_windows``
    section.  Like every other section it is part of the fingerprint —
    the same deployment under a different query is a different report.
    """

    system: SystemConfig
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    load: "Any" = None
    policy: "Any" = None
    service: "Any" = None
    device: Optional[str] = None
    query: "Any" = None

    def __post_init__(self) -> None:
        from repro.serve.policy import ServiceModel

        self._check_sections()
        if self.device is not None and not isinstance(self.device, str):
            raise TypeError(f"device must be a string, got {type(self.device).__name__}")
        if self.service is None:
            device = self.device or self.system.device or "abstract"
            object.__setattr__(self, "service", ServiceModel.for_device(device))
            object.__setattr__(self, "device", device)
        elif not isinstance(self.service, ServiceModel):
            raise TypeError(
                f"service must be a ServiceModel, got {type(self.service).__name__}"
            )
        elif self.device is not None and self.device != self.service.device:
            raise ValueError(
                f"ServeSpec got both an explicit service model and "
                f"device={self.device!r}; pass one or the other — the device "
                f"profile is what calibrates the service model "
                f"(use ServiceModel.for_device({self.device!r}))"
            )
        else:
            # Record the service model's provenance (None for explicit
            # uncalibrated rates) so to_dict/from_dict round-trips exactly.
            object.__setattr__(self, "device", self.service.device)

    @property
    def label(self) -> str:
        return (
            f"{self.system.label} @ {self.dataset.family} "
            f"x{self.load.num_streams} {self.load.pattern}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SERVE_SPEC_FORMAT,
            "system": config_to_dict(self.system),
            "dataset": self.dataset.to_dict(),
            "load": self.load.to_dict(),
            "policy": self.policy.to_dict(),
            "service": self.service.to_dict(),
            "device": self.device,
            "query": None if self.query is None else self.query.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeSpec":
        from repro.serve.policy import ServiceModel

        fmt = data.get("format", SERVE_SPEC_FORMAT)
        if fmt != SERVE_SPEC_FORMAT:
            raise ValueError(
                f"unsupported serve-spec format {fmt!r}, expected {SERVE_SPEC_FORMAT!r}"
            )
        return cls(
            **cls._sections_from_dict(data, "serve"),
            service=ServiceModel.from_dict(data.get("service", {})),
            device=data.get("device"),
        )
