"""Declarative sweep specifications.

A :class:`SweepSpec` names a group family from the registry, a parameter
grid, a repeat count and the solver/sampler configuration; :meth:`expand`
turns it into the deterministic list of :class:`RunSpec` descriptors the
process-pool runner executes.  Everything here is immutable, hashable and
picklable — a run descriptor is all a worker process receives.

Per-run seeds are derived with :class:`numpy.random.SeedSequence` from the
sweep's master seed and the run index, so the randomness of a run depends
only on its position in the expansion, never on which worker executes it or
in what order — the foundation of the ``workers=1`` / ``workers=N``
byte-identity guarantee.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.sampling import BACKENDS, STATEVECTOR_LIMIT

__all__ = ["DEFAULT_SEED", "RESERVED_GRID_KEYS", "SamplerSpec", "SweepSpec", "RunSpec", "derive_seed"]

#: The suite-wide master seed (the paper's arXiv submission date).
DEFAULT_SEED = 20010202

#: Grid keys routed to the *solver* rather than the instance builder.  A
#: ``"strategy"`` axis overrides :attr:`RunSpec.strategy` per grid point, a
#: ``"confidence"`` axis becomes the ``confidence`` solver option and a
#: ``"noise"`` axis (noise-spec strings such as ``"oracle-flip(0.25)"`` —
#: see :mod:`repro.blackbox.noise`) becomes the ``noise`` solver option —
#: this is what lets one declarative sweep scan success probability versus
#: sampling rounds or corruption rate, or cross strategies over the same
#: instances.  All three stay in :attr:`RunSpec.params` so the BENCH rows
#: record the swept value.
RESERVED_GRID_KEYS = ("strategy", "confidence", "noise")


#: The retired sampler switches and the one value each still serialises as.
_SAMPLER_CONSTANTS = {"batch": True, "shards": None, "statevector_limit": STATEVECTOR_LIMIT}


def derive_seed(master: int, index: int) -> int:
    """The per-run seed: deterministic, well-mixed, platform independent."""
    return int(np.random.SeedSequence([int(master), int(index)]).generate_state(1, np.uint64)[0])


def _require_constant(data: Mapping, key: str, constant, owner: str) -> None:
    """Refuse a retired configuration switch in serialised spec ``data``.

    A retired switch (``engine``, ``batch``, ``shards``,
    ``statevector_limit``) is written as its one constant so committed
    headers and queue tasks keep their bytes; it may only be absent or equal
    to that constant, of the same JSON type.  Anything else — ``false``,
    ``"false"``, ``0`` for ``true``, a shard count for ``null`` — describes a
    configuration this build cannot run, so it raises instead of coercing.
    """
    value = data.get(key, constant)
    if type(value) is not type(constant) or value != constant:
        raise ValueError(
            f"{owner} field {key!r} must be {json.dumps(constant)} (the only "
            f"supported configuration), got {value!r}"
        )


def _freeze(value):
    """Recursively convert lists/tuples to tuples (hashable, picklable)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Recursively convert tuples back to lists (JSON-friendly)."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class SamplerSpec:
    """Configuration of the :class:`~repro.quantum.sampling.FourierSampler`.

    ``backend`` is validated here, so a misspelt backend fails the
    declaration (or quarantines a queue task) instead of every run.
    """

    backend: str = "auto"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; expected one of {BACKENDS}")

    def to_json_dict(self) -> Dict[str, object]:
        return {"backend": self.backend, **_SAMPLER_CONSTANTS}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SamplerSpec":
        """Rebuild a sampler spec from :meth:`to_json_dict` output."""
        for key, constant in _SAMPLER_CONSTANTS.items():
            _require_constant(data, key, constant, "sampler")
        return cls(backend=str(data.get("backend", "auto")))


@dataclass(frozen=True)
class RunSpec:
    """A picklable descriptor of one ``solve_hsp`` run.

    Workers receive nothing else: the instance (group, oracle, promises) is
    rebuilt inside the worker from ``family``/``params``/``seed`` through the
    registry, so no closure or group object ever crosses a process boundary.
    """

    sweep: str
    index: int
    family: str
    params: Tuple[Tuple[str, object], ...]
    repeat: int
    seed: int
    strategy: str = "auto"
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    solver_options: Tuple[Tuple[str, object], ...] = ()

    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def instance_params(self) -> Dict[str, object]:
        """The builder-facing parameters: ``params`` minus the reserved keys."""
        return {key: value for key, value in self.params if key not in RESERVED_GRID_KEYS}

    def options_dict(self) -> Dict[str, object]:
        return dict(self.solver_options)

    def to_json_dict(self) -> Dict[str, object]:
        """The task-file serialization of the run (one queue task = one run).

        Everything a worker on another machine needs to execute the run:
        the distributed queue materialises each pending run as one JSON
        task file, and :meth:`from_json_dict` must round-trip it exactly —
        the descriptor *is* the unit of work, so any drift here would
        silently change what a remote worker executes.
        """
        return {
            "sweep": self.sweep,
            "index": self.index,
            "family": self.family,
            "params": {key: _thaw(value) for key, value in self.params},
            "repeat": self.repeat,
            "seed": self.seed,
            "strategy": self.strategy,
            "sampler": self.sampler.to_json_dict(),
            "solver_options": {key: _thaw(value) for key, value in self.solver_options},
            "engine": True,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RunSpec":
        """Rebuild a run descriptor from :meth:`to_json_dict` output.

        The JSON round-trip turns tuples into lists; re-freezing restores
        the exact original dataclass (asserted by equality in the tests).
        """
        _require_constant(data, "engine", True, "run")
        return cls(
            sweep=str(data["sweep"]),
            index=int(data["index"]),
            family=str(data["family"]),
            params=tuple(sorted((str(k), _freeze(v)) for k, v in dict(data["params"]).items())),
            repeat=int(data["repeat"]),
            seed=int(data["seed"]),
            strategy=str(data.get("strategy", "auto")),
            sampler=SamplerSpec.from_json_dict(dict(data.get("sampler", {}))),
            solver_options=tuple(
                sorted((str(k), _freeze(v)) for k, v in dict(data.get("solver_options", {})).items())
            ),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: family x parameter grid x repeats.

    ``grid`` maps parameter names to value tuples; expansion walks the
    cartesian product with the keys in sorted order, then the repeats, so
    run indices (and hence seeds) are a pure function of the spec.
    Every run builds and solves its instance the one way the library runs
    (a Cayley engine wherever the group admits one, batched and unsharded
    Fourier sampling); the serialised spec records that as the constants
    ``"engine": true`` and ``"sampler": {"batch": true, "shards": null,
    "statevector_limit": 16384, ...}``.
    """

    name: str
    family: str
    grid: Tuple[Tuple[str, Tuple], ...] = ()
    repeats: int = 1
    seed: int = DEFAULT_SEED
    strategy: str = "auto"
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    solver_options: Tuple[Tuple[str, object], ...] = ()
    description: str = ""

    @classmethod
    def from_grid(
        cls,
        name: str,
        family: str,
        grid: Mapping[str, Sequence],
        **kwargs,
    ) -> "SweepSpec":
        """Build a spec from a plain ``{param: [values...]}`` mapping."""
        frozen = tuple(
            sorted((key, tuple(_freeze(v) for v in values)) for key, values in grid.items())
        )
        options = kwargs.pop("solver_options", ())
        if isinstance(options, Mapping):
            options = tuple(sorted((k, _freeze(v)) for k, v in options.items()))
        return cls(name=name, family=family, grid=frozen, solver_options=options, **kwargs)

    def with_overrides(
        self,
        seed: Optional[int] = None,
        repeats: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "SweepSpec":
        """A copy with CLI-level overrides applied."""
        spec = self
        if seed is not None:
            if int(seed) < 0:
                raise ValueError(f"seed must be non-negative, got {seed}")
            spec = replace(spec, seed=int(seed))
        if repeats is not None:
            if int(repeats) < 1:
                raise ValueError(f"repeats must be a positive integer, got {repeats}")
            spec = replace(spec, repeats=int(repeats))
        if name is not None:
            spec = replace(spec, name=name)
        return spec

    def points(self) -> List[Dict[str, object]]:
        """The grid points, in deterministic (sorted-key, row-major) order."""
        if not self.grid:
            return [{}]
        keys = [key for key, _ in self.grid]
        value_lists = [list(values) for _, values in self.grid]
        return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]

    def expand(self) -> List[RunSpec]:
        """The full deterministic run list of the sweep."""
        runs: List[RunSpec] = []
        index = 0
        for point in self.points():
            strategy = str(point.get("strategy", self.strategy))
            options = self.solver_options
            if "confidence" in point:
                merged = dict(options)
                merged["confidence"] = int(point["confidence"])
                options = tuple(sorted(merged.items()))
            if "noise" in point:
                from repro.blackbox.noise import NoiseSpec

                NoiseSpec.parse(point["noise"])  # validate at expansion time
                merged = dict(options)
                merged["noise"] = str(point["noise"])
                options = tuple(sorted(merged.items()))
            for repeat in range(self.repeats):
                runs.append(
                    RunSpec(
                        sweep=self.name,
                        index=index,
                        family=self.family,
                        params=tuple(sorted(point.items())),
                        repeat=repeat,
                        seed=derive_seed(self.seed, index),
                        strategy=strategy,
                        sampler=self.sampler,
                        solver_options=options,
                    )
                )
                index += 1
        return runs

    def to_json_dict(self) -> Dict[str, object]:
        """A JSON-safe description of the sweep (stored in the BENCH file)."""
        return {
            "name": self.name,
            "family": self.family,
            "grid": {key: _thaw(values) for key, values in self.grid},
            "repeats": self.repeats,
            "seed": self.seed,
            "strategy": self.strategy,
            "sampler": self.sampler.to_json_dict(),
            "solver_options": {key: _thaw(value) for key, value in self.solver_options},
            "engine": True,
            "description": self.description,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SweepSpec":
        """Rebuild a sweep spec from :meth:`to_json_dict` output.

        The distributed queue pins the spec this way, and a worker on
        another machine reconstructs it to execute the sweep's runs and
        (in ``collect``) to recompute the expected run list.  Round-trips exactly: ``from_json_dict(to_json_dict(s)) == s``.
        """
        _require_constant(data, "engine", True, "sweep")
        return cls.from_grid(
            name=str(data["name"]),
            family=str(data["family"]),
            grid=dict(data.get("grid", {})),
            repeats=int(data.get("repeats", 1)),
            seed=int(data.get("seed", DEFAULT_SEED)),
            strategy=str(data.get("strategy", "auto")),
            sampler=SamplerSpec.from_json_dict(dict(data.get("sampler", {}))),
            solver_options=dict(data.get("solver_options", {})),
            description=str(data.get("description", "")),
        )
