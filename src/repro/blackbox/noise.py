"""Declarative oracle/sampler noise channels.

The paper's guarantees assume a *perfect* hiding oracle; this module is the
single place where that assumption is relaxed.  A :class:`NoiseSpec` is a
declarative, JSON-round-trippable description of oracle corruption that
rides in a sweep's grid (the reserved ``noise`` axis) and in
``solver_options`` — the spec string is what journals, queue task files and
BENCH rows record, so distributed workers and ``--resume`` pin the exact
channel.

Two channels are implemented:

``oracle-flip(epsilon)``
    Each *oracle answer* is replaced, with probability ``epsilon``, by the
    true label of a uniformly random group element — i.e. a uniformly
    random coset label (cosets are equinumerous, so a uniform element maps
    to a uniform coset).  Corruption is keyed on the queried element (a
    keyed BLAKE2b hash of its canonical encoding, the key derived from the
    run's SeedSequence), so a given element's corrupted answer is the same
    no matter how often, in what order, through which batch API or on which
    worker it is queried — the byte-identity contract of the experiment
    harness survives noise.

``sample-depolarise(epsilon)``
    Each *Fourier sample* is replaced, with probability ``epsilon``, by a
    uniformly random element of the full dual group.  The channel owns a
    dedicated generator derived from the run's SeedSequence — the sampler's
    main stream is never touched, so an installed-but-zero channel (and the
    uninstalled case) produce byte-identical rows.

Both channels sit *below* the query counters: corruption changes answers,
never accounting.  Verification of solver output against the ground truth
(:meth:`repro.blackbox.instances.HSPInstance.verify`) uses concrete group
arithmetic, not the oracle, and therefore always sees the uncorrupted
subgroup.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs import span as obs_span

__all__ = [
    "NOISE_KINDS",
    "NoiseSpec",
    "OracleFlipChannel",
    "SampleDepolariseChannel",
    "install_noise",
]

#: The recognised channel kinds, in documentation order.
NOISE_KINDS = ("oracle-flip", "sample-depolarise")

#: Domain-separation tag mixed into the run seed when deriving channel
#: randomness (``int.from_bytes(b"noise", "big")``): the channels draw from
#: their own SeedSequence stream, never from the run's main generator.
_NOISE_TAG = int.from_bytes(b"noise", "big")

_SPEC_PATTERN = re.compile(r"^\s*([a-z-]+)\s*\(\s*([0-9.eE+-]+)\s*\)\s*$")


@dataclass(frozen=True)
class NoiseSpec:
    """A declarative noise channel: ``kind`` plus corruption rate ``epsilon``.

    The canonical text form is ``"<kind>(<epsilon>)"`` (e.g.
    ``"oracle-flip(0.25)"``); ``"none"`` parses to ``None`` — no channel.
    """

    kind: str
    epsilon: float

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(
                f"unknown noise kind {self.kind!r}; known kinds: {', '.join(NOISE_KINDS)}"
            )
        if not 0.0 <= float(self.epsilon) <= 1.0:
            raise ValueError(f"noise epsilon must lie in [0, 1], got {self.epsilon}")

    @classmethod
    def parse(cls, text: str) -> Optional["NoiseSpec"]:
        """Parse a spec string; ``"none"`` (or empty) means no noise."""
        text = str(text).strip()
        if text in ("", "none"):
            return None
        match = _SPEC_PATTERN.match(text)
        if match is None:
            raise ValueError(
                f"unparseable noise spec {text!r}; expected 'none' or "
                f"'<kind>(<epsilon>)' with kind in {', '.join(NOISE_KINDS)}"
            )
        return cls(kind=match.group(1), epsilon=float(match.group(2)))

    @classmethod
    def try_parse(cls, text: str) -> Optional["NoiseSpec"]:
        """:meth:`parse` that returns ``None`` instead of raising.

        Used by the analysis layer to recognise noise-spec strings on a grid
        axis without treating every other string axis value as noise.
        """
        try:
            return cls.parse(text)
        except (ValueError, TypeError):
            return None

    def to_text(self) -> str:
        """The canonical spec string (round-trips through :meth:`parse`)."""
        return f"{self.kind}({self.epsilon:g})"

    def to_json_dict(self) -> Mapping[str, object]:
        return {"kind": self.kind, "epsilon": float(self.epsilon)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "NoiseSpec":
        return cls(kind=str(data["kind"]), epsilon=float(data["epsilon"]))


def _channel_seed_bytes(run_seed: int, stream: int) -> bytes:
    """32 deterministic key bytes for channel ``stream`` of a run."""
    sequence = np.random.SeedSequence([int(run_seed), _NOISE_TAG, int(stream)])
    return sequence.generate_state(4, np.uint64).tobytes()


class OracleFlipChannel:
    """Element-keyed oracle corruption: flip each answer with probability ε.

    ``replacements(elements)`` returns, per element, the group element
    whose true label should be answered instead, or ``None`` for an honest
    answer.  The decision and the replacement are a pure function of
    ``(key, element)`` — a keyed BLAKE2b digest of the element's canonical
    encoding supplies both the flip coin and the seed of the replacement
    draw — so every query path (scalar, batch, dense-id, fresh views, any
    worker) corrupts identically.  Each call is one ``noise.oracle_flip``
    span whose ``flips`` counter is the call's share of :attr:`flips`.
    """

    def __init__(self, epsilon: float, group, run_seed: int):
        self.epsilon = float(epsilon)
        self._group = group
        self._key = _channel_seed_bytes(run_seed, 0)
        self.flips = 0

    def replacements(self, elements) -> list:
        with obs_span("noise.oracle_flip", queries=len(elements)) as span:
            chosen = [self._replacement(element) for element in elements]
            flips = sum(choice is not None for choice in chosen)
            span.add("flips", flips)
        self.flips += flips
        return chosen

    def _replacement(self, element):
        digest = hashlib.blake2b(
            self._group.encode(element), key=self._key, digest_size=16
        ).digest()
        coin = int.from_bytes(digest[:8], "big") / float(1 << 64)
        if coin >= self.epsilon:
            return None
        replacement_rng = np.random.default_rng(int.from_bytes(digest[8:], "big"))
        return self._group.random_element(replacement_rng)


class SampleDepolariseChannel:
    """Fourier-sample corruption: replace each sample with a uniform dual label.

    Owns its generator (derived from the run's SeedSequence, stream 1); the
    sampler's main stream is untouched, and corruption is applied after the
    batch is produced.
    """

    def __init__(self, epsilon: float, run_seed: int):
        self.epsilon = float(epsilon)
        self.rng = np.random.default_rng(
            np.random.SeedSequence([int(run_seed), _NOISE_TAG, 1])
        )
        self.flips = 0

    def corrupt(
        self, samples: List[Tuple[int, ...]], moduli: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        count = len(samples)
        with obs_span("noise.depolarise", samples=count, epsilon=self.epsilon) as span:
            flips = self.rng.random(count) < self.epsilon
            flipped = [i for i, flip in enumerate(flips.tolist()) if flip]
            span.add("flips", len(flipped))
            if not flipped:
                return samples
            self.flips += len(flipped)
            replacements = np.empty((len(flipped), len(moduli)), dtype=np.int64)
            for j, modulus in enumerate(moduli):
                replacements[:, j] = self.rng.integers(
                    0, int(modulus), size=len(flipped), dtype=np.int64
                )
            corrupted = list(samples)
            for row, i in enumerate(flipped):
                corrupted[i] = tuple(int(v) for v in replacements[row])
            return corrupted


def install_noise(spec: NoiseSpec, instance, sampler, run_seed: int) -> None:
    """Attach the channel ``spec`` describes to ``instance``/``sampler``.

    ``oracle-flip`` wraps the instance's hiding oracle below its cache and
    counter (:meth:`repro.blackbox.oracle.HidingOracle.apply_noise`);
    ``sample-depolarise`` attaches to the Fourier sampler.  A zero-rate spec
    installs nothing at all, which makes the ε=0 ⇔ no-noise byte-identity
    structural rather than statistical.
    """
    if spec.epsilon <= 0.0:
        return
    if spec.kind == "oracle-flip":
        from repro.blackbox.oracle import BlackBoxGroup

        group = instance.group
        base = group.group if isinstance(group, BlackBoxGroup) else group
        instance.oracle.apply_noise(OracleFlipChannel(spec.epsilon, base, run_seed))
    elif spec.kind == "sample-depolarise":
        sampler.attach_noise(SampleDepolariseChannel(spec.epsilon, run_seed))
    else:  # pragma: no cover - NoiseSpec validation makes this unreachable
        raise ValueError(f"unknown noise kind {spec.kind!r}")
