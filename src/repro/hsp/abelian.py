"""The standard quantum algorithm for the Abelian hidden subgroup problem.

Theorem 3 of the paper: for an Abelian black-box group with unique encoding
the HSP is solvable in quantum polynomial time.  The algorithm repeats the
Fourier-sampling round (implemented in :mod:`repro.quantum.sampling`) to
collect uniformly random elements of the annihilator ``H^perp``; once the
collected samples generate ``H^perp`` the hidden subgroup is recovered as
``H = (H^perp)^perp`` by exact integer lattice arithmetic.

The stopping rule follows the standard analysis: each round that does not yet
generate ``H^perp`` has probability at least 1/2 of enlarging the generated
subgroup, so requiring a run of ``confidence`` consecutive non-enlarging
rounds after the last change gives failure probability at most
``2^{-confidence}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox.oracle import HidingOracle, QueryCounter
from repro.groups.abelian import AbelianTupleGroup
from repro.linalg.zmodule import (
    annihilator,
    canonical_generators,
    subgroup_contains_many,
    subgroup_order,
)
from repro.obs import span as obs_span
from repro.quantum.sampling import AbelianHSPOracle, FourierSampler, TupleFunctionOracle

__all__ = ["AbelianHSPResult", "solve_abelian_hsp", "solve_hsp_in_abelian_group"]

Vector = Tuple[int, ...]


@dataclass
class AbelianHSPResult:
    """Outcome of an Abelian HSP run."""

    generators: List[Vector]
    moduli: Tuple[int, ...]
    samples: List[Vector] = field(default_factory=list)
    rounds: int = 0
    subgroup_order: int = 1
    query_report: Dict[str, int] = field(default_factory=dict)
    #: False when the stopping rule never fired — ``max_rounds`` ran out
    #: before ``confidence`` consecutive non-enlarging samples were seen.
    #: With an honest oracle this is a vanishing-probability event; under an
    #: installed noise channel it is the expected inconsistent-rows outcome
    #: and the solver reports it as ``status="no_convergence"``.
    converged: bool = True

    def __iter__(self):
        return iter(self.generators)


def solve_abelian_hsp(
    oracle: AbelianHSPOracle,
    sampler: Optional[FourierSampler] = None,
    confidence: int = 16,
    max_rounds: Optional[int] = None,
) -> AbelianHSPResult:
    """Solve the Abelian HSP defined by ``oracle`` by Fourier sampling.

    Parameters
    ----------
    oracle:
        The hiding oracle over ``Z_{s1} x ... x Z_{sr}``.
    sampler:
        The Fourier sampling backend; defaults to ``FourierSampler("auto")``.
    confidence:
        Number of consecutive rounds without growth of the sampled dual
        subgroup required before stopping (error probability ``<= 2^-confidence``).
    max_rounds:
        Hard cap on sampling rounds; defaults to
        ``4 * (log2 |A| + confidence)``.
    """
    sampler = sampler if sampler is not None else FourierSampler()
    module = oracle.module
    moduli = module.moduli
    if max_rounds is None:
        # bit_length instead of log2: group orders routinely exceed 2**64.
        max_rounds = 4 * (int(module.order).bit_length() + confidence)

    samples: List[Vector] = []
    dual_canonical: List[Vector] = []
    stable_rounds = 0
    rounds = 0
    # Samples are requested in blocks: a block of ``confidence - stable_rounds``
    # rounds is the smallest number of further samples after which the stopping
    # rule can possibly fire, so blocking never draws a round the scalar loop
    # would not have drawn — query totals are identical, but the sampler can
    # amortise its per-round cost.  Each sample updates the generated dual
    # subgroup incrementally: a membership test against the current canonical
    # generators replaces the full recomputation over all samples.
    with obs_span("abelian.fourier_sampling", confidence=confidence) as sampling_span:
        while rounds < max_rounds:
            block = max(1, min(confidence - stable_rounds, max_rounds - rounds))
            new_samples = sampler.sample(oracle, block)
            rounds += len(new_samples)
            # Membership of the remaining block is decided in one batched
            # lattice computation (one Smith form per current span); the scan
            # restarts from the sample after an enlargement, so the per-sample
            # decisions — and hence rounds and query totals — are identical
            # to the scalar-membership loop.
            idx = 0
            while idx < len(new_samples):
                pending = new_samples[idx:]
                if dual_canonical:
                    contained = subgroup_contains_many(dual_canonical, pending, moduli)
                else:
                    contained = [not any(v % m for v, m in zip(s, moduli)) for s in pending]
                enlarged_at = None
                for offset, (sample, inside) in enumerate(zip(pending, contained)):
                    samples.append(sample)
                    if inside:
                        stable_rounds += 1
                        continue
                    dual_canonical = canonical_generators(dual_canonical + [sample], moduli)
                    stable_rounds = 0
                    enlarged_at = offset
                    break
                if enlarged_at is None:
                    break
                idx += enlarged_at + 1
            if stable_rounds >= confidence:
                break
        sampling_span.add("rounds", rounds)

    with obs_span("abelian.reconstruction") as recon_span:
        hidden = annihilator(dual_canonical, moduli) if dual_canonical else list(
            annihilator([], moduli)
        )
        hidden = canonical_generators(hidden, moduli) if hidden else []
        order = subgroup_order(hidden, moduli) if hidden else 1
        recon_span.add("generators", len(hidden))
    return AbelianHSPResult(
        generators=hidden,
        moduli=moduli,
        samples=samples,
        rounds=rounds,
        subgroup_order=order,
        query_report=oracle.counter.snapshot(),
        converged=stable_rounds >= confidence,
    )


def solve_hsp_in_abelian_group(
    group: AbelianTupleGroup,
    oracle: HidingOracle,
    sampler: Optional[FourierSampler] = None,
    confidence: int = 16,
) -> AbelianHSPResult:
    """Solve the HSP in a concrete Abelian tuple group hidden by ``oracle``.

    This is the user-facing entry point for Theorem 3: the hiding oracle is
    re-wrapped as an :class:`AbelianHSPOracle`; if the instance declared its
    hidden subgroup (test/benchmark instances do) the declaration is passed
    through so the analytic backend can sample without enumerating the
    domain, exactly as a quantum computer would not have to.  The domain
    scan of the statevector backend labels the whole domain through the
    hiding oracle's :meth:`~repro.blackbox.oracle.HidingOracle.evaluate_many`
    in one call, which counts what the point-by-point scan counts.
    """
    return solve_abelian_hsp(_tuple_oracle(group, oracle), sampler=sampler, confidence=confidence)


def _tuple_oracle(group: AbelianTupleGroup, oracle: HidingOracle) -> TupleFunctionOracle:
    """``oracle`` as an :class:`AbelianHSPOracle` over ``group``'s moduli.

    Carries the declared hidden subgroup, and the hiding oracle's own
    ``evaluate_many`` as the bulk labeller of the domain scan.
    """
    return TupleFunctionOracle(
        group.moduli,
        oracle,
        declared_kernel=oracle.hidden_subgroup_generators,
        counter=oracle.counter,
        description=f"HSP in {group.name}",
        label_many=oracle.evaluate_many,
    )
