"""Named HSP-instance builders for the experiment harness.

Workers rebuild every instance from ``(family, params, seed)`` — hiding
oracles hold closures and are deliberately never pickled.  Builders must be
deterministic functions of their parameters and the supplied generator: the
``workers=1`` / ``workers=N`` byte-identity of sweep results rests on that.

Families mirror the group catalogue (:mod:`repro.groups.catalog`); each
returns a fully promised :class:`~repro.blackbox.instances.HSPInstance`
ready for :func:`~repro.core.solver.solve_hsp`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from repro.blackbox.instances import HSPInstance, random_abelian_hsp_instance
from repro.groups.catalog import wreath_instance
from repro.groups.extraspecial import extraspecial_group
from repro.groups.perm import alternating_group, symmetric_group
from repro.groups.products import dihedral_semidirect, metacyclic_group

__all__ = ["build_instance", "families", "register_family"]

Builder = Callable[[Dict[str, object], np.random.Generator], HSPInstance]

_BUILDERS: Dict[str, Builder] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register_family(name: str, description: str = ""):
    """Decorator registering an instance builder under ``name``."""

    def decorator(builder: Builder) -> Builder:
        _BUILDERS[name] = builder
        _DESCRIPTIONS[name] = description or (builder.__doc__ or "").strip().splitlines()[0]
        return builder

    return decorator


def build_instance(family: str, params: Dict[str, object], rng: np.random.Generator) -> HSPInstance:
    """Build the HSP instance of ``family`` at ``params`` (deterministic in ``rng``)."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise KeyError(f"unknown instance family {family!r}; known families: {known}") from None
    return builder(params, rng)


def families() -> Dict[str, str]:
    """The registered family names with their one-line descriptions."""
    return dict(sorted(_DESCRIPTIONS.items()))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


@register_family("abelian_random", "random hidden subgroup of Z_{n1} x ... x Z_{nk} (Theorem 3)")
def _abelian_random(params, rng):
    moduli = list(params["moduli"])
    generators = int(params.get("generators", 2))
    return random_abelian_hsp_instance(moduli, rng, max_generators=generators)


@register_family("dihedral_rotation", "N = <r^step> hidden in D_n (Theorem 8, Abelian quotient)")
def _dihedral_rotation(params, rng):
    n = int(params["n"])
    step = int(params.get("step", 1))
    group = dihedral_semidirect(n)
    return HSPInstance.from_subgroup(
        group,
        [group.embed_normal((step,))],
        promises={"hidden_is_normal": True},
        name=f"rotation subgroup <r^{step}> of D_{n}",
    )


@register_family("dihedral_bounded_quotient", "N = <r^d> in D_n with dihedral quotient (Theorem 8, Schreier path)")
def _dihedral_bounded_quotient(params, rng):
    d = int(params["d"])
    n = int(params.get("n", d * 11))
    group = dihedral_semidirect(n)
    return HSPInstance.from_subgroup(
        group,
        [group.embed_normal((d,))],
        promises={"hidden_is_normal": True, "quotient_bound": 8 * d},
        name=f"<r^{d}> in D_{n} (bounded quotient)",
    )


@register_family("metacyclic_core", "N = Z_p hidden in Z_p : Z_q (Theorem 8, solvable)")
def _metacyclic_core(params, rng):
    p, q = (int(v) for v in params["pq"])
    group = metacyclic_group(p, q)
    return HSPInstance.from_subgroup(
        group,
        [group.embed_normal((1,))],
        promises={"hidden_is_normal": True},
        name=f"normal core of Z_{p} : Z_{q}",
    )


@register_family("symmetric_alternating", "N = A_n hidden in S_n (Theorem 8, permutation groups)")
def _symmetric_alternating(params, rng):
    n = int(params["n"])
    group = symmetric_group(n)
    return HSPInstance.from_subgroup(
        group,
        alternating_group(n).generators(),
        promises={"hidden_is_normal": True},
        name=f"A_{n} inside S_{n}",
    )


@register_family("extraspecial_center", "center of the extraspecial group of order p^3 (Theorem 8)")
def _extraspecial_center(params, rng):
    p = int(params["p"])
    group = extraspecial_group(p)
    return HSPInstance.from_subgroup(
        group,
        group.center_generators(),
        promises={"hidden_is_normal": True},
        name=f"center of extraspecial p={p}",
    )


@register_family("extraspecial_random", "random hidden subgroup of an extraspecial p-group (Theorem 11)")
def _extraspecial_random(params, rng):
    p = int(params["p"])
    rank = int(params.get("rank", 1))
    generators = int(params.get("generators", 1))
    group = extraspecial_group(p, n=rank)
    hidden = [group.uniform_random_element(rng) for _ in range(generators)]
    return HSPInstance.from_subgroup(
        group,
        hidden,
        promises={"commutator_elements": group.commutator_subgroup_elements()},
        name=f"random H in extraspecial p={p}, rank={rank}",
    )


@register_family("diagnostic_fault", "deterministic fault injector over D_n (fault-tolerance drills)")
def _diagnostic_fault(params, rng):
    """A tiny dihedral instance that raises when ``fail`` is set.

    The failure happens *inside the builder*, exactly where a real sweep
    loses a run (a family whose construction blows up for some grid point),
    so the runner's error capture, ``--max-failures`` budget and
    journal-resume paths can be exercised deterministically from a declared
    workload.

    A ``delay`` parameter sleeps that many seconds before building —
    simulated slow construction, giving interruption drills (the
    kill-a-worker queue test) a guaranteed mid-task window.  The delay
    value rides in the grid, so rows stay deterministic; only wall time
    (machine-dependent by design) sees the sleep.
    """
    if params.get("delay"):
        time.sleep(float(params["delay"]))
    if params.get("fail"):
        raise RuntimeError(
            f"diagnostic fault injected for params {dict(sorted(params.items()))}"
        )
    return _dihedral_rotation(params, rng)


@register_family("wreath_random", "random hidden subgroup of Z_2^k wr Z_2 (Theorem 13, cyclic quotient)")
def _wreath_random(params, rng):
    k = int(params["k"])
    group, normal_gens = wreath_instance(k)
    hidden = [group.uniform_random_element(rng)]
    return HSPInstance.from_subgroup(
        group,
        hidden,
        promises={"normal_generators": normal_gens, "cyclic_quotient": True},
        name=f"random H in Z_2^{k} wr Z_2",
    )
