"""A catalogue of the named group families used throughout the experiments.

Each factory returns a fully-formed :class:`~repro.groups.base.FiniteGroup`
together (where useful) with the structural data the corresponding theorem
needs (e.g. the generators of the distinguished elementary Abelian normal
2-subgroup for Theorem 13 instances).  Keeping the constructions in one place
makes the benchmark harness and the examples read like the paper's own list
of instances.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.groups.abelian import AbelianTupleGroup, cyclic_group, elementary_abelian_group
from repro.groups.base import FiniteGroup, GroupError
from repro.groups.extraspecial import HeisenbergGroup, extraspecial_group
from repro.groups.matrix import GFMatrixGroup, affine_type_group, heisenberg_matrix_group
from repro.groups.perm import (
    PermutationGroup,
    alternating_group,
    cyclic_permutation_group,
    dihedral_group,
    symmetric_group,
)
from repro.groups.products import (
    SemidirectProduct,
    dihedral_semidirect,
    generalized_dihedral,
    metacyclic_group,
    wreath_product_z2,
)

__all__ = [
    "abelian_instance",
    "heisenberg_instance",
    "wreath_instance",
    "affine_gf2_instance",
    "elementary_abelian_semidirect_instance",
    "dihedral_instance",
    "metacyclic_instance",
    "named_group",
]


def abelian_instance(moduli: Sequence[int]) -> AbelianTupleGroup:
    """An Abelian tuple group (Theorem 3 / E1 instances)."""
    return AbelianTupleGroup(moduli)


def heisenberg_instance(p: int, n: int = 1) -> HeisenbergGroup:
    """An extraspecial group of order ``p^{2n+1}`` (Theorem 11 / Corollary 12)."""
    return extraspecial_group(p, n)


def wreath_instance(k: int) -> Tuple[SemidirectProduct, List]:
    """``Z_2^k wr Z_2`` together with generators of its base ``N = Z_2^{2k}``.

    The base group is the distinguished elementary Abelian normal 2-subgroup
    required by Theorem 13; the factor group is ``Z_2`` (cyclic), so the
    theorem's fully polynomial case applies.
    """
    group = wreath_product_z2(k)
    normal_gens = group.normal_part_generators()
    return group, normal_gens


def affine_gf2_instance(k: int, extra_translations: int = 1) -> Tuple[GFMatrixGroup, List]:
    """A Section-6 matrix group over GF(2) with its translation subgroup.

    Returns ``(G, N_generators)`` where ``N`` is the normal elementary
    Abelian 2-subgroup of translation matrices; ``G/N`` is cyclic, generated
    by the image of the type (a) matrix.  The returned generators generate
    ``N`` *as a subgroup* (the paper's Theorem 13 takes ``N`` given by
    generators), i.e. they are the normal closure of the type (b) generators
    under conjugation by the type (a) matrix.
    """
    translations = []
    for i in range(max(1, extra_translations)):
        vec = [0] * k
        vec[i % k] = 1
        translations.append(vec)
    group = affine_type_group(k, translations=translations)
    gens = group.generators()
    from repro.groups.subgroup import normal_closure

    normal_gens = normal_closure(group, gens[1:])
    return group, normal_gens


def elementary_abelian_semidirect_instance(
    k: int,
    top: str = "S3",
) -> Tuple[SemidirectProduct, List]:
    """``Z_2^k : K`` for a small non-cyclic ``K`` (general case of Theorem 13).

    The action permutes the coordinates of ``Z_2^k`` through a permutation
    representation of ``K``; ``K`` is either ``S_3`` (degree-3 coordinate
    permutation, requires ``k >= 3``) or ``V4`` (two commuting coordinate
    swaps, requires ``k >= 4``).  Both actions come with a vectorized twin,
    so the group has a dense kernel.
    """
    base = elementary_abelian_group(2, k)
    if top == "S3":
        if k < 3:
            raise GroupError("S3 action requires k >= 3")
        quotient = symmetric_group(3)

        def action(perm, vector):
            images = list(vector)
            for i in range(3):
                images[perm[i]] = vector[i]
            return tuple(images)

        def array_action(perm_rows, vectors):
            images = vectors.copy()
            np.put_along_axis(images, perm_rows, vectors[:, :3], axis=1)
            return images

        name = f"Z_2^{k} : S_3"
    elif top == "V4":
        if k < 4:
            raise GroupError("V4 action requires k >= 4")
        quotient = AbelianTupleGroup([2, 2], name="V4")

        def action(bits, vector):
            out = list(vector)
            if bits[0] % 2:
                out[0], out[1] = out[1], out[0]
            if bits[1] % 2:
                out[2], out[3] = out[3], out[2]
            return tuple(out)

        def array_action(bit_rows, vectors):
            # Coordinate j goes to swapped[j] where its pair's bit is set.
            swapped = np.where(bit_rows[:, [0, 0, 1, 1]] % 2 == 1, [1, 0, 3, 2], [0, 1, 2, 3])
            out = vectors.copy()
            np.put_along_axis(out, swapped, vectors[:, :4], axis=1)
            return out

        name = f"Z_2^{k} : V4"
    else:
        raise GroupError(f"unknown top group {top!r}")
    group = SemidirectProduct(base, quotient, action, name=name, array_action=array_action)
    return group, group.normal_part_generators()


def dihedral_instance(n: int, as_permutation: bool = False) -> FiniteGroup:
    """The dihedral group ``D_n`` (semidirect form by default)."""
    return dihedral_group(n) if as_permutation else dihedral_semidirect(n)


def metacyclic_instance(p: int, q: int) -> SemidirectProduct:
    """The non-Abelian metacyclic group ``Z_p : Z_q`` (``q | p - 1``)."""
    return metacyclic_group(p, q)


def named_group(name: str, **params) -> FiniteGroup:
    """Look up a group family by name (used by the benchmark harness CLI).

    Supported names: ``abelian``, ``cyclic``, ``elementary_abelian``,
    ``heisenberg``, ``wreath``, ``affine_gf2``, ``dihedral``,
    ``dihedral_perm``, ``metacyclic``, ``symmetric``, ``alternating``,
    ``generalized_dihedral``.
    """
    name = name.lower()
    if name == "abelian":
        return abelian_instance(params["moduli"])
    if name == "cyclic":
        return cyclic_group(params["n"])
    if name == "elementary_abelian":
        return elementary_abelian_group(params["p"], params["k"])
    if name == "heisenberg":
        return heisenberg_instance(params["p"], params.get("n", 1))
    if name == "heisenberg_matrix":
        return heisenberg_matrix_group(params["p"])
    if name == "wreath":
        return wreath_instance(params["k"])[0]
    if name == "affine_gf2":
        return affine_gf2_instance(params["k"])[0]
    if name == "dihedral":
        return dihedral_instance(params["n"])
    if name == "dihedral_perm":
        return dihedral_instance(params["n"], as_permutation=True)
    if name == "metacyclic":
        return metacyclic_instance(params["p"], params["q"])
    if name == "symmetric":
        return symmetric_group(params["n"])
    if name == "alternating":
        return alternating_group(params["n"])
    if name == "generalized_dihedral":
        return generalized_dihedral(params["moduli"])
    raise GroupError(f"unknown group family {name!r}")
