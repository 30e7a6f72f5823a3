"""Property-based tests (hypothesis) for the core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.groups.abelian import AbelianTupleGroup
from repro.groups.extraspecial import HeisenbergGroup
from repro.groups.perm import (
    compose,
    compose_many,
    invert,
    invert_many,
    permutation_order,
    symmetric_group,
)
from repro.linalg.gf2 import gf2_nullspace, gf2_rank
from repro.linalg.hermite import hermite_normal_form, integer_kernel
from repro.linalg.modular import crt, egcd, factorint, is_probable_prime
from repro.linalg.smith import smith_normal_form
from repro.linalg.zmodule import (
    annihilator,
    canonical_generators,
    coset_representative,
    cyclic_decomposition,
    member_coefficients,
    subgroup_order,
)

settings.register_profile("repro", deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# Number theory
# ---------------------------------------------------------------------------


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=-10**6, max_value=10**6))
def test_egcd_bezout_identity(a, b):
    g, x, y = egcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


@given(st.integers(min_value=2, max_value=10**6))
def test_factorint_product_property(n):
    factors = factorint(n)
    product = 1
    for p, e in factors.items():
        assert is_probable_prime(p)
        product *= p**e
    assert product == n


@given(st.lists(st.integers(min_value=2, max_value=50), min_size=1, max_size=4), st.data())
def test_crt_consistency(moduli, data):
    residues = [data.draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli]
    try:
        r, m = crt(residues, moduli)
    except ValueError:
        return  # incompatible congruences are allowed for non-coprime moduli
    for residue, modulus in zip(residues, moduli):
        assert r % modulus == residue % modulus


# ---------------------------------------------------------------------------
# Integer linear algebra
# ---------------------------------------------------------------------------

small_matrix = st.lists(
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_matrix)
def test_snf_transform_identity(matrix):
    d, u, v = smith_normal_form(matrix)
    m, n = len(matrix), len(matrix[0])
    product = [[sum(u[i][k] * matrix[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    product = [[sum(product[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    assert product == d
    diag = [d[i][i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0 or b == 0
        else:
            assert b == 0


@given(small_matrix)
def test_integer_kernel_annihilates(matrix):
    n = len(matrix[0])
    for vec in integer_kernel(matrix):
        assert all(sum(row[j] * vec[j] for j in range(n)) == 0 for row in matrix)


@given(small_matrix)
def test_hnf_is_idempotent(matrix):
    hnf = hermite_normal_form(matrix)
    assert hermite_normal_form(hnf) == hnf


# ---------------------------------------------------------------------------
# Z-module subgroup arithmetic
# ---------------------------------------------------------------------------

moduli_strategy = st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9]), min_size=1, max_size=3)


@st.composite
def module_and_generators(draw):
    moduli = draw(moduli_strategy)
    count = draw(st.integers(min_value=1, max_value=3))
    gens = [tuple(draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli) for _ in range(count)]
    return moduli, gens


@given(module_and_generators())
def test_double_annihilator_property(data):
    moduli, gens = data
    double = annihilator(annihilator(gens, moduli), moduli)
    assert canonical_generators(double, moduli) == canonical_generators(gens, moduli)


@given(module_and_generators())
def test_annihilator_order_product(data):
    moduli, gens = data
    total = math.prod(moduli)
    assert subgroup_order(gens, moduli) * subgroup_order(annihilator(gens, moduli), moduli) == total


@given(module_and_generators())
def test_cyclic_decomposition_orders(data):
    moduli, gens = data
    decomposition = cyclic_decomposition(gens, moduli)
    product = math.prod([order for _, order in decomposition]) if decomposition else 1
    assert product == subgroup_order(gens, moduli)


@given(module_and_generators(), st.data())
def test_member_coefficients_always_reconstruct(data, draw):
    moduli, gens = data
    group = AbelianTupleGroup(moduli)
    coefficients = [draw.draw(st.integers(min_value=0, max_value=10)) for _ in gens]
    target = group.identity()
    for c, g in zip(coefficients, gens):
        target = group.multiply(target, group.power(g, c))
    solved = member_coefficients(gens, target, moduli)
    assert solved is not None
    rebuilt = group.identity()
    for c, g in zip(solved, gens):
        rebuilt = group.multiply(rebuilt, group.power(g, c))
    assert rebuilt == target


@given(module_and_generators(), st.data())
def test_coset_representative_invariance(data, draw):
    moduli, gens = data
    group = AbelianTupleGroup(moduli)
    x = tuple(draw.draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli)
    coefficient = draw.draw(st.integers(min_value=0, max_value=8))
    shift = group.identity()
    for g in gens:
        shift = group.multiply(shift, group.power(g, coefficient))
    assert coset_representative(group.multiply(x, shift), gens, moduli) == coset_representative(x, gens, moduli)


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------


@given(st.lists(st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4), min_size=1, max_size=5))
def test_gf2_rank_nullity(rows):
    a = np.array(rows, dtype=np.uint8)
    assert gf2_rank(a) + gf2_nullspace(a).shape[0] == 4


# ---------------------------------------------------------------------------
# Group axioms
# ---------------------------------------------------------------------------

perm_strategy = st.permutations(list(range(5)))


@given(perm_strategy, perm_strategy, perm_strategy)
def test_permutation_associativity(p, q, r):
    p, q, r = tuple(p), tuple(q), tuple(r)
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perm_strategy)
def test_permutation_inverse_and_order(p):
    p = tuple(p)
    identity = tuple(range(5))
    assert compose(p, invert(p)) == identity
    order = permutation_order(p)
    power = identity
    for _ in range(order):
        power = compose(power, p)
    assert power == identity


@st.composite
def permutation_batches(draw):
    """Matched batches of permutations as tuples and as image matrices."""
    degree = draw(st.integers(min_value=0, max_value=300))
    count = draw(st.integers(min_value=1, max_value=6))
    ps = [tuple(draw(st.permutations(range(degree)))) for _ in range(count)]
    qs = [tuple(draw(st.permutations(range(degree)))) for _ in range(count)]
    return ps, qs


@given(permutation_batches())
def test_perm_batch_compose_matches_tuple_kernel(batch):
    # The batch kernel and the plain-Python tuple API compute the same
    # images; this pins the row-for-row parity the Cayley engine's
    # DenseKernel protocol relies on.
    ps, qs = batch
    rows = compose_many(np.asarray(ps, dtype=np.int64), np.asarray(qs, dtype=np.int64))
    products = [compose(p, q) for p, q in zip(ps, qs)]
    assert [tuple(int(v) for v in row) for row in rows] == products
    # Python ints, so that ``encode``'s ``bytes(a)`` and hashing agree with
    # tuples decoded from engine rows.
    assert all(type(v) is int for product in products for v in product)


@given(permutation_batches())
def test_perm_batch_invert_matches_tuple_kernel(batch):
    ps, _ = batch
    rows = invert_many(np.asarray(ps, dtype=np.int64))
    inverses = [invert(p) for p in ps]
    assert [tuple(int(v) for v in row) for row in rows] == inverses
    assert all(type(v) is int for inverse in inverses for v in inverse)
    identity = tuple(range(len(ps[0])))
    roundtrip = compose_many(np.asarray(ps, dtype=np.int64), rows)
    assert all(tuple(int(v) for v in row) == identity for row in roundtrip)
    assert all(compose(p, inverse) == identity == compose(inverse, p) for p, inverse in zip(ps, inverses))


@st.composite
def heisenberg_elements(draw, p=3):
    a = tuple(draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(1))
    b = tuple(draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(1))
    c = draw(st.integers(min_value=0, max_value=p - 1))
    return (a, b, c)


@given(heisenberg_elements(), heisenberg_elements(), heisenberg_elements())
def test_heisenberg_associativity(x, y, z):
    group = HeisenbergGroup(3)
    assert group.multiply(group.multiply(x, y), z) == group.multiply(x, group.multiply(y, z))


@given(heisenberg_elements())
def test_heisenberg_inverse(x):
    group = HeisenbergGroup(3)
    assert group.is_identity(group.multiply(x, group.inverse(x)))
    assert group.is_identity(group.multiply(group.inverse(x), x))


@given(heisenberg_elements(), heisenberg_elements())
def test_heisenberg_commutators_are_central(x, y):
    group = HeisenbergGroup(3)
    commutator = group.commutator(x, y)
    assert commutator[0] == (0,) and commutator[1] == (0,)
