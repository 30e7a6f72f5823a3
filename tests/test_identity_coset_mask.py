"""The statevector backend's domain scan, array-native and point by point.

:meth:`~repro.quantum.sampling.AbelianHSPOracle.identity_coset_mask` is the
classical cost of simulating one superposition query: the mask of the
domain points ``x`` with ``f(x) == f(0)``, in C order.  The oracles with a
bulk labelling answer it in one array pass.  For each of them this suite
draws small instances and checks the mask against the element-by-element
scan of a twin oracle — ``f(0)`` first, then every domain point in C order
through the scalar ``evaluate`` — and the query report both scans leave,
which must be identical.  Later scalar queries must still hit the cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blackbox.instances import HSPInstance, random_abelian_hsp_instance
from repro.blackbox.noise import NoiseSpec, install_noise
from repro.blackbox.oracle import shared_dense_view
from repro.core.elementary_abelian_two import _bulk_embed_labeller
from repro.groups.catalog import elementary_abelian_semidirect_instance, wreath_instance
from repro.groups.products import dihedral_semidirect
from repro.hsp.abelian import _tuple_oracle
from repro.hsp.oracles import hidden_power_product_oracle
from repro.quantum.sampling import SubgroupStructureOracle, TupleFunctionOracle

SETTINGS = settings(deadline=None, max_examples=15)


def _scalar_scan(oracle):
    """The element-by-element scan: ``f(0)``, then each point in C order."""
    identity_label = oracle.evaluate(oracle.module.identity())
    return np.asarray([oracle.evaluate(x) == identity_label for x in oracle.module.elements()], dtype=bool)


def _check(build):
    """``build()`` twice: the mask and the scalar scan agree, label for label and count for count."""
    bulk, bulk_report = build()
    scalar, scalar_report = build()
    mask = bulk.identity_coset_mask()
    if isinstance(bulk, TupleFunctionOracle):
        assert bulk._domain_labels is not None, "the scan did not take the array path"
    expected = _scalar_scan(scalar)
    assert mask.dtype == bool and mask.shape == (bulk.domain_size(),)
    assert np.array_equal(mask, expected)
    assert mask[0]
    assert bulk_report() == scalar_report()
    # Every later scalar query is a cache hit with the scalar labels.
    before = bulk_report()
    points = list(bulk.module.elements())
    assert [bulk.evaluate(x) for x in points] == [scalar.evaluate(x) for x in points]
    assert bulk.evaluate_many(points) == [scalar.evaluate(x) for x in points]
    assert bulk_report() == before
    assert np.array_equal(bulk.identity_coset_mask(), mask)
    assert bulk_report() == before


@SETTINGS
@given(
    n=st.integers(min_value=3, max_value=12),
    factors=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_power_product_oracle(n, factors, seed):
    def build():
        rng = np.random.default_rng(seed)
        group = dihedral_semidirect(n)
        instance = HSPInstance.from_subgroup(group, [group.uniform_random_element(rng)])
        elements = [group.uniform_random_element(rng) for _ in range(factors)]
        orders = [group.element_order(x) for x in elements]
        oracle = hidden_power_product_oracle(instance.group, instance.oracle, elements, orders)
        assert oracle._func_many is not None
        return oracle, instance.query_report

    _check(build)


@SETTINGS
@given(
    top=st.sampled_from(["wreath-2", "wreath-3", "S3", "V4"]),
    probe=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_theorem13_embed_oracle(top, probe, seed):
    def build():
        rng = np.random.default_rng(seed)
        if top.startswith("wreath"):
            group, normal = wreath_instance(int(top[-1]))
        else:
            group, normal = elementary_abelian_semidirect_instance(4, top)
        instance = HSPInstance.from_subgroup(group, [group.uniform_random_element(rng)])
        black_box, f = instance.group, instance.oracle
        dense = shared_dense_view(black_box, f)
        assert dense is not None
        z = group.uniform_random_element(rng) if probe else None
        offset = 0 if z is None else 1

        def embed(alpha):
            element = black_box.identity()
            for generator, bit in zip(normal, alpha):
                if int(bit) % 2:
                    element = black_box.multiply(element, generator)
            return element

        def label(alpha):
            element = embed(alpha[offset:])
            if offset and int(alpha[0]) % 2:
                element = black_box.multiply(element, z)
            return f(element)

        oracle = TupleFunctionOracle(
            [2] * (offset + len(normal)),
            label,
            counter=f.counter,
            label_many=_bulk_embed_labeller(dense, f, normal, z),
        )
        return oracle, instance.query_report

    _check(build)


@SETTINGS
@given(
    moduli=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_subgroup_structure_oracle(moduli, seed):
    def build():
        rng = np.random.default_rng(seed)
        hidden = [tuple(int(rng.integers(m)) for m in moduli) for _ in range(2)]
        oracle = SubgroupStructureOracle(moduli, hidden)
        return oracle, oracle.counter.snapshot

    _check(build)


@SETTINGS
@given(
    moduli=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
    noise=st.sampled_from([None, "oracle-flip(0.3)", "oracle-flip(1)"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_abelian_top_level_oracle(moduli, noise, seed):
    channels = []

    def build():
        instance = random_abelian_hsp_instance(moduli, np.random.default_rng(seed))
        if noise is not None:
            install_noise(NoiseSpec.parse(noise), instance, None, run_seed=seed)
            channels.append(instance.oracle.noise)
        return _tuple_oracle(instance.group.group, instance.oracle), instance.query_report

    _check(build)
    if noise is not None:
        bulk, scalar = channels
        assert bulk.flips == scalar.flips


@pytest.mark.parametrize("noise", [None, "oracle-flip(0.3)"])
def test_abelian_fresh_view_keeps_the_bulk_labeller(noise):
    def build():
        instance = random_abelian_hsp_instance([6, 4, 3], np.random.default_rng(11))
        if noise is not None:
            install_noise(NoiseSpec.parse(noise), instance, None, run_seed=5)
        view = instance.oracle.fresh_view()
        assert view._label_many is not None
        return _tuple_oracle(instance.group.group, view), view.counter.snapshot

    _check(build)


def test_abelian_scan_labels_the_uncached_domain_in_one_batch():
    instance = random_abelian_hsp_instance([6, 4], np.random.default_rng(7))
    batches = []
    original = instance.oracle._label_many

    def recorded(points):
        batches.append(points.shape)
        return original(points)

    instance.oracle._label_many = recorded
    oracle = _tuple_oracle(instance.group.group, instance.oracle)
    oracle.identity_coset_mask()
    # f(0) went through the scalar query; the other 23 points in one batch.
    assert batches == [(23, 2)]
    assert instance.query_report()["classical_queries"] == 24


@pytest.mark.parametrize("moduli", [[5], [4, 6], [2, 3, 4]])
def test_kernel_generators_fallback_reuses_the_mask(moduli):
    instance = random_abelian_hsp_instance(moduli, np.random.default_rng(3))
    oracle = _tuple_oracle(instance.group.group, instance.oracle)
    oracle._declared = None
    generators = oracle.kernel_generators()
    assert oracle._domain_labels is not None
    mask = oracle.identity_coset_mask()
    kernel = {x for x, inside in zip(oracle.module.elements(), mask) if inside}
    assert set(oracle.module.subgroup_elements(generators)) == kernel
