"""Counted element orders charge the same totals on both routes.

:meth:`~repro.blackbox.oracle.BlackBoxGroup.element_order` takes the order
from the wrapped group's Cayley engine when there is one and charges the
counter what the scalar counted route spends (binary powers at the trial
exponents of :func:`~repro.linalg.modular.element_order_from_exponent`, or
the power walk when there is no exponent bound).  These tests diff that
route against the engine-less reference (:func:`no_engine`) on every
registry family: the orders and the whole counter snapshot must agree.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import no_engine
from repro.blackbox.oracle import BlackBoxGroup
from repro.experiments.registry import build_instance, families
from repro.linalg.modular import element_order_from_exponent, order_trial_exponents

SEED = 20010202

#: One small instance per registry family.
FAMILY_POINTS = {
    "abelian_random": {"moduli": (8, 9)},
    "dihedral_rotation": {"n": 12},
    "dihedral_bounded_quotient": {"d": 3},
    "metacyclic_core": {"pq": (7, 3)},
    "symmetric_alternating": {"n": 4},
    "extraspecial_center": {"p": 3},
    "extraspecial_random": {"p": 3, "rank": 2},
    "wreath_random": {"k": 2},
    "diagnostic_fault": {"n": 8},
}

#: How the order is asked for: the group's own bound, an explicit multiple
#: of every order, an explicit exponent that is no such multiple (the
#: scalar route's answer stands), and a group without an exponent bound.
CASES = ("bound", "exponent", "not_a_multiple", "unbounded")


def test_family_points_cover_registry():
    assert set(FAMILY_POINTS) == set(families())


def _group(family):
    return build_instance(family, dict(FAMILY_POINTS[family]), np.random.default_rng(SEED)).group.group


def _elements(family):
    """The identity, the generators and random elements of the family's group."""
    with no_engine():
        group = _group(family)
    rng = np.random.default_rng(SEED)
    return [group.identity(), *group.generators(), *(group.random_element(rng) for _ in range(6))]


def _counted_orders(family, case, route, elements):
    """Orders of ``elements`` through a fresh counted wrapper, on ``route``."""
    with route():
        group = _group(family)
        exponent = None
        if case == "exponent":
            exponent = 2 * group.order()
        elif case == "not_a_multiple":
            exponent = group.order() + 1
        elif case == "unbounded":
            group.exponent_bound = lambda: None
        black_box = BlackBoxGroup(group)
        powers = []
        power = black_box.power
        black_box.power = lambda a, k: powers.append(k) or power(a, k)
        orders = [black_box.element_order(x, exponent) for x in elements]
    has_engine = getattr(group, "_cayley_engine", None) is not None
    assert has_engine == (route is nullcontext)
    return orders, black_box.counter.snapshot(), powers


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("family", sorted(FAMILY_POINTS))
def test_engine_route_charges_what_the_scalar_route_spends(family, case):
    elements = _elements(family)
    orders, snapshot, powers = _counted_orders(family, case, nullcontext, elements)
    reference_orders, reference_snapshot, reference_powers = _counted_orders(family, case, no_engine, elements)
    assert orders == reference_orders
    assert snapshot == reference_snapshot
    assert snapshot["identity_tests"] >= len(elements)
    if case == "not_a_multiple":
        assert powers == reference_powers
    else:
        # The engine route replays the scalar powers instead of computing them.
        assert not powers and (reference_powers or case == "unbounded")


@settings(deadline=None, max_examples=200)
@given(order=st.integers(1, 10**4), multiplier=st.integers(1, 10**3))
def test_trial_exponents_are_the_exponents_the_prime_loop_powers_at(order, multiplier):
    exponent = order * multiplier
    powered = []

    def power(k):
        powered.append(k)
        return k

    found = element_order_from_exponent(power, lambda k: k % order == 0, exponent)
    assert found == order
    assert order_trial_exponents(order, exponent) == powered
