"""One Hermite form per subgroup: the coset reducer and its callers agree.

Every Abelian coset labeller — :func:`coset_representative`,
:func:`coset_representative_many`, the instance labeller of
:mod:`repro.blackbox.instances` and :class:`SubgroupStructureOracle` —
reduces against the pivoted Hermite form of one :class:`CosetReducer`, so
they must return identical tuples on any input, including unreduced and
negative coordinates and moduli past the int64 fast path.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.linalg.zmodule as zmodule
from repro.blackbox.instances import HSPInstance, subgroup_coset_label
from repro.groups.abelian import AbelianTupleGroup
from repro.linalg.zmodule import CosetReducer, coset_representative, coset_representative_many
from repro.quantum.sampling import SubgroupStructureOracle

# Moduli up to 2**48 exercise the exact big-integer fallback of the batch
# path, which leaves int64 arithmetic once a row or a point exceeds 2**31.
_moduli = st.lists(
    st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=2, max_value=1 << 48)),
    min_size=1,
    max_size=4,
)


@st.composite
def _reduction_cases(draw):
    moduli = draw(_moduli)
    coordinate = st.integers(min_value=-(1 << 50), max_value=1 << 50)
    vector = st.tuples(*[coordinate for _ in moduli])
    generators = draw(st.lists(vector, max_size=3))
    points = draw(st.lists(vector, min_size=1, max_size=6))
    return moduli, generators, points


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(_reduction_cases())
def test_every_labeller_returns_the_reducer_tuples(case):
    moduli, generators, points = case
    reducer = CosetReducer(generators, moduli)
    expected = [reducer(x) for x in points]

    assert [coset_representative(x, generators, moduli) for x in points] == expected
    assert coset_representative_many(points, generators, moduli) == expected
    assert reducer.many(points) == expected

    label = subgroup_coset_label(AbelianTupleGroup(moduli), generators)
    assert [label(x) for x in points] == expected

    oracle = SubgroupStructureOracle(moduli, generators)
    assert [oracle.evaluate(x) for x in points] == expected
    assert oracle.evaluate_many(points) == expected

    for x, representative in zip(points, expected):
        assert all(type(v) is int for v in representative)
        # A coset's representative is its own representative.
        assert reducer(representative) == representative
        assert reducer(tuple(v + m for v, m in zip(x, moduli))) == representative


def test_empty_batch_and_trivial_subgroup():
    moduli = [4, 6]
    assert coset_representative_many([], [], moduli) == []
    reducer = CosetReducer([], moduli)
    assert reducer((5, -1)) == (1, 5)
    assert reducer.many([(5, -1), (4, 6)]) == [(1, 5), (0, 0)]


def test_one_hermite_form_per_subgroup(monkeypatch):
    calls = []
    original = zmodule.hermite_normal_form

    def spy(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(zmodule, "hermite_normal_form", spy)
    group = AbelianTupleGroup([16, 9, 5])
    instance = HSPInstance.from_subgroup(group, [(4, 3, 0), (0, 0, 1)])
    domain = list(itertools.product(range(16), range(9), range(5)))
    labels = instance.oracle.evaluate_many(domain)
    view = instance.oracle.fresh_view()
    assert view.evaluate_many(domain) == labels
    assert [view(x) for x in domain] == labels
    assert len(set(labels)) == 720 // 60  # |<(4, 3, 0), (0, 0, 1)>| = 12 * 5
    assert len(calls) == 1
