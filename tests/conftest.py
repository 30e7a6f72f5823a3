"""Shared fixtures for the test-suite.

Every randomised test receives an explicitly seeded generator so the whole
suite is reproducible; the ``sampler`` fixture is the default Fourier
sampling backend (auto: statevector for small domains, analytic beyond).
:func:`no_engine` is the engine-less reference the parity tests diff the
default route against.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import repro.groups.engine as engine_module
from repro.quantum.sampling import FourierSampler


@contextmanager
def no_engine():
    """Run the block on the path of groups too large for a Cayley engine.

    With :data:`repro.groups.engine.DEFAULT_INTERN_LIMIT` at 0,
    :func:`~repro.groups.engine.maybe_engine` takes its real decline branch
    for every group without an installed engine — the per-element fallback
    that huge and unknown-order groups take in production.  Groups must be
    built inside the block: an engine already installed on a group is kept.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "DEFAULT_INTERN_LIMIT", 0)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20010202)  # arXiv submission date of the paper


@pytest.fixture
def sampler(rng):
    return FourierSampler(backend="auto", rng=rng)


@pytest.fixture
def analytic_sampler(rng):
    return FourierSampler(backend="analytic", rng=rng)


@pytest.fixture
def statevector_sampler(rng):
    return FourierSampler(backend="statevector", rng=rng)
