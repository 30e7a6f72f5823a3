"""Unit tests for the state-vector simulator and the QFT layer."""

import numpy as np
import pytest

from repro.quantum.qft import apply_inverse_qft, apply_qft, qft_matrix, qft_probabilities_of_coset
from repro.quantum.state import RegisterState


class TestQftMatrix:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_unitary(self, n):
        f = qft_matrix(n)
        assert np.allclose(f @ f.conj().T, np.eye(n), atol=1e-12)

    def test_matches_apply_qft_on_basis_state(self):
        n = 6
        amplitudes = np.zeros(n, dtype=np.complex128)
        amplitudes[2] = 1.0
        via_matrix = qft_matrix(n)[:, 2]
        via_fft = apply_qft(amplitudes)
        assert np.allclose(via_matrix, via_fft, atol=1e-12)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        state = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        state /= np.linalg.norm(state)
        assert np.allclose(apply_inverse_qft(apply_qft(state)), state, atol=1e-12)

    def test_partial_axes(self):
        rng = np.random.default_rng(2)
        state = rng.normal(size=(4, 3))
        transformed = apply_qft(state, axes=(0,))
        # Norm preserved, second axis untouched in aggregate.
        assert np.isclose(np.linalg.norm(transformed), np.linalg.norm(state))


class TestCosetDistribution:
    @pytest.mark.parametrize("dim,step", [(8, 2), (1 << 8, 16), (1 << 12, 16), (1 << 16, 16)])
    def test_subgroup_state_supported_on_annihilator(self, dim, step):
        # H = <step> in Z_dim; H^perp = <dim / step>, e.g. {0, 4} for <2> in Z_8.
        indicator = np.zeros(dim)
        indicator[::step] = 1
        probs = qft_probabilities_of_coset(indicator)
        support = np.nonzero(probs > 1e-12)[0]
        assert set(support) == set(range(0, dim, dim // step))
        assert np.allclose(probs[support], 1 / step)

    def test_coset_offset_does_not_change_distribution(self):
        base = np.zeros(12)
        base[[0, 3, 6, 9]] = 1
        shifted = np.roll(base, 5)
        assert np.allclose(qft_probabilities_of_coset(base), qft_probabilities_of_coset(shifted))

    def test_multidimensional_coset(self):
        # H = <(1,1)> in Z_2 x Z_2; H^perp = {(0,0), (1,1)}.
        indicator = np.zeros((2, 2))
        indicator[0, 0] = indicator[1, 1] = 1
        probs = qft_probabilities_of_coset(indicator)
        assert np.isclose(probs[0, 0], 0.5) and np.isclose(probs[1, 1], 0.5)
        assert np.isclose(probs[0, 1], 0.0) and np.isclose(probs[1, 0], 0.0)

    def test_rejects_zero_indicator(self):
        with pytest.raises(ValueError):
            qft_probabilities_of_coset(np.zeros(4))


class TestRegisterState:
    def test_initial_state(self):
        state = RegisterState((4, 3))
        probs = state.probabilities()
        assert np.isclose(probs[0, 0], 1.0)

    def test_uniform_preparation(self):
        state = RegisterState.uniform((4, 3), axes=(0,))
        probs = state.probabilities(axes=(0,))
        assert np.allclose(probs, 0.25)
        assert np.isclose(state.probabilities(axes=(1,))[0], 1.0)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            RegisterState((1 << 12, 1 << 12))

    def test_apply_classical_function_is_permutation(self):
        state = RegisterState.uniform((4, 4), axes=(0,))
        state.apply_classical_function(lambda xs: xs[0] * 2, source_axes=(0,), target_axis=1)
        # Norm preserved and each source value maps to exactly one target value.
        assert np.isclose(np.linalg.norm(state.amplitudes), 1.0)
        probs = state.probabilities()
        for x in range(4):
            nonzero = np.nonzero(probs[x] > 1e-12)[0]
            assert list(nonzero) == [(x * 2) % 4]

    def test_measure_collapses(self, rng):
        state = RegisterState.uniform((4,))
        outcome = state.measure((0,), rng)
        assert 0 <= outcome[0] < 4
        assert np.isclose(state.probabilities()[outcome[0]], 1.0)

    def test_measurement_statistics_of_period_two_function(self, rng):
        # |x>|f(x)> with f(x) = x mod 2 on Z_8, then QFT: outcomes in {0, 4}.
        outcomes = set()
        for _ in range(20):
            state = RegisterState.uniform((8, 2), axes=(0,))
            state.apply_classical_function(lambda xs: xs[0] % 2, source_axes=(0,), target_axis=1)
            state.measure((1,), rng)
            state.qft(axes=(0,))
            outcomes.add(state.measure((0,), rng)[0])
        assert outcomes <= {0, 4}
        assert len(outcomes) == 2

    def test_fidelity(self):
        a = RegisterState((4,))
        b = RegisterState((4,))
        assert np.isclose(a.fidelity_with(b), 1.0)
        b.amplitudes = np.roll(b.amplitudes, 1)
        assert np.isclose(a.fidelity_with(b), 0.0)

    def test_copy_is_independent(self):
        a = RegisterState((4,))
        b = a.copy()
        b.qft()
        assert not np.allclose(a.amplitudes, b.amplitudes)
