"""Dense state-vector simulation of composite quantum registers.

A :class:`RegisterState` holds the amplitudes of a register
``Z_{d1} x ... x Z_{dk}`` as a complex NumPy array of shape
``(d1, ..., dk)``.  It supports exactly the operations the paper's
algorithms need: preparing uniform superpositions, applying the QFT on a
subset of factors, evaluating a classical function into a target factor
(``|x>|y> -> |x>|y + f(x)>``), and measuring factors.

The simulator is exponential in the register size by construction; it is the
ground-truth backend used to validate the polynomial-time analytic sampler
and to demonstrate Shor period finding end to end on small moduli.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.qft import apply_inverse_qft, apply_qft

__all__ = ["RegisterState"]


class RegisterState:
    """State vector of a composite register with per-factor dimensions ``dims``."""

    def __init__(self, dims: Sequence[int], amplitudes: Optional[np.ndarray] = None):
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)
        if any(d <= 0 for d in self.dims):
            raise ValueError("all register dimensions must be positive")
        size = int(np.prod(self.dims))
        if size > (1 << 22):
            raise ValueError(
                f"register of total dimension {size} exceeds the state-vector simulation limit; "
                "use the analytic sampling backend for instances of this size"
            )
        if amplitudes is None:
            amps = np.zeros(self.dims, dtype=np.complex128)
            amps[(0,) * len(self.dims)] = 1.0
            self.amplitudes = amps
        else:
            amps = np.asarray(amplitudes, dtype=np.complex128).reshape(self.dims)
            self.amplitudes = amps / np.linalg.norm(amps)

    # -- preparation -----------------------------------------------------------
    @classmethod
    def uniform(cls, dims: Sequence[int], axes: Optional[Sequence[int]] = None) -> "RegisterState":
        """``|+...+>`` on ``axes`` (all axes by default), ``|0>`` elsewhere."""
        state = cls(dims)
        axes = tuple(axes) if axes is not None else tuple(range(len(state.dims)))
        amps = np.zeros(state.dims, dtype=np.complex128)
        index = [slice(None) if ax in axes else 0 for ax in range(len(state.dims))]
        amps[tuple(index)] = 1.0
        state.amplitudes = amps / np.linalg.norm(amps)
        return state

    def copy(self) -> "RegisterState":
        clone = RegisterState(self.dims)
        clone.amplitudes = self.amplitudes.copy()
        return clone

    # -- unitaries ----------------------------------------------------------------
    def qft(self, axes: Optional[Sequence[int]] = None) -> "RegisterState":
        self.amplitudes = apply_qft(self.amplitudes, axes)
        return self

    def inverse_qft(self, axes: Optional[Sequence[int]] = None) -> "RegisterState":
        self.amplitudes = apply_inverse_qft(self.amplitudes, axes)
        return self

    def apply_classical_function(
        self,
        func: Callable[[Tuple[int, ...]], int],
        source_axes: Sequence[int],
        target_axis: int,
    ) -> "RegisterState":
        """The oracle unitary ``|x>|y> -> |x>|y + f(x) mod d_target>``.

        ``func`` receives the tuple of values on ``source_axes`` and must
        return an integer.  Implemented by permuting slices of the amplitude
        array: for each value of the source axes, the target axis is rolled
        by ``f(x)`` — a reversible (unitary, permutation) operation.
        """
        dims = self.dims
        target_dim = dims[target_axis]
        source_axes = tuple(source_axes)
        # Enumerate source values; vectorise the roll along the target axis.
        source_shape = tuple(dims[a] for a in source_axes)
        new_amplitudes = self.amplitudes.copy()
        for source_value in np.ndindex(*source_shape):
            shift = int(func(tuple(int(v) for v in source_value))) % target_dim
            if shift == 0:
                continue
            index: List = [slice(None)] * len(dims)
            for axis, value in zip(source_axes, source_value):
                index[axis] = value
            slab = self.amplitudes[tuple(index)]
            new_amplitudes[tuple(index)] = np.roll(slab, shift, axis=self._rolled_axis(target_axis, source_axes))
        self.amplitudes = new_amplitudes
        return self

    def _rolled_axis(self, target_axis: int, fixed_axes: Sequence[int]) -> int:
        """Axis index of ``target_axis`` after the fixed axes have been indexed away."""
        return target_axis - sum(1 for a in fixed_axes if a < target_axis)

    # -- measurement -----------------------------------------------------------------
    def probabilities(self, axes: Optional[Sequence[int]] = None) -> np.ndarray:
        """Marginal measurement distribution on ``axes`` (all axes by default)."""
        probs = np.abs(self.amplitudes) ** 2
        if axes is None:
            return probs
        axes = tuple(axes)
        other = tuple(a for a in range(len(self.dims)) if a not in axes)
        marginal = probs.sum(axis=other) if other else probs
        return marginal

    def measure(self, axes: Sequence[int], rng: np.random.Generator) -> Tuple[int, ...]:
        """Measure ``axes`` in the computational basis; collapses the state."""
        axes = tuple(axes)
        marginal = self.probabilities(axes)
        flat = marginal.reshape(-1)
        flat = flat / flat.sum()
        outcome_index = int(rng.choice(len(flat), p=flat))
        outcome = np.unravel_index(outcome_index, marginal.shape)
        # Collapse: zero out all amplitudes inconsistent with the outcome.
        index: List = [slice(None)] * len(self.dims)
        for axis, value in zip(axes, outcome):
            index[axis] = int(value)
        collapsed = np.zeros_like(self.amplitudes)
        collapsed[tuple(index)] = self.amplitudes[tuple(index)]
        norm = np.linalg.norm(collapsed)
        self.amplitudes = collapsed / norm
        return tuple(int(v) for v in outcome)

    def fidelity_with(self, other: "RegisterState") -> float:
        """``|<self|other>|^2`` (diagnostics in tests)."""
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)
