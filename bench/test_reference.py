"""Tests of the benchmark's own reference formulas, against explicit
full-space constructions that share nothing with `uqd` or with `reference`.

    python3 -m pytest bench/test_reference.py
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import reference as ref


def permutation_operator(qubits: int, order: tuple[int, ...]) -> np.ndarray:
    """Matrix sending qubit axis order[i] to axis i."""
    dim = 2**qubits
    basis = np.eye(dim).reshape((dim,) + (2,) * qubits)
    return np.transpose(basis, (0,) + tuple(1 + a for a in order)).reshape(dim, dim).T


def symmetrizer(qubits: int, positions: list[int]) -> np.ndarray:
    """Projector onto states symmetric under every permutation of `positions`
    (0-based qubit axes), as the average of the permutation operators."""
    total = np.zeros((2**qubits, 2**qubits))
    perms = list(itertools.permutations(positions))
    for perm in perms:
        order = list(range(qubits))
        for src, dst in zip(positions, perm):
            order[dst] = src
        total += permutation_operator(qubits, tuple(order))
    return total / len(perms)


def register(n: int):
    """Qubit axes: program 1 on 0, 2, ..., program 2 on 1, 3, ..., tail last."""
    qubits = 2 * n + 1
    odd = list(range(0, 2 * n, 2))
    even = list(range(1, 2 * n, 2))
    return qubits, odd, even, 2 * n


def pi0_full(n: int, c1: float, c2: float) -> np.ndarray:
    qubits, odd, even, tail = register(n)
    eye = np.eye(2**qubits)
    p_even = symmetrizer(qubits, even + [tail])
    p_odd = symmetrizer(qubits, odd + [tail])
    return eye - c1 * (eye - p_even) - c2 * (eye - p_odd)


def qubit(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])


def product_state(qubits: list[np.ndarray]) -> np.ndarray:
    vec = np.ones(1, dtype=complex)
    for q in qubits:
        vec = np.kron(vec, q)
    return vec


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("c1,c2", [(0.3, 0.4), (0.7, 0.2), (1.0, 1.0), (0.0, 0.9)])
def test_least_eigenvalue_matches_explicit_pi0(n, c1, c2):
    qubits, odd, even, _ = register(n)
    # Registers only occupy states symmetric within each program block.
    inside = symmetrizer(qubits, odd) @ symmetrizer(qubits, even)
    values, vectors = np.linalg.eigh(inside)
    basis = vectors[:, values > 0.5]
    assert basis.shape[1] == 2 * (n + 1) ** 2
    spectrum = np.linalg.eigvalsh(basis.T @ pi0_full(n, c1, c2) @ basis)
    assert spectrum[0] == pytest.approx(ref.least_eigenvalue(n, c1, c2), abs=1e-12)
    # One eigenvalue 1 per block; the rest pair up to 2 - c1 - c2.
    blocks = len(ref.expected_block_sizes(n))
    nearest_one = np.argsort(np.abs(spectrum - 1.0))[:blocks]
    assert np.allclose(spectrum[nearest_one], 1.0, atol=1e-12)
    rest = np.sort(np.delete(spectrum, nearest_one))
    assert np.allclose(rest + rest[::-1], 2.0 - c1 - c2, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_pair_success_matches_explicit_expectation(n):
    qubits, odd, even, tail = register(n)
    eye = np.eye(2**qubits)
    p_even = symmetrizer(qubits, even + [tail])
    rng = np.random.default_rng(5)
    for _ in range(5):
        th1, th2 = np.arccos(rng.uniform(-1, 1, 2))
        ph1, ph2 = rng.uniform(0, 2 * math.pi, 2)
        psi1, psi2 = qubit(th1, ph1), qubit(th2, ph2)
        layout = [psi1 if a in odd else psi2 for a in range(qubits - 1)] + [psi1]
        state = product_state(layout)
        c1 = 0.6
        p1 = float(np.real(np.vdot(state, c1 * (eye - p_even) @ state)))
        fid = ref.fidelity(th1, ph1, th2, ph2)
        assert fid == pytest.approx(abs(np.vdot(psi1, psi2)) ** 2, abs=1e-14)
        assert p1 == pytest.approx(ref.pair_success(n, c1, fid), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_optimal_scales_saturate_and_maximize(n):
    low, high = ref.validity_window(n)
    for eta1 in np.linspace(low, high, 7)[1:-1]:
        c1, c2 = ref.optimal_scales(n, eta1)
        assert ref.least_eigenvalue(n, c1, c2) == pytest.approx(0.0, abs=1e-12)
        best = ref.average_success(n, eta1, c1, c2)
        assert best == pytest.approx(ref.povm_success(n, eta1), abs=1e-12)
        # No point on the positivity edge does better.
        for c in np.linspace(0.0, 1.0, 201):
            d = 1.0 - (2 * n + 1) * c / (n + 1) ** 2
            edge = min(1.0, (1.0 - c) / d)
            assert ref.average_success(n, eta1, c, edge) <= best + 1e-12


@pytest.mark.parametrize("n", [1, 2, 6, 30])
def test_regimes_meet_at_the_window_edges(n):
    low, high = ref.validity_window(n)
    assert ref.povm_success(n, low) == pytest.approx(ref.projective_success(n, low, 2), abs=1e-12)
    assert ref.povm_success(n, high) == pytest.approx(ref.projective_success(n, high, 1), abs=1e-12)
    assert ref.optimal_scales(n, low) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert ref.optimal_scales(n, high) == pytest.approx((1.0, 0.0), abs=1e-12)
    assert ref.regime(n, low * 0.99) == "vn2" and ref.regime(n, 0.5) == "povm"
    assert ref.regime(n, high + (1 - high) * 0.01) == "vn1"


def test_block_sizes_fill_the_reduced_basis():
    for n in (1, 4, 24):
        assert sum(ref.expected_block_sizes(n)) == 2 * (n + 1) ** 2


def test_binomial_bound():
    assert ref.binomial_deviation_ok(5000, 10000, 0.5, 5.0)
    assert ref.binomial_deviation_ok(5250, 10000, 0.5, 5.0)
    assert not ref.binomial_deviation_ok(5300, 10000, 0.5, 5.0)
