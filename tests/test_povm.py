"""Measurement triple construction and the two success-probability routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqd.povm import (
    PovmParams,
    batch_success_probabilities,
    build_povm,
    closed_form_expectation,
    no_error_check,
    projected_overlap_batch,
    success_probability,
    symmetric_overlap_batch,
    total_success,
)
from uqd.symmetric import (
    BlochQubit,
    build_input_state,
    dicke_amplitudes,
    reduced_dim,
    tail_split_vectors,
)

thetas = st.floats(min_value=0.0, max_value=math.pi)
phis = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)
scales = st.floats(min_value=0.0, max_value=1.0)


def test_params_validation():
    PovmParams(0.0, 1.0)
    for c1, c2 in ((1.2, 0.5), (-0.1, 0.5), (0.5, float("nan"))):
        with pytest.raises(ValueError):
            PovmParams(c1, c2)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=4), scales, scales)
def test_completeness(n, c1, c2):
    triple = build_povm(n, PovmParams(c1, c2))
    total = triple.pi1.entries + triple.pi2.entries + triple.pi0.entries
    assert np.max(np.abs(total - np.eye(reduced_dim(n)))) < 1e-12


def test_zero_scales_give_identity_failure_element():
    triple = build_povm(3, PovmParams(0.0, 0.0))
    np.testing.assert_allclose(
        triple.pi0.entries, np.eye(reduced_dim(3)), atol=1e-15
    )


def test_unit_scale_element_is_a_projector():
    triple = build_povm(2, PovmParams(1.0, 0.0))
    p = triple.pi1.entries
    assert np.max(np.abs(p @ p - p)) < 1e-10


def test_failure_element_saturates_at_symmetric_optimum():
    # c1 = c2 = (n+1)/(2n+1) = 3/5 at n = 2 drives the least eigenvalue to 0
    triple = build_povm(2, PovmParams(0.6, 0.6))
    eigs = np.linalg.eigvalsh(triple.pi0.entries)
    assert abs(eigs[0]) < 1e-10


def test_identical_qubits_never_identified():
    q = BlochQubit(0.8, 2.5)
    triple = build_povm(2, PovmParams(0.7, 0.9))
    for which in (1, 2):
        state = build_input_state(q, q, 2, which)
        assert abs(success_probability(state, triple, 1)) < 1e-12
        assert abs(success_probability(state, triple, 2)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orthogonal_pair_success(n):
    # |1>^xn |0> projected onto the symmetric space leaves residual n/(n+1)
    c1 = 0.7
    triple = build_povm(n, PovmParams(c1, 0.4))
    state = build_input_state(BlochQubit(0.0, 0.0), BlochQubit(math.pi, 0.0), n, 1)
    assert abs(success_probability(state, triple, 1) - c1 * n / (n + 1)) < 1e-12


def test_success_probability_usage_errors():
    triple = build_povm(2, PovmParams(0.5, 0.5))
    state = build_input_state(BlochQubit(0.1, 0.0), BlochQubit(1.0, 1.0), 2, 1)
    with pytest.raises(ValueError):
        success_probability(state, triple, 3)
    other = build_input_state(BlochQubit(0.1, 0.0), BlochQubit(1.0, 1.0), 3, 1)
    with pytest.raises(ValueError):
        success_probability(other, triple, 1)


def test_closed_form_symmetric_input_is_one():
    for n in (1, 3, 5):
        q1 = BlochQubit(1.3, 0.4)
        assert abs(closed_form_expectation(q1, q1, n, 1) - 1.0) < 1e-12
        assert abs(closed_form_expectation(q1, q1, n, 2) - 1.0) < 1e-12


def test_closed_form_orthogonal_pair():
    for n in (1, 2, 5):
        value = closed_form_expectation(
            BlochQubit(0.0, 0.0), BlochQubit(math.pi, 0.0), n, 1
        )
        assert abs(value - 1 / (n + 1)) < 1e-13


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4),
    thetas,
    phis,
    thetas,
    phis,
    st.sampled_from([1, 2]),
)
def test_closed_form_matches_matrix_route(n, t1, p1, t2, p2, which):
    psi1, psi2 = BlochQubit(t1, p1), BlochQubit(t2, p2)
    params = PovmParams(0.35, 0.45)
    triple = build_povm(n, params)
    state = build_input_state(psi1, psi2, n, which)
    overlap = closed_form_expectation(psi1, psi2, n, which)
    assert 0.0 <= overlap <= 1.0 + 1e-12
    c = params.c1 if which == 1 else params.c2
    assert abs(success_probability(state, triple, which) - c * (1 - overlap)) < 1e-10


@settings(max_examples=30)
@given(thetas, phis, thetas, phis, st.floats(min_value=-10.0, max_value=10.0))
def test_global_phase_invariance(t1, p1, t2, p2, delta):
    # a common phase offset on both qubits cannot move any probability
    n = 2
    triple = build_povm(n, PovmParams(0.6, 0.3))
    base = build_input_state(BlochQubit(t1, p1), BlochQubit(t2, p2), n, 1)
    shifted = build_input_state(
        BlochQubit(t1, p1 + delta), BlochQubit(t2, p2 + delta), n, 1
    )
    for which in (1, 2):
        assert (
            abs(
                success_probability(base, triple, which)
                - success_probability(shifted, triple, which)
            )
            < 1e-12
        )


@settings(max_examples=30)
@given(thetas, phis, thetas, phis, scales)
def test_success_scales_linearly_in_c(t1, p1, t2, p2, c1):
    n = 3
    state = build_input_state(BlochQubit(t1, p1), BlochQubit(t2, p2), n, 1)
    full = success_probability(state, build_povm(n, PovmParams(1.0, 0.2)), 1)
    part = success_probability(state, build_povm(n, PovmParams(c1, 0.2)), 1)
    assert abs(part - c1 * full) < 1e-12


@settings(max_examples=25)
@given(thetas, phis, thetas, phis, scales, scales)
def test_no_error_check_stays_at_float_noise(t1, p1, t2, p2, c1, c2):
    triple = build_povm(2, PovmParams(c1, c2))
    leak = no_error_check(triple, BlochQubit(t1, p1), BlochQubit(t2, p2))
    assert leak < 1e-10


def _random_pairs(rng, count):
    theta1 = np.arccos(rng.uniform(-1, 1, count))
    theta2 = np.arccos(rng.uniform(-1, 1, count))
    phi1 = rng.uniform(0, 2 * math.pi, count)
    phi2 = rng.uniform(0, 2 * math.pi, count)
    return theta1, phi1, theta2, phi2


def test_batch_matches_scalar_route():
    rng = np.random.default_rng(7)
    params = PovmParams(0.35, 0.45)
    theta1, phi1, theta2, phi2 = _random_pairs(rng, 20)
    # edge pairs: poles, identical qubits, antipodal qubits
    edges = [
        (0.0, 0.0, math.pi, 0.0),
        (math.pi, 1.3, 0.0, 4.0),
        (0.0, 0.0, 0.0, 2.0),
        (math.pi, 0.5, math.pi, 5.5),
        (1.1, 0.7, 1.1, 0.7),
        (0.4, 2.0, math.pi - 0.4, 2.0 + math.pi),
        (math.pi / 2, 0.0, math.pi / 2, math.pi),
    ]
    theta1, phi1, theta2, phi2 = (
        np.concatenate([col, [edge[i] for edge in edges]])
        for i, col in enumerate((theta1, phi1, theta2, phi2))
    )
    for n in (1, 2, 5, 8):
        triple = build_povm(n, params)
        p1, p2, leak1, leak2 = batch_success_probabilities(
            n, params, theta1, phi1, theta2, phi2
        )
        for i in range(len(theta1)):
            psi1 = BlochQubit(theta1[i], phi1[i])
            psi2 = BlochQubit(theta2[i], phi2[i])
            s1 = build_input_state(psi1, psi2, n, 1)
            s2 = build_input_state(psi1, psi2, n, 2)
            assert abs(p1[i] - success_probability(s1, triple, 1)) < 1e-12
            assert abs(p2[i] - success_probability(s2, triple, 2)) < 1e-12
            assert abs(leak1[i] - success_probability(s1, triple, 2)) < 1e-12
            assert abs(leak2[i] - success_probability(s2, triple, 1)) < 1e-12
        assert np.max(np.abs(leak1)) < 1e-12
        assert np.max(np.abs(leak2)) < 1e-12


@pytest.mark.parametrize("n", [1000, 5000])
def test_batch_closed_form_and_leak_at_large_n(n):
    # the range where Dicke magnitudes switch to log space
    rng = np.random.default_rng(n)
    params = PovmParams(0.5, 0.7)
    theta1, phi1, theta2, phi2 = _random_pairs(rng, 200)
    p1, p2, leak1, leak2 = batch_success_probabilities(
        n, params, theta1, phi1, theta2, phi2
    )
    fid = 0.5 * (
        1
        + np.cos(theta1) * np.cos(theta2)
        + np.sin(theta1) * np.sin(theta2) * np.cos(phi1 - phi2)
    )
    miss = n * (1 - fid) / (n + 1)
    assert np.max(np.abs(p1 - params.c1 * miss)) < 1e-12
    assert np.max(np.abs(p2 - params.c2 * miss)) < 1e-12
    assert np.max(np.abs(leak1)) < 1e-10
    assert np.max(np.abs(leak2)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 5, 8, 60])
def test_projection_of_mismatched_qubits_matches_closed_form(n):
    # block and tail hold different qubits, so the overlap is not trivially 1
    rng = np.random.default_rng(100 + n)
    theta_b, phi_b, theta_t, phi_t = _random_pairs(rng, 50)
    projected = projected_overlap_batch(n, theta_b, phi_b, theta_t, phi_t)
    fid = 0.5 * (
        1
        + np.cos(theta_b) * np.cos(theta_t)
        + np.sin(theta_b) * np.sin(theta_t) * np.cos(phi_b - phi_t)
    )
    assert np.max(np.abs(projected - (1 + n * fid) / (n + 1))) < 1e-12
    assert np.max(np.abs(fid - 1)) > 0.1
    if n <= 8:
        # the same projection through the dense tail_split_vectors factor
        v = tail_split_vectors(n)
        for i in range(len(theta_b)):
            block = dicke_amplitudes(BlochQubit(theta_b[i], phi_b[i]), n)
            tail = BlochQubit(theta_t[i], phi_t[i]).amplitudes()
            dense = np.linalg.norm(v @ np.kron(block, tail)) ** 2
            assert abs(projected[i] - dense) < 1e-12


def test_overlap_batch_shapes():
    out = symmetric_overlap_batch(
        2, [0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [1.0, 1.1, 1.2], [0.5, 0.5, 0.5]
    )
    assert out.shape == (3,)
    assert np.all((0.0 <= out) & (out <= 1.0 + 1e-12))


def test_total_success():
    assert total_success(0.3, 0.1, 0.25) == pytest.approx(0.15)
    assert total_success(0.42, 0.9, 1.0) == pytest.approx(0.42)
    assert total_success(0.37, 0.37, 0.123) == pytest.approx(0.37)
    with pytest.raises(ValueError):
        total_success(0.3, 0.1, 1.5)
    with pytest.raises(ValueError):
        total_success(0.3, 0.1, float("nan"))
