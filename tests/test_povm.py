"""Measurement triple construction and the two success-probability routes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqd.povm
from uqd.fullspace import (
    apply_symmetric_projector,
    even_positions,
    odd_positions,
    tail_position,
    tensor_inputs,
)
from uqd.montecarlo import _LEAK_TOL, mc_average_success
from uqd.povm import (
    PovmParams,
    batch_success_probabilities,
    build_povm,
    closed_form_expectation,
    closed_form_expectations,
    projected_overlap_batch,
    success_probabilities,
    success_probability,
    symmetric_overlap_batch,
)
from uqd.symmetric import (
    WALK_N_MAX,
    BlochQubit,
    build_input_state,
    build_input_states,
    dicke_amplitudes,
    dicke_magnitudes_batch,
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
    for element in (triple.pi1, triple.pi2, triple.pi0):
        assert element.entries.dtype == np.float64
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


def _qubit_pairs(count, seed):
    angles = np.random.default_rng(seed).uniform(0, [math.pi, 2 * math.pi], (2 * count, 2))
    qubits = [BlochQubit(theta, phi) for theta, phi in angles]
    return qubits[:count], qubits[count:]


@pytest.mark.parametrize("n", [1, 3, 100])
def test_closed_form_expectations_equal_scalar_bitwise(n):
    firsts, seconds = _qubit_pairs(20, n)
    firsts.append(BlochQubit(0.0, 0.0))
    seconds.append(BlochQubit(math.pi, 0.0))
    for which in (1, 2):
        batch = closed_form_expectations(firsts, seconds, n, which)
        scalar = [closed_form_expectation(a, b, n, which) for a, b in zip(firsts, seconds)]
        assert batch.shape == (len(firsts),)
        assert np.array_equal(batch, scalar)


@pytest.mark.parametrize("n", [1, 4])
def test_success_probabilities_match_vdot(n):
    firsts, seconds = _qubit_pairs(12, 10 + n)
    triple = build_povm(n, PovmParams(0.35, 0.45))
    for which in (1, 2):
        rows = build_input_states(firsts, seconds, n, which)
        for other in (1, 2):
            batch = success_probabilities(rows, triple, other)
            op = (triple.pi1 if other == 1 else triple.pi2).entries
            explicit = [np.vdot(row, op @ row).real for row in rows]
            assert np.max(np.abs(batch - explicit)) <= 1e-15


@pytest.mark.parametrize("n", [1, 5, 20])
def test_success_probabilities_real_products_match_complex_cast(n):
    firsts, seconds = _qubit_pairs(100, 30 + n)
    triple = build_povm(n, PovmParams(0.35, 0.45))
    for which in (1, 2):
        rows = build_input_states(firsts, seconds, n, which)
        assert np.iscomplexobj(rows)
        op = (triple.pi1 if which == 1 else triple.pi2).entries
        batch = success_probabilities(rows, triple, which)
        # the complex-cast formula the real products replace
        cast = np.real(np.sum(rows.conj() * (rows @ op.T), axis=-1))
        assert batch.dtype == np.float64
        assert np.max(np.abs(batch - cast)) <= 1e-15
        real_rows = rows.real.copy()
        real = success_probabilities(real_rows, triple, which)
        assert real.dtype == np.float64
        assert np.array_equal(real, np.sum(real_rows * (real_rows @ op.T), axis=-1))


def test_success_probabilities_never_cast_the_operator():
    n = 20
    firsts, seconds = _qubit_pairs(100, 50)
    triple = build_povm(n, PovmParams(0.35, 0.45))
    rows = build_input_states(firsts, seconds, n, 1)
    tracemalloc.start()
    try:
        success_probabilities(rows, triple, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a complex copy of the 6.2 MB operator alone would take twice its bytes
    assert peak < triple.pi1.entries.nbytes


def test_batched_routes_validation_and_empty_batch():
    q = BlochQubit(0.4, 1.0)
    triple = build_povm(2, PovmParams(0.5, 0.5))
    rows = build_input_states([q], [q], 2, 1)
    with pytest.raises(ValueError):
        closed_form_expectations([q, q], [q], 2, 1)
    with pytest.raises(ValueError):
        closed_form_expectations([q], [q], 2, 0)
    with pytest.raises(ValueError):
        success_probabilities(rows, triple, 3)
    with pytest.raises(ValueError):
        success_probabilities(build_input_states([q], [q], 3, 1), triple, 1)
    with pytest.raises(ValueError):
        success_probabilities(rows[0], triple, 1)
    assert closed_form_expectations([], [], 2, 1).shape == (0,)
    empty = np.zeros((0, reduced_dim(2)), dtype=complex)
    assert success_probabilities(empty, triple, 2).shape == (0,)


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
    psi1, psi2 = BlochQubit(t1, p1), BlochQubit(t2, p2)
    # each input's probability of firing the other input's element
    wrong1 = success_probability(build_input_state(psi1, psi2, 2, 1), triple, 2)
    wrong2 = success_probability(build_input_state(psi1, psi2, 2, 2), triple, 1)
    assert max(abs(wrong1), abs(wrong2)) < 1e-10


def _random_pairs(rng, count):
    theta1 = np.arccos(rng.uniform(-1, 1, count))
    theta2 = np.arccos(rng.uniform(-1, 1, count))
    phi1 = rng.uniform(0, 2 * math.pi, count)
    phi2 = rng.uniform(0, 2 * math.pi, count)
    return theta1, phi1, theta2, phi2


# edge pairs (theta1, phi1, theta2, phi2): poles, identical qubits, antipodal
# qubits
EDGE_PAIRS = [
    (0.0, 0.0, math.pi, 0.0),
    (math.pi, 1.3, 0.0, 4.0),
    (0.0, 0.0, 0.0, 2.0),
    (math.pi, 0.5, math.pi, 5.5),
    (1.1, 0.7, 1.1, 0.7),
    (0.4, 2.0, math.pi - 0.4, 2.0 + math.pi),
    (math.pi / 2, 0.0, math.pi / 2, math.pi),
]


def _with_edges(theta1, phi1, theta2, phi2):
    return tuple(
        np.concatenate([col, [edge[i] for edge in EDGE_PAIRS]])
        for i, col in enumerate((theta1, phi1, theta2, phi2))
    )


def test_batch_matches_scalar_route():
    rng = np.random.default_rng(7)
    params = PovmParams(0.35, 0.45)
    theta1, phi1, theta2, phi2 = _random_pairs(rng, 20)
    theta1, phi1, theta2, phi2 = _with_edges(theta1, phi1, theta2, phi2)
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
    # the range where the summation window no longer covers 0..n
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


@pytest.mark.parametrize("n", [1, 2, 5, 8, 60, 500, 5000, 100_000])
def test_projection_of_mismatched_qubits_matches_closed_form(n):
    # block and tail hold different qubits, so the overlap is not trivially 1;
    # the summation window drops less than 3e-17, far inside 1e-13
    rng = np.random.default_rng(100 + n)
    theta_b, phi_b, theta_t, phi_t = _random_pairs(rng, 50)
    projected = projected_overlap_batch(n, theta_b, phi_b, theta_t, phi_t)
    fid = 0.5 * (
        1
        + np.cos(theta_b) * np.cos(theta_t)
        + np.sin(theta_b) * np.sin(theta_t) * np.cos(phi_b - phi_t)
    )
    assert np.max(np.abs(projected - (1 + n * fid) / (n + 1))) < 1e-13
    assert np.max(np.abs(fid - 1)) > 0.1
    if n <= 8:
        # the same projection through the dense tail_split_vectors factor
        v = tail_split_vectors(n)
        for i in range(len(theta_b)):
            block = dicke_amplitudes(BlochQubit(theta_b[i], phi_b[i]), n)
            tail = BlochQubit(theta_t[i], phi_t[i]).amplitudes()
            dense = np.linalg.norm(v @ np.kron(block, tail)) ** 2
            assert abs(projected[i] - dense) < 1e-12


def _table_sums(n, theta):
    """(stay, move, cross) of the block qubit at polar angle theta, summed
    over every k of a (rows, n+1) table of Dicke magnitudes: the O(n) route
    the windowed kernel replaced.  The table runs the same walk over the whole
    row, so this checks the kernel's window and accumulation, not the ratios
    themselves; those are checked against exact arithmetic in
    tests/test_symmetric.py."""
    w = dicke_magnitudes_batch(n, theta)
    k = np.arange(n + 1)
    w2 = w * w
    stay = w2 @ ((n + 1 - k) / (n + 1))
    move = w2 @ ((k + 1) / (n + 1))
    kk = k[1:]
    cross = (w[:, 1:] * w[:, :-1]) @ (np.sqrt(kk * (n + 1 - kk)) / (n + 1))
    return stay, move, cross


def _full_table_overlap(n, theta_b, phi_b, theta_t, phi_t):
    """The projection with the full-table sums of the block qubit."""
    stay, move, cross = _table_sums(n, theta_b)
    ct, st = np.cos(theta_t / 2), np.sin(theta_t / 2)
    cos_delta = np.cos(phi_t - phi_b)
    return ct**2 * stay + st**2 * move + 2 * ct * st * cos_delta * cross


def _sizes(*cases):
    """One case per (n, id bound): each id keeps the "<n>-<bound>" name the
    case had while the full-table reference's own error set a bound per
    size.  Every size is now held to FULL_TABLE_TOL."""
    return [pytest.param(n, id=f"{n}-{bound}") for n, bound in cases]


FULL_TABLE_TOL = 1e-14


@pytest.mark.parametrize(
    "n",
    _sizes((1, "1e-12"), (2, "1e-12"), (5, "1e-12"), (8, "1e-12"), (60, "1e-12"),
           (500, "1e-12"), (1000, "1e-11"), (5000, "1e-11")),
)
def test_projection_matches_full_table_sum(n):
    # mismatched block and tail qubits plus the edge pairs
    tol = FULL_TABLE_TOL
    rng = np.random.default_rng(300 + n)
    theta_b, phi_b, theta_t, phi_t = _with_edges(*_random_pairs(rng, 60))
    projected = projected_overlap_batch(n, theta_b, phi_b, theta_t, phi_t)
    reference = _full_table_overlap(n, theta_b, phi_b, theta_t, phi_t)
    assert np.max(np.abs(projected - reference)) < tol
    # and the same-qubit leaks
    kept = projected_overlap_batch(n, theta_b, phi_b, theta_b, phi_b)
    assert np.max(np.abs(kept - _full_table_overlap(n, theta_b, phi_b, theta_b, phi_b))) < tol


def _frame_amplitudes(rng, count):
    """Half-angle amplitudes (c, s) of random qubits plus the edge qubits
    theta = 0, theta = pi, and c = s exactly, where x = 1 and the frame of
    the larger amplitude ties."""
    c = np.cos(np.arccos(rng.uniform(-1, 1, count)) / 2)
    c = np.concatenate([c, [1.0, 0.0, math.sqrt(0.5)]])
    s = np.sqrt(1.0 - c * c)
    s[-1] = c[-1]
    return c, s


# n = 23 is the last size whose window covers all of 0..n, 24 the first
# whose window does not
FRAME_SIZES = _sizes((1, "1e-12"), (2, "1e-12"), (5, "1e-12"), (23, "1e-12"), (24, "1e-12"),
                     (60, "1e-12"), (500, "1e-12"), (5000, "1e-11"))


@pytest.mark.parametrize("n", FRAME_SIZES)
def test_frame_sums_match_full_table(n):
    tol = FULL_TABLE_TOL
    # the kernel's sums are those of the qubit (big, small), with no swap back
    c, s = _frame_amplitudes(np.random.default_rng(800 + n), 40)
    big, small = np.maximum(c, s), np.minimum(c, s)
    sums = uqd.povm._tail_split_sums(n, big, small, small * small)
    for got, want in zip(sums, _table_sums(n, 2 * np.arctan2(small, big))):
        assert np.max(np.abs(got - want)) < tol
    # where s > c the frame is the mirror of (c, s): stay and move trade places
    stay, move, _ = _table_sums(n, 2 * np.arctan2(s, c))
    swapped = s > c
    assert np.max(np.abs(sums[0][swapped] - move[swapped])) < tol
    assert np.max(np.abs(stay - move)[swapped]) > 0.1


@pytest.mark.parametrize("n", FRAME_SIZES)
def test_same_qubit_leak_matches_full_table_sum(n):
    tol = FULL_TABLE_TOL
    # the Monte Carlo route: stacked (2, rows) amplitudes straight into
    # _pair_terms, each leak against the full-table projection of its qubit
    rng = np.random.default_rng(900 + n)
    c1, s1 = _frame_amplitudes(rng, 40)
    c2, s2 = _frame_amplitudes(rng, 40)
    cos_delta = rng.uniform(-1, 1, len(c1))
    params = PovmParams(0.8, 0.65)
    _, _, leak1, leak2 = uqd.povm._pair_terms(
        n, params, np.stack((c1, c2)), np.stack((s1, s2)), cos_delta
    )
    for scale, c, s, leak in ((params.c2, c1, s1, leak1), (params.c1, c2, s2, leak2)):
        stay, move, cross = _table_sums(n, 2 * np.arctan2(s, c))
        kept = c * c * stay + s * s * move + 2 * c * s * cross
        assert np.max(np.abs(leak - scale * (1.0 - kept))) < tol
        assert np.max(np.abs(leak)) < tol


@pytest.mark.parametrize("n", [100, 5000])
def test_window_drops_nothing_visible(n, monkeypatch):
    # the same recurrence over all of 0..n differs only by the dropped mass,
    # below 3e-17; theta = pi/2 gives the widest binomial
    rng = np.random.default_rng(700 + n)
    theta_b, phi_b, theta_t, phi_t = _with_edges(*_random_pairs(rng, 40))
    windowed = projected_overlap_batch(n, theta_b, phi_b, theta_t, phi_t)
    monkeypatch.setattr(uqd.povm, "_WINDOW", float(n))
    full = projected_overlap_batch(n, theta_b, phi_b, theta_t, phi_t)
    assert np.max(np.abs(windowed - full)) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_leak_matches_full_space_oracle(n):
    # the registers built qubit by qubit in the 2^(2n+1)-dimensional space
    rng = np.random.default_rng(500 + n)
    theta1, phi1, theta2, phi2 = _with_edges(*_random_pairs(rng, 40))
    params = PovmParams(0.8, 0.65)
    _, _, leak1, leak2 = batch_success_probabilities(
        n, params, theta1, phi1, theta2, phi2
    )
    psi1 = [BlochQubit(t, p) for t, p in zip(theta1, phi1)]
    psi2 = [BlochQubit(t, p) for t, p in zip(theta2, phi2)]
    odd_tail = odd_positions(n) + (tail_position(n),)
    even_tail = even_positions(n) + (tail_position(n),)
    for which, group, scale, leak in ((1, odd_tail, params.c2, leak1), (2, even_tail, params.c1, leak2)):
        states = tensor_inputs(psi1, psi2, n, which)
        kept = np.real(np.sum(states.conj() * apply_symmetric_projector(n, group, states), axis=1))
        assert np.max(np.abs(leak - scale * (1.0 - kept))) < 1e-13
    # mismatched block and tail: input 1 under the even-block projector
    states = tensor_inputs(psi1, psi2, n, 1)
    kept = np.real(np.sum(states.conj() * apply_symmetric_projector(n, even_tail, states), axis=1))
    projected = projected_overlap_batch(n, theta2, phi2, theta1, phi1)
    assert np.max(np.abs(projected - kept)) < 1e-13


def test_leak_at_huge_n_builds_no_magnitude_table():
    n, pairs = 100_000, 100
    rng = np.random.default_rng(11)
    theta1, phi1, theta2, phi2 = _with_edges(*_random_pairs(rng, pairs))
    tracemalloc.start()
    try:
        _, _, leak1, leak2 = batch_success_probabilities(
            n, PovmParams(1.0, 1.0), theta1, phi1, theta2, phi2
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(leak1)) < _LEAK_TOL
    assert np.max(np.abs(leak2)) < _LEAK_TOL
    # one (rows, n+1) float table would take 80 MB; the ratio tables are O(n)
    table_bytes = len(theta1) * (n + 1) * 8
    assert peak < table_bytes / 8


@pytest.mark.parametrize("n", [WALK_N_MAX + 1, 2**62, 10**30])
def test_walk_cap_refuses_before_allocating(n):
    # at WALK_N_MAX + 1 the walk's ratio tables alone would take 320 MB
    params = PovmParams(0.5, 0.5)
    theta, phi = np.full(4, 1.0), np.full(4, 0.5)
    calls = [
        lambda: batch_success_probabilities(n, params, theta, phi, theta, phi),
        lambda: projected_overlap_batch(n, theta, phi, theta, phi),
        lambda: mc_average_success(n, params, 0.5, 10**6, 1),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="capped"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def test_leak_check_sees_a_dropped_cross_term(monkeypatch):
    # without the coherence between |e_k>|0> and |e_{k-1}>|1> the projection
    # is wrong, and both the batch leaks and the Monte Carlo report show it
    real_sums = uqd.povm._tail_split_sums

    def no_cross(n, big, small, small_sq, scratch=None):
        stay, move, cross = real_sums(n, big, small, small_sq, scratch)
        return stay, move, np.zeros_like(cross)

    monkeypatch.setattr(uqd.povm, "_tail_split_sums", no_cross)
    rng = np.random.default_rng(5)
    _, _, leak1, leak2 = batch_success_probabilities(
        3, PovmParams(1.0, 1.0), *_random_pairs(rng, 50)
    )
    assert np.max(leak1) > 1e-2 and np.max(leak2) > 1e-2
    report = mc_average_success(3, PovmParams(0.5, 0.5), 0.5, 2000, 1)
    assert report.error_events > 1000
    assert report.max_leak > 1e-2


def test_empty_batch():
    for out in batch_success_probabilities(3, PovmParams(0.5, 0.5), [], [], [], []):
        assert out.shape == (0,)
    assert projected_overlap_batch(3, [], [], [], []).shape == (0,)


@pytest.mark.parametrize("n", [3, 100])
def test_angles_outside_zero_pi(n):
    # theta beyond [0, pi] is the same qubit with phi shifted by pi; both
    # routes must agree with the matching in-range angles
    theta_b = np.array([-0.5, 3.5, 4.0, 2 * math.pi, 5.0, 0.7])
    phi_b = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    theta_t = np.array([1.0, 2.0, -1.0, 0.5, 7.0, 4.5])
    phi_t = np.array([1.0, 0.0, 2.0, 3.0, 1.0, 2.0])
    folded = [
        (np.abs(np.arccos(np.cos(t))), np.where(np.sin(t / 2) * np.cos(t / 2) < 0, p + math.pi, p))
        for t, p in ((theta_b, phi_b), (theta_t, phi_t))
    ]
    (tb, pb), (tt, pt) = folded
    projected = projected_overlap_batch(n, theta_b, phi_b, theta_t, phi_t)
    assert np.max(np.abs(projected - projected_overlap_batch(n, tb, pb, tt, pt))) < 1e-13
    closed = symmetric_overlap_batch(n, theta_t, phi_t, theta_b, phi_b)
    assert np.max(np.abs(projected - closed)) < 1e-13
    _, _, leak1, leak2 = batch_success_probabilities(
        n, PovmParams(1.0, 1.0), theta_b, phi_b, theta_t, phi_t
    )
    assert np.max(np.abs(leak1)) < 1e-13 and np.max(np.abs(leak2)) < 1e-13
    with pytest.raises(ValueError):
        batch_success_probabilities(n, PovmParams(1.0, 1.0), [math.nan], [0.0], [1.0], [0.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_batch_routes_reject_non_finite_phi(bad):
    # a non-finite phi would give NaN probabilities, not an error
    params = PovmParams(0.5, 0.5)
    thetas, good = [0.4, 1.1], [0.2, 0.3]
    for phis in ([0.2, bad], [bad, 0.3]):
        for args in ((thetas, phis, thetas, good), (thetas, good, thetas, phis)):
            with pytest.raises(ValueError, match="phi must be finite"):
                symmetric_overlap_batch(3, *args)
            with pytest.raises(ValueError, match="phi must be finite"):
                projected_overlap_batch(3, *args)
            with pytest.raises(ValueError, match="phi must be finite"):
                batch_success_probabilities(3, params, *args)


def test_overlap_batch_shapes():
    out = symmetric_overlap_batch(
        2, [0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [1.0, 1.1, 1.2], [0.5, 0.5, 0.5]
    )
    assert out.shape == (3,)
    assert np.all((0.0 <= out) & (out <= 1.0 + 1e-12))
