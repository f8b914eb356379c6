"""Brute-force tensor-product oracle versus the reduced-basis engine."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqd.fullspace
import uqd.povm
import uqd.symmetric
from uqd.fullspace import (
    FULL_N_MAX,
    CheckResult,
    apply_symmetric_projector,
    embed_reduced,
    even_positions,
    full_dim,
    odd_positions,
    reduced_basis_matrix,
    run_verification,
    swap_positions,
    symmetric_projector_full,
    tail_position,
    tensor_input,
    tensor_inputs,
)
from uqd.povm import PovmParams
from uqd.symmetric import BlochQubit, build_input_state, reduced_dim


def test_dimensions_and_positions():
    assert full_dim(2) == 32
    assert odd_positions(3) == (1, 3, 5)
    assert even_positions(3) == (2, 4, 6)
    assert tail_position(3) == 7


def test_tensor_input_basis_state():
    # |0>|1>|1> sits at big-endian index 3
    state = tensor_input(BlochQubit(0.0, 0.0), BlochQubit(math.pi, 0.0), 1, 2)
    expected = np.zeros(8)
    expected[3] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_tensor_input_norm_and_overlap():
    psi1 = BlochQubit(0.7, 1.2)
    psi2 = BlochQubit(2.1, 5.3)
    s1 = tensor_input(psi1, psi2, 3, 1)
    s2 = tensor_input(psi1, psi2, 3, 2)
    assert abs(np.linalg.norm(s1.amplitudes) - 1.0) < 1e-12
    # program parts coincide, so the overlap is the single-qubit tail overlap
    qubit_overlap = np.vdot(psi1.amplitudes(), psi2.amplitudes())
    assert abs(np.vdot(s1.amplitudes, s2.amplitudes) - qubit_overlap) < 1e-12


def test_tensor_input_respects_cap():
    q = BlochQubit(0.3, 0.3)
    with pytest.raises(ValueError):
        tensor_input(q, q, FULL_N_MAX + 1, 1)


def test_tensor_inputs_rows_match_kron_chain():
    angles = np.random.default_rng(7).uniform(0, [math.pi, 2 * math.pi], (8, 2))
    qubits = [BlochQubit(theta, phi) for theta, phi in angles]
    firsts, seconds = qubits[:4], qubits[4:]
    n = 2
    for which in (1, 2):
        rows = tensor_inputs(firsts, seconds, n, which)
        assert rows.shape == (4, full_dim(n))
        for row, psi1, psi2 in zip(rows, firsts, seconds):
            tail = psi1 if which == 1 else psi2
            vec = np.ones(1)
            for qubit in [psi1, psi2] * n + [tail]:
                vec = np.kron(vec, qubit.amplitudes())
            np.testing.assert_allclose(row, vec, atol=1e-15)


def test_full_projector_rank_and_fixed_points():
    n = 1
    group = even_positions(n) + (tail_position(n),)
    p = symmetric_projector_full(n, group)
    assert abs(np.trace(p).real - 6) < 1e-12  # (n+2) 2^n at n = 1

    q = BlochQubit(1.0, 0.7)
    state = tensor_input(q, q, n, 2).amplitudes
    np.testing.assert_allclose(p @ state, state, atol=1e-12)

    singlet = np.zeros(8, dtype=complex)
    # positions 2 and 3 are the projected group; antisymmetrize them
    singlet[0b010] = 1 / math.sqrt(2)
    singlet[0b001] = -1 / math.sqrt(2)
    assert np.max(np.abs(p @ singlet)) < 1e-12


def test_full_projector_position_validation():
    with pytest.raises(ValueError):
        symmetric_projector_full(2, (1, 2))
    with pytest.raises(ValueError):
        symmetric_projector_full(2, (1, 1, 2))
    with pytest.raises(ValueError):
        symmetric_projector_full(2, (4, 5, 6))


def _bit_weight(position, n):
    # position 1 is the most significant bit of the flat index
    return 1 << (2 * n + 1 - position)


def _loop_projector_full(n, positions):
    # reference by enumeration: for each inside excitation count k and each
    # setting of the outside bits, add 1/C(n+1, k) on the block of indices
    inside = tuple(sorted(positions))
    outside = [p for p in range(1, 2 * n + 2) if p not in inside]
    dim = full_dim(n)
    projector = np.zeros((dim, dim))
    inside_weights = [_bit_weight(p, n) for p in inside]
    outside_weights = [_bit_weight(p, n) for p in outside]
    for k in range(n + 2):
        combos = list(itertools.combinations(inside_weights, k))
        share = 1.0 / len(combos)
        offsets = np.array([sum(c) for c in combos], dtype=int)
        for rest in itertools.product((0, 1), repeat=len(outside_weights)):
            base = sum(w for w, bit in zip(outside_weights, rest) if bit)
            idx = offsets + base
            projector[np.ix_(idx, idx)] += share
    return projector


def _loop_reduced_basis(n):
    # reference by enumeration of each column's odd and even bit choices
    odd_w = [_bit_weight(p, n) for p in odd_positions(n)]
    even_w = [_bit_weight(p, n) for p in even_positions(n)]
    tail_w = _bit_weight(tail_position(n), n)
    matrix = np.zeros((full_dim(n), reduced_dim(n)))
    column = 0
    for l in range(n + 1):
        odd_combos = list(itertools.combinations(odd_w, l))
        for m in range(n + 1):
            even_combos = list(itertools.combinations(even_w, m))
            amp = 1.0 / math.sqrt(math.comb(n, l) * math.comb(n, m))
            for t in (0, 1):
                base = tail_w if t else 0
                for oc in odd_combos:
                    for ec in even_combos:
                        matrix[sum(oc) + sum(ec) + base, column] = amp
                column += 1
    return matrix


@pytest.mark.parametrize("n", range(1, FULL_N_MAX + 1))
def test_dense_builders_equal_loop_references(n):
    tail = (tail_position(n),)
    for positions in (even_positions(n) + tail, odd_positions(n) + tail):
        dense = symmetric_projector_full(n, positions)
        assert dense.dtype == np.float64
        assert np.array_equal(dense, _loop_projector_full(n, positions))
    embedding = reduced_basis_matrix(n)
    assert embedding.dtype == np.float64
    assert np.array_equal(embedding, _loop_reduced_basis(n))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dense_projector_equals_loop_reference_on_any_group(data):
    n = data.draw(st.integers(min_value=1, max_value=FULL_N_MAX), label="n")
    positions = data.draw(
        st.permutations(range(1, 2 * n + 2)).map(lambda p: tuple(p[: n + 1])),
        label="positions",
    )
    dense = symmetric_projector_full(n, positions)
    assert dense.dtype == np.float64
    assert np.array_equal(dense, _loop_projector_full(n, positions))


def _assert_apply_matches_dense(n, positions, rng):
    shape = (3, 2, full_dim(n))
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    applied = apply_symmetric_projector(n, positions, states)
    assert applied.shape == shape
    dense = symmetric_projector_full(n, positions)
    assert np.max(np.abs(applied - states @ dense.T)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_matches_dense_projector_on_production_groups(n):
    rng = np.random.default_rng(n)
    tail = (tail_position(n),)
    for positions in (even_positions(n) + tail, odd_positions(n) + tail):
        _assert_apply_matches_dense(n, positions, rng)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_apply_matches_dense_projector_on_any_group(data):
    n = data.draw(st.integers(min_value=1, max_value=4), label="n")
    positions = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=2 * n + 1),
            min_size=n + 1,
            max_size=n + 1,
            unique=True,
        ).map(tuple),
        label="positions",
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    _assert_apply_matches_dense(n, positions, rng)
    _assert_apply_equals_moveaxis(n, positions, rng)


def _moveaxis_apply(n, positions, states):
    # reference by axis moves: the projected qubit axes go to the front of
    # a (batch, 2, ..., 2) view, which is copied into a C-ordered matrix,
    # multiplied by D^T D and moved back.  For interleaved groups, such as
    # the production ones, reshape makes that copy itself; for a run of
    # trailing positions it returns a strided view, which BLAS may round
    # differently in the last bit, so the copy is explicit.
    inside = tuple(sorted(positions))
    tensor = states.reshape((-1,) + (2,) * (2 * n + 1))
    front = tuple(range(1, n + 2))
    moved = np.moveaxis(tensor, inside, front)
    popcount = np.array([bin(b).count("1") for b in range(2 ** (n + 1))])
    counts = np.arange(n + 2)
    scale = np.array([math.comb(n + 1, k) for k in range(n + 2)], dtype=float)
    dicke = (popcount[None, :] == counts[:, None]) / np.sqrt(scale)[:, None]
    flat = np.ascontiguousarray(moved.reshape(len(tensor), 2 ** (n + 1), 2**n))
    projected = (dicke.T @ (dicke @ flat)).reshape(moved.shape)
    return np.moveaxis(projected, front, inside).reshape(states.shape)


def _assert_apply_equals_moveaxis(n, positions, rng):
    # the same numbers in the same order, so equal to the last bit
    shape = (4, full_dim(n))
    real = rng.normal(size=shape)
    for states in (real, real + 1j * rng.normal(size=shape)):
        applied = apply_symmetric_projector(n, positions, states)
        assert applied.dtype == states.dtype
        assert np.array_equal(applied, _moveaxis_apply(n, positions, states))


@pytest.mark.parametrize("n", range(1, FULL_N_MAX + 1))
def test_apply_equals_moveaxis_formulation_on_production_groups(n):
    rng = np.random.default_rng(100 + n)
    tail = (tail_position(n),)
    for positions in (even_positions(n) + tail, odd_positions(n) + tail):
        _assert_apply_equals_moveaxis(n, positions, rng)


@pytest.mark.parametrize("n", range(2, FULL_N_MAX + 1))
def test_gather_order_is_not_its_own_inverse(n):
    # an apply that gathered back by `order` instead of its inverse would
    # pass the equality tests if `order` were an involution
    tail = (tail_position(n),)
    identity = np.arange(full_dim(n))
    for positions in (even_positions(n) + tail, odd_positions(n) + tail):
        order = uqd.fullspace._front_order(n, positions)
        assert np.array_equal(np.sort(order), identity)
        assert not np.array_equal(order[order], identity)


def test_apply_keeps_leading_shape_and_real_dtype():
    n = 2
    positions = even_positions(n) + (tail_position(n),)
    rng = np.random.default_rng(5)
    for lead in ((), (0,), (2, 3)):
        states = rng.normal(size=lead + (full_dim(n),))
        applied = apply_symmetric_projector(n, positions, states)
        assert applied.shape == states.shape
        assert applied.dtype == np.float64
        rows = states.reshape(-1, full_dim(n))
        assert np.array_equal(
            applied.reshape(rows.shape), _moveaxis_apply(n, positions, rows)
        )


def test_apply_validation():
    states = np.zeros((2, full_dim(2)))
    for positions in ((1, 2), (1, 1, 2), (4, 5, 6)):
        with pytest.raises(ValueError):
            apply_symmetric_projector(2, positions, states)
    with pytest.raises(ValueError):
        apply_symmetric_projector(2, (1, 3, 5), np.zeros(full_dim(1)))
    too_big = FULL_N_MAX + 1
    with pytest.raises(ValueError):
        apply_symmetric_projector(too_big, tuple(range(1, too_big + 2)), states)


def test_reduced_embedding_is_isometric():
    for n in (1, 2):
        v = reduced_basis_matrix(n)
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(reduced_dim(n)))) < 1e-12


def test_embedding_matches_tensor_route():
    psi1 = BlochQubit(0.9, 0.2)
    psi2 = BlochQubit(1.7, 3.9)
    for which in (1, 2):
        reduced = build_input_state(psi1, psi2, 2, which)
        lifted = embed_reduced(reduced)
        direct = tensor_input(psi1, psi2, 2, which)
        assert np.max(np.abs(lifted.amplitudes - direct.amplitudes)) < 1e-12


def test_swap_positions_involution():
    state = tensor_input(BlochQubit(0.4, 0.0), BlochQubit(2.8, 1.0), 2, 1)
    back = swap_positions(swap_positions(state, 1, 4), 1, 4)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-15)
    with pytest.raises(ValueError):
        swap_positions(state, 0, 3)


def test_program_copies_are_exchangeable():
    # transpositions among odd positions fix the first register state
    state = tensor_input(BlochQubit(0.8, 0.1), BlochQubit(2.0, 4.4), 2, 1)
    for first, second in ((1, 3), (3, 5), (1, 5)):
        swapped = swap_positions(state, first, second)
        assert np.max(np.abs(swapped.amplitudes - state.amplitudes)) < 1e-12


def test_verification_suite_passes_through_n3():
    results = run_verification(3)
    assert len(results) == 33
    failures = [r for r in results if not r.passed]
    assert failures == [], [f"{r.name}: {r.detail}" for r in failures]


def test_verification_suite_passes_at_full_n_max():
    results = run_verification(FULL_N_MAX)
    assert len(results) == 11 * FULL_N_MAX
    assert all(r.passed == (r.deviation < r.tol) for r in results)
    failures = [r for r in results if not r.passed]
    assert failures == [], [f"{r.name}: {r.detail}" for r in failures]


def test_check_result_passes_strictly_below_tol():
    cases = (
        (0.0, 1e-12, True),
        (5e-11, 1e-10, True),
        (1e-10, 1e-10, False),
        (math.inf, 1e-12, False),
    )
    for deviation, tol, passed in cases:
        result = CheckResult("check", np.float64(deviation), tol)
        assert type(result.deviation) is float and type(result.tol) is float
        assert result.passed is passed
        assert result.detail == f"max deviation {deviation:.3e} (tol {tol:g})"
    pinned = CheckResult("check", 1.5e-16, 1e-12).detail
    assert pinned == "max deviation 1.500e-16 (tol 1e-12)"


def _failed_names(results):
    return [r.name for r in results if not r.passed]


def test_oracle_catches_perturbed_closed_form(monkeypatch):
    original = uqd.fullspace.closed_form_expectations
    monkeypatch.setattr(
        uqd.fullspace,
        "closed_form_expectations",
        lambda *args: original(*args) + 1e-6,
    )
    assert _failed_names(run_verification(2)) == [
        f"n={n} overlap full/reduced/closed agree" for n in (1, 2)
    ]


def test_oracle_catches_perturbed_success_probabilities(monkeypatch):
    original = uqd.fullspace.success_probabilities
    monkeypatch.setattr(
        uqd.fullspace,
        "success_probabilities",
        lambda *args: original(*args) + 1e-6,
    )
    assert _failed_names(run_verification(2)) == [
        f"n={n} success probabilities full vs reduced" for n in (1, 2)
    ]


def test_oracle_catches_conjugated_tail(monkeypatch):
    original = uqd.fullspace.build_input_states

    def conjugated_tail(psi1s, psi2s, n, which):
        # (c, s e^{i phi}) -> (c, s e^{-i phi}) on the tail qubit only
        states = original(psi1s, psi2s, n, which).reshape(len(psi1s), -1, 2)
        phis = np.array([q.phi for q in (psi1s if which == 1 else psi2s)])
        states[:, :, 1] *= np.exp(-2j * phis)[:, None]
        return states.reshape(len(psi1s), -1)

    monkeypatch.setattr(uqd.fullspace, "build_input_states", conjugated_tail)
    assert _failed_names(run_verification(2)) == [
        f"n={n} {check}"
        for n in (1, 2)
        for check in (
            "input embedding matches",
            "overlap full/reduced/closed agree",
            "success probabilities full vs reduced",
        )
    ]


def test_oracle_catches_swapped_sector_scales(monkeypatch):
    original = uqd.fullspace.sector_blocks
    monkeypatch.setattr(
        uqd.fullspace,
        "sector_blocks",
        lambda n, params: original(n, PovmParams(params.c2, params.c1)),
    )
    assert _failed_names(run_verification(2)) == [
        f"n={n} block structure and eigenvalue pairing" for n in (1, 2)
    ]


def test_verification_builds_no_dense_operator(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense full-space projector built")

    monkeypatch.setattr(uqd.fullspace, "symmetric_projector_full", refuse)
    results = run_verification(3)
    assert len(results) == 33
    assert _failed_names(results) == []


def test_verification_makes_no_per_pair_reduced_calls(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-pair reduced-side call")

    monkeypatch.setattr(uqd.symmetric, "build_input_state", refuse)
    monkeypatch.setattr(uqd.povm, "closed_form_expectation", refuse)
    monkeypatch.setattr(uqd.povm, "success_probability", refuse)
    for name in ("build_input_state", "closed_form_expectation", "success_probability"):
        assert not hasattr(uqd.fullspace, name)
    results = run_verification(3)
    assert len(results) == 33
    assert _failed_names(results) == []


def test_verification_rejects_large_n():
    with pytest.raises(ValueError):
        run_verification(FULL_N_MAX + 1)
