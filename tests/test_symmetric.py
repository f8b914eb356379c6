"""Combinatorics, Dicke amplitudes, reduced indexing, and projectors."""

import functools
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqd.symmetric import (
    Block,
    BlochQubit,
    ReducedIndex,
    ReducedOperator,
    ReducedState,
    binomial,
    build_input_state,
    build_input_states,
    build_symmetric_projector,
    dicke_amplitudes,
    dicke_amplitudes_batch,
    dicke_magnitudes_batch,
    pair_projector,
    reduced_dim,
    tail_split_vectors,
)

thetas = st.floats(min_value=0.0, max_value=math.pi)
phis = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)


def _pascal(rows):
    table = [[1]]
    for _ in range(rows):
        prev = table[-1]
        table.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return table


def test_binomial_against_pascal_triangle():
    table = _pascal(30)
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == table[n][k]


def test_binomial_known_values():
    assert binomial(4, 2) == 6
    assert binomial(6, 3) == 20
    for n in range(10):
        assert binomial(n, 0) == 1


def test_binomial_rejects_out_of_range():
    with pytest.raises(ValueError):
        binomial(3, 4)
    with pytest.raises(ValueError):
        binomial(3, -1)
    with pytest.raises(ValueError):
        binomial(-2, 0)


def test_bloch_qubit_validation():
    with pytest.raises(ValueError):
        BlochQubit(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochQubit(math.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        BlochQubit(float("nan"), 0.0)


def test_bloch_qubit_phi_wraps():
    q = BlochQubit(1.0, 2 * math.pi + 0.5)
    assert 0.0 <= q.phi < 2 * math.pi
    assert abs(q.phi - 0.5) < 1e-12


@given(thetas, st.floats(min_value=-20.0, max_value=20.0))
def test_bloch_amplitudes_unit_norm(theta, phi):
    amps = BlochQubit(theta, phi).amplitudes()
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_reduced_dim_values():
    assert reduced_dim(1) == 8
    assert reduced_dim(3) == 32
    for bad in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            reduced_dim(bad)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_reduced_index_round_trip(n, data):
    flat = data.draw(st.integers(min_value=0, max_value=reduced_dim(n) - 1))
    idx = ReducedIndex.from_flat(flat, n)
    assert 0 <= idx.l <= n and 0 <= idx.m <= n and idx.t in (0, 1)
    assert idx.to_flat(n) == flat


def test_reduced_index_ordering_is_documented_one():
    # (l, m, t) -> l*2(n+1) + 2m + t
    assert ReducedIndex(0, 1, 0).to_flat(1) == 2
    assert ReducedIndex(1, 0, 1).to_flat(2) == 7
    with pytest.raises(ValueError):
        ReducedIndex(0, 3, 0).to_flat(2)
    with pytest.raises(ValueError):
        ReducedIndex.from_flat(8, 1)


def test_dicke_amplitudes_pole_states():
    np.testing.assert_allclose(
        dicke_amplitudes(BlochQubit(0.0, 0.0), 3), [1, 0, 0, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        dicke_amplitudes(BlochQubit(math.pi, 0.0), 2), [0, 0, 1], atol=1e-15
    )


def test_dicke_amplitudes_equator():
    # (|0>+|1>)^x2 / 2 collected into excitation sectors by hand
    np.testing.assert_allclose(
        dicke_amplitudes(BlochQubit(math.pi / 2, 0.0), 2),
        [0.5, 1 / math.sqrt(2), 0.5],
        atol=1e-15,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5000), thetas, phis)
@example(5000, math.pi / 2, 0.0)
@example(5000, 1.0, 2.0)
def test_dicke_amplitudes_unit_norm(n, theta, phi):
    amps = dicke_amplitudes(BlochQubit(theta, phi), n)
    assert amps.shape == (n + 1,)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-14


def _dicke_vector(n, k):
    v = np.zeros(2**n)
    for bits in itertools.combinations(range(n), k):
        v[sum(1 << (n - 1 - b) for b in bits)] = 1.0
    return v / np.linalg.norm(v)


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=5), thetas, phis)
def test_dicke_amplitudes_match_tensor_power(n, theta, phi):
    q = BlochQubit(theta, phi)
    power = np.ones(1, dtype=complex)
    for _ in range(n):
        power = np.kron(power, q.amplitudes())
    expected = [np.vdot(_dicke_vector(n, k), power) for k in range(n + 1)]
    np.testing.assert_allclose(dicke_amplitudes(q, n), expected, atol=1e-12)


_PRECISION = 45  # decimal digits of the exact reference


@functools.cache
def _root_binomials(n):
    """sqrt(C(n, k)) for k = 0..n as Decimals.  The exact integer row comes
    from C(n, k) = C(n, k-1) (n-k+1) / k, which is quicker than one
    `math.comb` per k at n = 5000; its middle entry is checked against it."""
    row = [1]
    for k in range(1, n + 1):
        row.append(row[-1] * (n - k + 1) // k)
    assert row[n // 2] == math.comb(n, n // 2)
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        return [ctx.create_decimal(c).sqrt() for c in row]


def _exact_magnitudes(n, theta):
    """The Dicke row of theta in decimal arithmetic.  The float pair
    (cos(theta/2), sin(theta/2)) is normalised to unit norm first: its
    squares do not sum to 1 exactly, and over n copies that alone would
    shift the row by about n * 1e-16."""
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        c, s = Decimal(math.cos(theta / 2)), Decimal(math.sin(theta / 2))
        norm = (c * c + s * s).sqrt()
        c, s = c / norm, s / norm
        one = Decimal(1)
        return np.array([
            float(root * (c ** (n - k) if k < n else one) * (s**k if k else one))
            for k, root in enumerate(_root_binomials(n))
        ])


@pytest.mark.parametrize("n", [1, 60, 61, 500, 5000])
def test_dicke_magnitudes_match_exact_reference(n):
    rng = np.random.default_rng(60 + n)
    angles = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(0, math.pi, 4)])
    rows = dicke_magnitudes_batch(n, angles)
    assert rows.shape == (len(angles), n + 1)
    for row, theta in zip(rows, angles):
        assert np.max(np.abs(row - _exact_magnitudes(n, theta))) < 1e-15
    assert np.max(np.abs(np.sum(rows * rows, axis=1) - 1.0)) < 1e-14


def test_dicke_rows_reject_non_finite_angles():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            dicke_magnitudes_batch(5, [0.3, bad])
        with pytest.raises(ValueError, match="theta must be finite"):
            dicke_amplitudes_batch(70, [bad], [0.0])
        with pytest.raises(ValueError, match="phi must be finite"):
            dicke_amplitudes_batch(5, [0.3, 1.2], [0.1, bad])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_bloch_qubit_rejects_non_finite_phi(bad):
    # phi % 2 pi would store nan for an infinite phi
    with pytest.raises(ValueError, match="phi must be finite"):
        BlochQubit(0.3, bad)


def test_reduced_state_shape_and_immutability():
    state = build_input_state(BlochQubit(0.4, 0.1), BlochQubit(2.0, 5.0), 2, 1)
    assert abs(state.norm() - 1.0) < 1e-10
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0
    with pytest.raises(ValueError):
        ReducedState(2, np.zeros(5))


def test_reduced_operator_requires_hermitian():
    dim = reduced_dim(1)
    mat = np.eye(dim, dtype=complex)
    mat[0, 1] = 1e-6
    with pytest.raises(ValueError):
        ReducedOperator(1, mat)
    with pytest.raises(ValueError, match="not symmetric"):
        ReducedOperator(1, mat.real)
    with pytest.raises(ValueError):
        ReducedOperator(1, np.eye(3))


def test_reduced_operator_stores_real_entries():
    dim = reduced_dim(1)
    op = ReducedOperator(1, np.eye(dim, dtype=np.float32).tolist())
    assert op.entries.dtype == np.float64
    assert np.array_equal(op.entries, np.eye(dim))
    # a Hermitian but complex operator is not one of the measurement's
    mat = np.eye(dim, dtype=complex)
    mat[0, 1], mat[1, 0] = 0.5j, -0.5j
    tiny = np.eye(dim, dtype=complex)
    tiny[2, 2] += 1e-300j
    for bad in (mat, tiny.tolist(), np.eye(dim, dtype=complex)):
        with pytest.raises(ValueError, match="must be real"):
            ReducedOperator(1, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reduced_operator_rejects_non_finite_entries(bad):
    dim = reduced_dim(1)
    diagonal = np.eye(dim)
    diagonal[0, 0] = bad
    off_diagonal = np.eye(dim)
    off_diagonal[0, 1] = off_diagonal[1, 0] = bad
    for mat in (diagonal, off_diagonal):
        with pytest.raises(ValueError, match="must be finite"):
            ReducedOperator(1, mat)


def test_tail_split_vectors_orthonormal_rows():
    for n in range(1, 7):
        vs = tail_split_vectors(n)
        assert vs.shape == (n + 2, 2 * (n + 1))
        np.testing.assert_allclose(vs @ vs.T, np.eye(n + 2), atol=1e-14)


def test_tail_split_vectors_weights():
    vs = tail_split_vectors(3)
    for k in range(5):
        if k <= 3:
            assert abs(vs[k, 2 * k] - math.sqrt((4 - k) / 4)) < 1e-15
        if k >= 1:
            assert abs(vs[k, 2 * (k - 1) + 1] - math.sqrt(k / 4)) < 1e-15


def test_pair_projector_is_projector():
    for n in range(1, 6):
        p = pair_projector(n)
        np.testing.assert_allclose(p, p.T, atol=1e-14)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p) - (n + 2)) < 1e-12


@pytest.mark.parametrize("block", [Block.EVEN_TAIL, Block.ODD_TAIL])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_projector_idempotent_with_expected_rank(n, block):
    p = build_symmetric_projector(n, block).entries
    assert p.dtype == np.float64
    np.testing.assert_allclose(p @ p, p, atol=1e-10)
    assert abs(np.trace(p) - (n + 1) * (n + 2)) < 1e-9


def _label_swap(n):
    dim = reduced_dim(n)
    s = np.zeros((dim, dim))
    for flat in range(dim):
        idx = ReducedIndex.from_flat(flat, n)
        s[ReducedIndex(idx.m, idx.l, idx.t).to_flat(n), flat] = 1.0
    return s


def test_projectors_related_by_block_relabeling():
    # swapping the two Dicke labels maps the even-tail projector to the
    # odd-tail one, since both blocks see the same pair geometry
    for n in (1, 2, 3):
        s = _label_swap(n)
        even = build_symmetric_projector(n, Block.EVEN_TAIL).entries
        odd = build_symmetric_projector(n, Block.ODD_TAIL).entries
        np.testing.assert_allclose(odd, s @ even @ s.T, atol=1e-13)


def test_input_state_which_irrelevant_for_equal_qubits():
    q = BlochQubit(1.1, 4.0)
    s1 = build_input_state(q, q, 3, 1)
    s2 = build_input_state(q, q, 3, 2)
    np.testing.assert_allclose(s1.amplitudes, s2.amplitudes, atol=1e-15)


def test_input_state_basis_case():
    state = build_input_state(BlochQubit(0.0, 0.0), BlochQubit(math.pi, 0.0), 1, 1)
    expected = np.zeros(8)
    expected[ReducedIndex(0, 1, 0).to_flat(1)] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_input_state_rejects_bad_which():
    q = BlochQubit(0.5, 0.5)
    with pytest.raises(ValueError):
        build_input_state(q, q, 2, 3)


def _edge_and_random_pairs():
    rng = np.random.default_rng(31)
    angles = rng.uniform(0, [math.pi, 2 * math.pi], (6, 2))
    q = BlochQubit(1.1, 4.0)
    pairs = [
        (BlochQubit(0.0, 0.0), BlochQubit(math.pi, 0.0)),
        (BlochQubit(math.pi, 1.0), BlochQubit(0.3, 2.0)),
        (BlochQubit(0.0, 5.0), BlochQubit(0.0, 5.0)),
        (q, q),
        (q, BlochQubit(math.pi - q.theta, q.phi + math.pi)),
    ]
    pairs += [(BlochQubit(*a), BlochQubit(*b)) for a, b in zip(angles[:3], angles[3:])]
    return [p for p, _ in pairs], [p for _, p in pairs]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 60, 61, 100])
@pytest.mark.parametrize("which", [1, 2])
def test_input_states_match_kron_chain(n, which):
    firsts, seconds = _edge_and_random_pairs()
    rows = build_input_states(firsts, seconds, n, which)
    assert rows.shape == (len(firsts), reduced_dim(n))
    for row, psi1, psi2 in zip(rows, firsts, seconds):
        odd = dicke_amplitudes(psi1, n)
        even = dicke_amplitudes(psi2, n)
        tail = (psi1 if which == 1 else psi2).amplitudes()
        expected = np.kron(odd, np.kron(even, tail))
        assert np.max(np.abs(row - expected)) <= 1e-15


def test_input_states_validation_and_empty_batch():
    q = BlochQubit(0.5, 0.5)
    with pytest.raises(ValueError):
        build_input_states([q, q], [q], 2, 1)
    with pytest.raises(ValueError):
        build_input_states([q], [q], 2, 3)
    with pytest.raises(ValueError):
        build_input_states([q], [q], 0, 1)
    assert build_input_states([], [], 3, 2).shape == (0, reduced_dim(3))


@settings(max_examples=30)
@given(
    st.integers(min_value=1, max_value=6),
    thetas,
    phis,
    thetas,
    phis,
    st.sampled_from([1, 2]),
)
def test_input_state_normalized(n, t1, p1, t2, p2, which):
    state = build_input_state(BlochQubit(t1, p1), BlochQubit(t2, p2), n, which)
    assert abs(state.norm() - 1.0) < 1e-10


@settings(max_examples=20)
@given(thetas, phis, st.sampled_from([1, 2]))
def test_matching_register_inside_symmetric_subspace(theta, phi, which):
    # with psi1 = psi2 the projected group holds n+1 copies of one qubit
    q = BlochQubit(theta, phi)
    n = 2
    state = build_input_state(q, q, n, which)
    block = Block.EVEN_TAIL if which == 1 else Block.ODD_TAIL
    p = build_symmetric_projector(n, block).entries
    value = np.vdot(state.amplitudes, p @ state.amplitudes).real
    assert abs(value - 1.0) < 1e-10
