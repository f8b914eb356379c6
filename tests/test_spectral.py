"""Adapted basis, block extraction, eigenvalue pairing, and positivity."""

import json
import math
from fractions import Fraction
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uqd.spectral
from uqd.povm import PovmParams, build_povm
from uqd.spectral import (
    FEASIBLE_TOL,
    SECTOR_N_MAX,
    BlockStructureError,
    ColumnLabel,
    PrincipalCosines,
    _count_below,
    build_transform,
    closed_form_extreme_eigenvalues,
    closed_form_spectrum,
    constraint_c2,
    extract_blocks,
    least_eigenvalues,
    positivity_check,
    principal_cosines,
    sector_blocks,
    spectrum_report,
    transformed_pi0,
)
from uqd.symmetric import ReducedIndex, reduced_dim, tail_split_vectors

scales = st.floats(min_value=0.0, max_value=1.0)
generic_scales = st.floats(min_value=0.05, max_value=1.0)


def _j1_reference(n, c1, c2):
    # canonical 3x3 low-excitation block; the mirrored block flips the
    # signs of the third row and column
    root = (n + 1) ** 1.5
    return np.array(
        [
            [1 - c2 / (n + 1), math.sqrt(n) * c2 / root, -n * c2 / root],
            [
                math.sqrt(n) * c2 / root,
                1 - n * c2 / (n + 1) ** 2,
                n**1.5 * c2 / (n + 1) ** 2,
            ],
            [
                -n * c2 / root,
                n**1.5 * c2 / (n + 1) ** 2,
                1 - c1 - n**2 * c2 / (n + 1) ** 2,
            ],
        ]
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transform_is_orthogonal(n):
    v = build_transform(n).vectors
    dim = reduced_dim(n)
    assert v.shape == (dim, dim)
    np.testing.assert_allclose(v.T @ v, np.eye(dim), atol=1e-12)
    np.testing.assert_allclose(v @ v.T, np.eye(dim), atol=1e-12)


def _column_loop_transform(n):
    # reference that places one column at a time, in the documented order
    dim = reduced_dim(n)
    width = 2 * (n + 1)
    splits = tail_split_vectors(n)
    columns, labels = [], []

    def add(l, pair_coeffs, label):
        col = np.zeros(dim)
        col[l * width : (l + 1) * width] = pair_coeffs
        columns.append(col)
        labels.append(label)

    for l in range(n + 1):
        for m in range(1, n + 1):
            add(l, splits[m], ColumnLabel("eta", l, m))
    for l in range(n + 1):
        for m in range(1, n + 1):
            chi = np.zeros(width)
            chi[2 * m] = math.sqrt(m / (n + 1))
            chi[2 * (m - 1) + 1] = -math.sqrt((n + 1 - m) / (n + 1))
            add(l, chi, ColumnLabel("chi", l, m))
    for l in range(n + 1):
        add(l, splits[0], ColumnLabel("eta", l, 0))
    for l in range(n + 1):
        add(l, splits[n + 1], ColumnLabel("eta", l, n + 1))
    return np.column_stack(columns), tuple(labels)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transform_equals_column_loop(n):
    basis = build_transform(n)
    vectors, labels = _column_loop_transform(n)
    assert basis.vectors.dtype == np.float64
    assert np.array_equal(basis.vectors, vectors)
    assert basis.labels == labels
    pi0 = transformed_pi0(build_povm(n, PovmParams(0.3, 0.4)), basis).entries
    assert pi0.dtype == np.float64


def test_transform_preserves_norms():
    v = build_transform(3).vectors
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.normal(size=v.shape[0])
        assert abs(np.linalg.norm(v @ x) - np.linalg.norm(x)) < 1e-12


def test_transform_n1_rotation_weights():
    # the single rotated pair at n = 1 mixes with weight sqrt(1/2) everywhere
    basis = build_transform(1)
    for i, label in enumerate(basis.labels):
        if label.m == 1 and label.kind in ("eta", "chi"):
            nonzero = np.abs(basis.vectors[:, i])
            nonzero = nonzero[nonzero > 1e-14]
            np.testing.assert_allclose(nonzero, math.sqrt(0.5), atol=1e-14)


def test_transformed_identity_when_unmeasured():
    triple = build_povm(2, PovmParams(0.0, 0.0))
    basis = build_transform(2)
    out = transformed_pi0(triple, basis).entries
    np.testing.assert_allclose(out, np.eye(reduced_dim(2)), atol=1e-12)


def test_transformed_rejects_mismatched_n():
    with pytest.raises(ValueError):
        transformed_pi0(build_povm(2, PovmParams(0.3, 0.3)), build_transform(3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_layout(n):
    params = PovmParams(0.3, 0.4)
    basis = build_transform(n)
    blocks = extract_blocks(transformed_pi0(build_povm(n, params), basis), basis)
    assert sorted(b.size for b in blocks) == sorted(
        [2 * l + 1 for l in range(n + 1)] * 2
    )
    assert {(b.label, b.l) for b in blocks} == {
        (s, l) for s in "JK" for l in range(n + 1)
    }
    for block in blocks:
        sectors = {m.l + m.m for m in block.members}
        assert len(sectors) == 1
        eigs = np.sort(block.eigenvalues)
        assert abs(eigs[-1] - 1.0) < 1e-9
        if block.l >= 1:
            corner = block.matrix[0, 2]
            assert corner < 0 if block.label == "J" else corner > 0


def test_block_count_and_dimension():
    basis = build_transform(4)
    blocks = extract_blocks(
        transformed_pi0(build_povm(4, PovmParams(0.25, 0.65)), basis), basis
    )
    assert len(blocks) == 10
    basis3 = build_transform(3)
    blocks3 = extract_blocks(
        transformed_pi0(build_povm(3, PovmParams(0.25, 0.65)), basis3), basis3
    )
    assert sum(b.size for b in blocks3) == 32


@pytest.mark.parametrize("n", [1, 2, 3])
def test_low_excitation_blocks_match_reference(n):
    c1, c2 = 0.3, 0.4
    basis = build_transform(n)
    blocks = extract_blocks(transformed_pi0(build_povm(n, PovmParams(c1, c2)), basis), basis)
    by = {(b.label, b.l): b for b in blocks}
    ref = _j1_reference(n, c1, c2)
    np.testing.assert_allclose(by[("J", 1)].matrix, ref, atol=1e-12)
    flip = np.diag([1.0, 1.0, -1.0])
    np.testing.assert_allclose(by[("K", 1)].matrix, flip @ ref @ flip, atol=1e-12)


def test_corner_coupling_formula():
    n, c2 = 3, 0.4
    basis = build_transform(n)
    blocks = extract_blocks(
        transformed_pi0(build_povm(n, PovmParams(0.2, c2)), basis), basis
    )
    for block in blocks:
        if block.label == "J" and block.l >= 1:
            expected = -math.sqrt(block.l * n * (n + 1 - block.l)) / (n + 1) ** 1.5 * c2
            assert abs(block.matrix[0, 2] - expected) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3), generic_scales, generic_scales)
def test_eigenvalue_pairing(n, c1, c2):
    params = PovmParams(c1, c2)
    basis = build_transform(n)
    blocks = extract_blocks(transformed_pi0(build_povm(n, params), basis), basis)
    low, high = closed_form_extreme_eigenvalues(n, params)
    pair_sum = 2.0 - c1 - c2
    for block in blocks:
        eigs = np.sort(block.eigenvalues)
        assert abs(eigs[-1] - 1.0) < 1e-9
        for i in range(block.l):
            assert abs(eigs[i] + eigs[2 * block.l - 1 - i] - pair_sum) < 1e-9
        if block.l >= 1:
            assert np.min(np.abs(eigs - low)) < 1e-9
            assert np.min(np.abs(eigs - high)) < 1e-9


def test_extreme_eigenvalues_symmetric_scales():
    # c1 = c2 = c collapses the radical to c n/(n+1)
    for n in (1, 2, 5):
        for c in (0.1, 0.5, 0.9):
            low, high = closed_form_extreme_eigenvalues(n, PovmParams(c, c))
            assert abs(low - (1 - c * (2 * n + 1) / (n + 1))) < 1e-12
            assert abs(high - (1 - c / (n + 1))) < 1e-12
    low, _ = closed_form_extreme_eigenvalues(2, PovmParams(0.6, 0.6))
    assert abs(low) < 1e-12
    assert closed_form_extreme_eigenvalues(3, PovmParams(0.0, 0.0)) == (1.0, 1.0)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=6), scales, scales)
@example(n=4, c1=0.798828125, c2=0.32035584128430045)
def test_extreme_eigenvalues_swap_symmetry(n, c1, c2):
    assert closed_form_extreme_eigenvalues(
        n, PovmParams(c1, c2)
    ) == closed_form_extreme_eigenvalues(n, PovmParams(c2, c1))


def test_positivity_grid_matches_closed_form():
    for n in range(1, 9):
        for c1 in np.linspace(0.1, 0.9, 9):
            for c2 in np.linspace(0.1, 0.9, 9):
                check = positivity_check(build_povm(n, PovmParams(c1, c2)))
                assert abs(check.numeric_min - check.closed_form_min) < 1e-9
                assert check.feasible == (check.numeric_min >= -1e-9)


def test_positivity_examples():
    saturated = positivity_check(build_povm(2, PovmParams(0.6, 0.6)))
    assert saturated.feasible and abs(saturated.numeric_min) < 1e-9
    broken = positivity_check(build_povm(2, PovmParams(0.9, 0.9)))
    assert not broken.feasible
    assert abs(broken.numeric_min - (1 - 0.9 * 5 / 3)) < 1e-9
    idle = positivity_check(build_povm(2, PovmParams(0.0, 0.0)))
    assert idle.feasible and abs(idle.numeric_min - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), scales, scales)
def test_feasibility_symmetric_under_swap(n, c1, c2):
    a = positivity_check(build_povm(n, PovmParams(c1, c2)))
    b = positivity_check(build_povm(n, PovmParams(c2, c1)))
    assert a.feasible == b.feasible


def test_constraint_curve_values():
    assert constraint_c2(1.0, 3) == pytest.approx(0.0, abs=1e-15)
    assert constraint_c2(0.0, 3) == pytest.approx(1.0, abs=1e-15)
    assert constraint_c2(0.6, 2) == pytest.approx(0.6, abs=1e-15)
    with pytest.raises(ValueError):
        constraint_c2(1.2, 2)
    with pytest.raises(ValueError):
        constraint_c2(float("nan"), 2)


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=8), scales)
def test_constraint_curve_saturates_least_eigenvalue(n, c1):
    c2 = constraint_c2(c1, n)
    assert 0.0 <= c2 <= 1.0
    low, _ = closed_form_extreme_eigenvalues(n, PovmParams(c1, c2))
    assert abs(low) < 1e-12


def test_spectrum_report_serialization():
    report = spectrum_report(2, PovmParams(0.3, 0.4))
    data = report.to_dict()
    assert set(data) == {
        "n",
        "c1",
        "c2",
        "blocks",
        "min_eigenvalue",
        "closed_form_min",
        "feasible",
    }
    assert all(
        set(b) == {"label", "l", "size", "eigenvalues"} for b in data["blocks"]
    )
    assert sum(b["size"] for b in data["blocks"]) == reduced_dim(2)
    assert json.loads(json.dumps(data)) == data


def test_spectrum_report_degenerate_c2():
    # c2 = 0 cuts every odd-block link; the sector blocks keep their sizes
    report = spectrum_report(2, PovmParams(0.3, 0.0))
    assert sorted(b.size for b in report.blocks) == [1, 1, 3, 3, 5, 5]
    assert report.feasible


def test_extract_blocks_rejects_broken_structure():
    n = 2
    basis = build_transform(n)
    good = transformed_pi0(build_povm(n, PovmParams(0.3, 0.4)), basis)
    bad = np.array(good.entries.real)
    bad[0, -1] = bad[-1, 0] = 0.05  # bridges two far-apart sectors
    with pytest.raises(BlockStructureError):
        extract_blocks(bad, basis)
    with pytest.raises(ValueError):
        extract_blocks(np.triu(np.ones_like(bad)), basis)
    # a complex array is refused even when its imaginary part is zero
    with pytest.raises(ValueError, match="real"):
        extract_blocks(good.entries.astype(complex), basis)


@pytest.mark.parametrize("c2", [0.0, 1e-12])
def test_extract_blocks_rejects_uncoupled_sectors(c2):
    # every transformed-basis coupling carries c2, so without it no sector
    # is connected and the layout cannot be confirmed from the matrix
    basis = build_transform(3)
    pi0 = transformed_pi0(build_povm(3, PovmParams(0.3, c2)), basis)
    with pytest.raises(BlockStructureError, match="do not connect"):
        extract_blocks(pi0, basis)


def _sector_indices(n, s):
    # flat indices of sector s, ordered by q = 2l + t
    members = [ReducedIndex.from_flat(f, n) for f in range(reduced_dim(n))]
    inside = [r for r in members if r.l + r.m + r.t == s]
    return [r.to_flat(n) for r in sorted(inside, key=lambda r: 2 * r.l + r.t)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), scales, scales)
@example(n=3, c1=0.0, c2=0.0)
@example(n=4, c1=1.0, c2=1.0)
@example(n=5, c1=0.0, c2=1.0)
@example(n=2, c1=0.37, c2=0.0)
def test_sector_blocks_match_dense_pi0(n, c1, c2):
    params = PovmParams(c1, c2)
    dense = build_povm(n, params).pi0.entries
    blocks = sector_blocks(n, params)
    assert len(blocks) == 2 * n + 2
    rebuilt = np.zeros((reduced_dim(n), reduced_dim(n)))
    for s, block in enumerate(blocks):
        idx = _sector_indices(n, s)
        assert block.dtype == np.float64
        assert block.shape == (len(idx), len(idx)) == (2 * min(s, 2 * n + 1 - s) + 1,) * 2
        assert np.array_equal(block, np.triu(np.tril(block, 1), -1))
        np.testing.assert_allclose(block, dense[np.ix_(idx, idx)].real, rtol=0, atol=1e-14)
        rebuilt[np.ix_(idx, idx)] = block
    # the blocks are the whole operator: nothing couples two sectors
    np.testing.assert_allclose(rebuilt, dense.real, rtol=0, atol=1e-14)
    assert np.max(np.abs(dense.imag)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("c1, c2", [(0.3, 0.4), (1.0, 1.0), (0.0, 0.7)])
def test_report_spectra_match_extracted_blocks(n, c1, c2):
    params = PovmParams(c1, c2)
    basis = build_transform(n)
    extracted = extract_blocks(transformed_pi0(build_povm(n, params), basis), basis)
    dense = {(b.label, b.l): np.sort(b.eigenvalues) for b in extracted}
    report = spectrum_report(n, params)
    assert [(b.label, b.l) for b in report.blocks] == sorted(dense)
    for block in report.blocks:
        assert block.size == 2 * block.l + 1 == len(block.eigenvalues)
        np.testing.assert_allclose(
            block.eigenvalues, dense[(block.label, block.l)], rtol=0, atol=1e-12
        )
    least = min(float(eigs[0]) for eigs in dense.values())
    assert abs(report.min_eigenvalue - least) < 1e-12


def test_spectrum_report_at_large_n():
    n, params = 100, PovmParams(0.5, 0.5)
    report = spectrum_report(n, params)
    assert sorted(b.size for b in report.blocks) == sorted(
        [2 * l + 1 for l in range(n + 1)] * 2
    )
    assert sum(len(b.eigenvalues) for b in report.blocks) == 2 * (n + 1) ** 2
    low, _ = closed_form_extreme_eigenvalues(n, params)
    assert abs(report.min_eigenvalue - low) < 1e-9
    assert report.closed_form_min == low
    assert report.feasible


def test_sector_blocks_refuse_sizes_beyond_the_cap():
    with pytest.raises(ValueError, match="capped"):
        sector_blocks(SECTOR_N_MAX + 1, PovmParams(0.5, 0.5))
    with pytest.raises(ValueError):
        sector_blocks(0, PovmParams(0.5, 0.5))


def test_spectrum_report_holds_one_block_pair_at_a_time():
    # all 2n+2 blocks take 2(n+1)(2n+1)(2n+3)/3 doubles, 10.8 MB at n = 80
    n, params = 80, PovmParams(0.5, 0.5)
    all_blocks = 2 * (n + 1) * (2 * n + 1) * (2 * n + 3) / 3 * 8
    tracemalloc.start()
    try:
        spectrum_report(n, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < all_blocks / 4


edge_scales = st.one_of(st.sampled_from([0.0, 1.0]), scales)


def _expanded(n, params):
    # every eigenvalue of the closed form, repeated by its multiplicity
    values, mult = closed_form_spectrum(n, params)
    return np.sort(np.repeat(values, mult))


def _sector_spectra(n, params):
    return [np.linalg.eigvalsh(block) for block in sector_blocks(n, params)]


scale_grids = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0]), scales), min_size=1, max_size=4
)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40), scale_grids, scale_grids)
@example(n=1, c1s=[0.0, 1.0, 0.0, 1.0], c2s=[0.0, 0.0, 1.0, 1.0])
@example(n=2, c1s=[0.6, 0.9], c2s=[0.6, 0.9])
@example(n=40, c1s=[1.0, 0.5], c2s=[1.0, 0.5])
def test_least_eigenvalues_match_spectrum_report(n, c1s, c2s):
    grid = [(a, b) for a in c1s for b in c2s]
    c1, c2 = (np.array(axis) for axis in zip(*grid))
    least, feasible = least_eigenvalues(n, c1, c2)
    assert least.shape == feasible.shape == (len(grid),)
    assert least.dtype == np.float64 and feasible.dtype == np.bool_
    for i, (a, b) in enumerate(grid):
        report = spectrum_report(n, PovmParams(a, b))
        assert abs(least[i] - report.min_eigenvalue) <= 1e-12
        assert bool(feasible[i]) == report.feasible


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.lists(
        st.tuples(edge_scales, edge_scales, st.floats(min_value=-1.5, max_value=2.5)),
        min_size=1,
        max_size=5,
    ),
)
@example(n=3, points=[(0.0, 0.0, 0.5), (0.0, 0.0, 1.5), (1.0, 1.0, -0.9), (0.4, 0.0, 0.7)])
def test_inertia_count_matches_eigvalsh(n, points):
    for a, b, sigma in points:
        count = _count_below(n, a, b, np.array([sigma]))
        assert count.dtype == np.int32
        eigs = np.concatenate(_sector_spectra(n, PovmParams(a, b)))
        if np.min(np.abs(eigs - sigma)) < 1e-9:
            continue  # a shift on an eigenvalue has no rounding-proof count
        assert count.sum() == np.count_nonzero(eigs < sigma)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    edge_scales,
    edge_scales,
    st.lists(st.floats(min_value=-1.5, max_value=2.5), min_size=1, max_size=9),
)
@example(n=3, c1=0.0, c2=0.0, shift=[0.5, 1.5])
@example(n=3, c1=1.0, c2=1.0, shift=[-0.9])
@example(n=3, c1=0.4, c2=0.0, shift=[0.7])
def test_inertia_count_per_sector_with_one_scale_pair(n, c1, c2, shift):
    shift = np.array(shift)
    counts = _count_below(n, c1, c2, shift)
    assert counts.shape == (2 * n + 2, len(shift)) and counts.dtype == np.int32
    spectra = _sector_spectra(n, PovmParams(c1, c2))
    everything = np.concatenate(spectra)
    for k, sigma in enumerate(shift):
        if np.min(np.abs(everything - sigma)) < 1e-9:
            continue  # a shift on an eigenvalue has no rounding-proof count
        assert counts[:, k].tolist() == [int(np.count_nonzero(e < sigma)) for e in spectra]
    # counting all shifts at once equals counting them one at a time
    one_by_one = [_count_below(n, c1, c2, np.array([sigma]))[:, 0] for sigma in shift]
    np.testing.assert_array_equal(counts, np.array(one_by_one).T)


def test_inertia_count_survives_a_zero_pivot():
    # a shift equal to the first diagonal entry of J_1 makes its first pivot
    # exactly zero, although the shift is no eigenvalue
    n, params = 2, PovmParams(0.3, 0.6)
    blocks = sector_blocks(n, params)
    shift = blocks[1][0, 0]
    eigs = np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
    assert np.min(np.abs(eigs - shift)) > 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count = _count_below(n, 0.3, 0.6, np.array([shift]))
    assert count.sum() == np.count_nonzero(eigs < shift)


def test_inertia_count_sees_every_member_of_the_extreme_pair():
    # lambda_n- has multiplicity 2n, spread over every block of size >= 3
    n, c1, c2 = 6, 0.7, 0.45
    low, high = closed_form_extreme_eigenvalues(n, PovmParams(c1, c2))
    shift = np.array([low - 1e-6, low + 1e-6, high - 1e-6])
    # every eigenvalue lies below the top of the pair except the unit ones
    # and the 2n copies of lambda_n+
    below = _count_below(n, c1, c2, shift).sum(axis=0)
    assert below.tolist() == [0, 2 * n, 2 * (n + 1) ** 2 - 2 * (n + 1) - 2 * n]


@pytest.mark.parametrize("n", [1, 7, 40])
def test_inertia_count_steps_all_sectors_at_once(n, monkeypatch):
    original = uqd.spectral._chain_entries
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(uqd.spectral, "_chain_entries", counted)
    least_eigenvalues(n, [0.3, 0.7, 1.0], [0.4, 0.2, 1.0])
    # the J_1/K_1 set-up takes three members of each 3x3 block one by one
    set_up = 6
    assert len(calls) <= 2 * n + 2 + set_up


def test_inertia_count_is_the_same_in_batches_of_points(monkeypatch):
    n = 5
    rng = np.random.default_rng(11)
    c1, c2 = rng.uniform(size=2)
    shift = rng.uniform(-0.5, 1.5, size=7)
    whole = _count_below(n, c1, c2, shift)
    # two shifts per batch, so the last batch is short
    monkeypatch.setattr(uqd.spectral, "_COUNT_DOUBLES", 2 * (2 * n + 2))
    np.testing.assert_array_equal(_count_below(n, c1, c2, shift), whole)


def test_inertia_count_per_sector_is_the_same_in_batches(monkeypatch):
    n, shift = 6, np.linspace(-0.5, 1.5, 11)
    whole = _count_below(n, 0.35, 0.8, shift)
    assert whole.shape == (2 * n + 2, len(shift))
    # three shifts per batch, so the last batch is short
    monkeypatch.setattr(uqd.spectral, "_COUNT_DOUBLES", 3 * (2 * n + 2))
    np.testing.assert_array_equal(_count_below(n, 0.35, 0.8, shift), whole)


def test_least_eigenvalue_certificate_is_not_vacuous(monkeypatch):
    c1, c2 = np.array([0.3, 0.8, 0.5]), np.array([0.4, 0.9, 0.0])
    least, _ = least_eigenvalues(4, c1, c2)
    original = uqd.spectral._end_block_minimum
    monkeypatch.setattr(
        uqd.spectral, "_end_block_minimum", lambda *args: original(*args) + 1e-6
    )
    with pytest.raises(RuntimeError, match="certificate failed at n=4"):
        least_eigenvalues(4, c1, c2)
    # a raise smaller than FEASIBLE_TOL stays inside the certified margin
    monkeypatch.setattr(
        uqd.spectral,
        "_end_block_minimum",
        lambda *args: original(*args) + FEASIBLE_TOL / 2,
    )
    raised, _ = least_eigenvalues(4, c1, c2)
    np.testing.assert_array_equal(raised, least + FEASIBLE_TOL / 2)


def test_least_eigenvalues_build_no_blocks(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a block")

    expected = least_eigenvalues(5, [0.2, 1.0], [0.8, 1.0])
    for name in ("sector_blocks", "_sector_block", "spectrum_report"):
        monkeypatch.setattr(uqd.spectral, name, refuse)
    got = least_eigenvalues(5, [0.2, 1.0], [0.8, 1.0])
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], [True, False])


@pytest.mark.parametrize("n", [1, 2, 8, 100, SECTOR_N_MAX])
def test_least_eigenvalues_do_not_depend_on_the_batch(n):
    # a grid and the constraint curve certified in one call, as the
    # feasibility scan does, read the same as two separate calls
    values = np.linspace(0.0, 1.0, 41)
    c1, c2 = (axis.ravel() for axis in np.meshgrid(values, values, indexing="ij"))
    curve = [constraint_c2(c, n) for c in values.tolist()]
    least, feasible = least_eigenvalues(
        n, np.concatenate((c1, values)), np.concatenate((c2, curve))
    )
    grid_least, grid_feasible = least_eigenvalues(n, c1, c2)
    curve_least, curve_feasible = least_eigenvalues(n, values, curve)
    assert np.array_equal(least, np.concatenate((grid_least, curve_least)))
    assert np.array_equal(feasible, np.concatenate((grid_feasible, curve_feasible)))


def test_least_eigenvalues_validation():
    with pytest.raises(ValueError, match="equal length"):
        least_eigenvalues(2, [0.1, 0.2], [0.1])
    with pytest.raises(ValueError, match="equal length"):
        least_eigenvalues(2, 0.1, 0.1)
    with pytest.raises(ValueError, match="c2 must lie in"):
        least_eigenvalues(2, [0.1, 0.2], [0.3, 1.5])
    with pytest.raises(ValueError, match="c1 must lie in"):
        least_eigenvalues(2, [float("nan")], [0.3])
    with pytest.raises(ValueError, match="capped"):
        least_eigenvalues(SECTOR_N_MAX + 1, [0.5], [0.5])
    with pytest.raises(ValueError):
        least_eigenvalues(0, [0.5], [0.5])


@pytest.mark.parametrize(
    "members, change",
    [
        # the E link from (1, 2, 0) to (1, 1, 1), 0.1% too strong
        ([(1, 2, 0)], lambda diagonal, link, c1: (diagonal, 1.001 * link)),
        # that whole E block 0.1% too strong, O left as it is: the trace is off,
        # the determinant not
        (
            [(1, 2, 0), (1, 1, 1)],
            lambda diagonal, link, c1: ((1 + 1e-3 * c1) * diagonal, (1 + 1e-3 * c1) * link),
        ),
        # an E link from (1, 1, 1), where only O links
        ([(1, 1, 1)], lambda diagonal, link, c1: (diagonal, link + 1e-6 * c1)),
    ],
)
def test_least_eigenvalue_certificate_sees_a_broken_projector(members, change, monkeypatch):
    original = uqd.spectral._chain_entries

    def broken(n, l, m, t, c1, c2, base):
        diagonal, link = original(n, l, m, t, c1, c2, base)
        at = np.any([(l == a) & (m == b) & (t == c) for a, b, c in members], axis=0)
        changed_diagonal, changed_link = change(diagonal, link, c1)
        return np.where(at, changed_diagonal, diagonal), np.where(at, changed_link, link)

    monkeypatch.setattr(uqd.spectral, "_chain_entries", broken)
    with pytest.raises(RuntimeError, match="failed at n=4: E and O depart from projectors"):
        least_eigenvalues(4, [0.3, 0.9], [0.4, 0.2])


def test_least_eigenvalue_certificate_sees_a_cosine_beyond_the_edge(monkeypatch):
    original = uqd.spectral._count_below

    def spy(n, c1, c2, shift):
        counts = original(n, c1, c2, shift)
        if (c1, c2) == (1.0, 1.0):
            counts[0, 0] += 1
        return counts

    monkeypatch.setattr(uqd.spectral, "_count_below", spy)
    with pytest.raises(RuntimeError, match=r"failed at n=3: pi0 at \(1, 1\) has 1 eigenvalues"):
        least_eigenvalues(3, [0.3, 0.9], [0.4, 0.2])


def test_least_eigenvalue_certificate_fails_on_nan(monkeypatch):
    original = uqd.spectral._chain_entries

    def poisoned(n, l, m, t, c1, c2, base):
        diagonal, link = original(n, l, m, t, c1, c2, base)
        return np.where((l == 0) & (m == 0) & (t == 0), np.nan, diagonal), link

    monkeypatch.setattr(uqd.spectral, "_chain_entries", poisoned)
    with pytest.raises(RuntimeError, match="E and O depart from projectors by nan"):
        least_eigenvalues(2, [0.3], [0.4])
    monkeypatch.setattr(uqd.spectral, "_chain_entries", original)
    monkeypatch.setattr(
        uqd.spectral, "_pair_eigenvalues", lambda *args: (np.array([np.nan]), np.array([np.nan]))
    )
    with pytest.raises(RuntimeError, match="from the closed form nan"):
        least_eigenvalues(2, [0.3], [0.4])


@pytest.mark.parametrize("n", [1, 2, 7, 40, SECTOR_N_MAX])
def test_extreme_cosine_edge_is_tight(n):
    # pi0(1, 1) = E + O - I has -n/(n+1), the largest cosine negated, with
    # multiplicity 2n, and nothing below it
    edge, margin = -n / (n + 1), FEASIBLE_TOL / 8
    counts = _count_below(n, 1.0, 1.0, np.array([edge - margin, edge + margin]))
    assert counts.sum(axis=0).tolist() == [0, 2 * n]


def test_least_eigenvalues_at_the_cap_match_the_closed_form():
    n = SECTOR_N_MAX
    values = np.linspace(0.0, 1.0, 41)
    c1, c2 = (axis.ravel() for axis in np.meshgrid(values, values, indexing="ij"))
    least, feasible = least_eigenvalues(n, c1, c2)
    cosine = n / (n + 1)
    for a, b, low, ok in zip(c1.tolist(), c2.tolist(), least, feasible):
        closed = 1 - (a + b) / 2 - math.sqrt(max((a - b) ** 2 / 4 + a * b * cosine**2, 0.0))
        assert abs(low - closed) <= 1e-12
        if abs(closed + FEASIBLE_TOL) > 1e-12:
            assert bool(ok) == (closed >= -FEASIBLE_TOL)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 25])
def test_members_are_every_sector_ordered_by_q(n):
    l, m, t, bounds = uqd.spectral._members(n)
    grid = [axis.ravel() for axis in np.indices((n + 1, n + 1, 2))]
    sector = grid[0] + grid[1] + grid[2]
    order = np.lexsort((2 * grid[0] + grid[2], sector))
    for got, want in zip((l, m, t), grid):
        np.testing.assert_array_equal(got, want[order])
    np.testing.assert_array_equal(bounds, np.concatenate(([0], np.cumsum(np.bincount(sector)))))


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_principal_cosines_in_the_spin_form(n):
    cosines = principal_cosines(n)
    assert isinstance(cosines, PrincipalCosines)
    assert cosines.denominator == n + 1
    assert cosines.numerators.tolist() == list(range(1, n + 1))
    assert cosines.multiplicities.tolist() == [2 * j for j in range(1, n + 1)]
    # J = j - 1/2: cos^2_J = (J + 1/2)^2 / (n+1)^2 with multiplicity 2J + 1
    for j, mult in zip(cosines.numerators.tolist(), cosines.multiplicities.tolist()):
        spin = Fraction(2 * j - 1, 2)
        assert Fraction(j, n + 1) ** 2 == (spin + Fraction(1, 2)) ** 2 / (n + 1) ** 2
        assert mult == 2 * spin + 1
    # the 2D Jordan blocks and the 2(n+1)-dimensional meet fill the space
    assert 2 * int(cosines.multiplicities.sum()) + 2 * (n + 1) == reduced_dim(n)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=60), edge_scales, edge_scales)
@example(n=1, c1=0.0, c2=0.0)
@example(n=60, c1=1.0, c2=1.0)
@example(n=17, c1=0.3, c2=0.0)
@example(n=24, c1=1e-12, c2=0.5)
def test_closed_form_spectrum_matches_sector_eigenvalues(n, c1, c2):
    params = PovmParams(c1, c2)
    values, mult = closed_form_spectrum(n, params)
    assert values.shape == mult.shape == (2 * n + 1,)
    assert int(mult.sum()) == reduced_dim(n)
    spectra = _sector_spectra(n, params)
    np.testing.assert_allclose(
        _expanded(n, params), np.sort(np.concatenate(spectra)), rtol=0, atol=1e-12
    )
    # J_l and K_l hold 1 and the pairs j = n+1-l..n
    low, high = values[:n], values[n : 2 * n]
    for s, eigs in enumerate(spectra):
        pairs = slice(n - min(s, 2 * n + 1 - s), n)
        block = np.sort(np.concatenate((low[pairs], high[pairs], [1.0])))
        np.testing.assert_allclose(eigs, block, rtol=0, atol=1e-12)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=60), scales, scales)
@example(n=4, c1=0.798828125, c2=0.32035584128430045)
def test_extreme_pair_is_the_last_pair_of_the_spectrum(n, c1, c2):
    values, _ = closed_form_spectrum(n, PovmParams(c1, c2))
    low, high = closed_form_extreme_eigenvalues(n, PovmParams(c1, c2))
    assert (values[n - 1], values[2 * n - 1]) == (low, high)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("c1, c2", [(0.3, 0.4), (1.0, 1.0), (0.0, 0.7), (0.9, 0.05), (0.6, 0.6)])
def test_closed_form_spectrum_matches_dense_positivity_check(n, c1, c2):
    params = PovmParams(c1, c2)
    triple = build_povm(n, params)
    dense = np.linalg.eigvalsh(triple.pi0.entries)
    np.testing.assert_allclose(_expanded(n, params), dense, rtol=0, atol=1e-12)
    check = positivity_check(triple)
    report = spectrum_report(n, params)
    assert abs(report.min_eigenvalue - check.numeric_min) < 1e-12
    assert report.feasible == check.feasible


@pytest.mark.parametrize(
    "c1, c2, clusters",
    # lambda_j- = 1 - c and lambda_j+ = 1 for one zero scale; at
    # (1e-12, 0.5) the pairs lie within 1e-12 of 1/2 and of 1
    [(0.0, 0.0, 1), (0.3, 0.0, 2), (0.0, 0.3, 2), (1e-12, 0.5, 2), (1.0, 1.0, None)],
)
@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_spectrum_certificate_merges_coinciding_values(n, c1, c2, clusters, monkeypatch):
    params = PovmParams(c1, c2)
    shifts = []
    original = uqd.spectral._count_below

    def spy(*args, **kwargs):
        shifts.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(uqd.spectral, "_count_below", spy)
    report = spectrum_report(n, params)
    # two shifts per cluster, none within FEASIBLE_TOL of an eigenvalue
    (shift,) = shifts
    assert len(shift) == 2 * (clusters or 2 * n + 1)
    spectra = _sector_spectra(n, params)
    eigs = np.concatenate(spectra)
    assert np.min(np.abs(eigs[:, None] - shift[None, :])) >= FEASIBLE_TOL - 1e-13
    for block in report.blocks:
        s = block.l if block.label == "J" else 2 * n + 1 - block.l
        assert list(block.eigenvalues) == sorted(block.eigenvalues)
        np.testing.assert_allclose(block.eigenvalues, spectra[s], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("index", ["least", "first_low", "first_high", "unit"])
def test_spectrum_certificate_is_not_vacuous(n, index, monkeypatch):
    params = PovmParams(0.3, 0.4)
    original = uqd.spectral.closed_form_spectrum
    position = {"least": n - 1, "first_low": 0, "first_high": n, "unit": 2 * n}[index]

    def moved(delta):
        def formula(*args):
            values, mult = original(*args)
            values[position] += delta
            return values, mult

        return formula

    expected = spectrum_report(n, params)
    monkeypatch.setattr(uqd.spectral, "closed_form_spectrum", moved(1e-6))
    with pytest.raises(RuntimeError, match=f"spectrum certificate failed at n={n}"):
        spectrum_report(n, params)
    # a move smaller than FEASIBLE_TOL stays inside the brackets
    monkeypatch.setattr(uqd.spectral, "closed_form_spectrum", moved(FEASIBLE_TOL / 4))
    nudged = spectrum_report(n, params)
    assert [b.size for b in nudged.blocks] == [b.size for b in expected.blocks]


@pytest.mark.parametrize("n", [1, 2, 6])
def test_spectrum_certificate_refuses_wrong_cosines(n, monkeypatch):
    # cosines j/n in place of j/(n+1)
    def wrong(m):
        j = np.arange(1, m + 1)
        return PrincipalCosines(j, m, 2 * j)

    monkeypatch.setattr(uqd.spectral, "principal_cosines", wrong)
    with pytest.raises(RuntimeError, match="spectrum certificate failed"):
        spectrum_report(n, PovmParams(0.3, 0.4))
