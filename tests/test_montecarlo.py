"""Sampling determinism and statistical agreement with the closed forms.

Statistical assertions use fixed seeds and 4-standard-error gates, so they
are reproducible rather than flaky.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uqd.montecarlo
import uqd.povm
from uqd.montecarlo import (
    McReport,
    OutcomeCounts,
    _bloch_amplitudes,
    _pair_amplitude_chunks,
    _projector_mean_stats,
    make_rng,
    mc_average_success,
    sample_qubit,
    sample_qubits,
    simulate_outcomes,
)
from uqd.povm import PovmParams, batch_success_probabilities
from uqd.strategy import DiscriminatorConfig, decide
from uqd.symmetric import BlochQubit, _Scratch


def test_make_rng_validation():
    make_rng(0)
    for bad in (-1, 1.5, True, "7"):
        with pytest.raises(ValueError):
            make_rng(bad)


def test_rng_streams_reproduce():
    a = make_rng(123).random(16)
    b = make_rng(123).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(124).random(16))


def test_sample_qubit_measure():
    rng = make_rng(5)
    draws = np.array(
        [
            [math.cos(q.theta), math.cos(q.theta / 2) ** 2]
            for q in (sample_qubit(rng) for _ in range(100000))
        ]
    )
    n = len(draws)
    se_cos = draws[:, 0].std(ddof=1) / math.sqrt(n)
    se_half = draws[:, 1].std(ddof=1) / math.sqrt(n)
    assert abs(draws[:, 0].mean()) < 4 * se_cos
    assert abs(draws[:, 1].mean() - 0.5) < 4 * se_half


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_average_success_statistical_gate(seed):
    report = mc_average_success(3, PovmParams(1.0, 1.0), 0.5, 100000, seed)
    assert abs(report.analytic - 3 / 8) < 1e-15
    assert abs(report.mean_success - report.analytic) < 4 * report.std_error
    assert report.error_events == 0

    optimal = mc_average_success(2, PovmParams(0.6, 0.6), 0.5, 100000, seed)
    assert abs(optimal.analytic - 0.2) < 1e-12
    assert abs(optimal.mean_success - 0.2) < 4 * optimal.std_error
    assert optimal.error_events == 0


def test_average_success_degenerate_scales():
    report = mc_average_success(2, PovmParams(0.0, 0.0), 0.3, 2000, 9)
    assert report.mean_success == 0.0
    assert report.std_error == 0.0
    assert report.analytic == 0.0


def test_average_success_validation():
    with pytest.raises(ValueError):
        mc_average_success(2, PovmParams(0.5, 0.5), 0.5, 999, 1)
    with pytest.raises(ValueError):
        mc_average_success(2, PovmParams(0.5, 0.5), 1.5, 2000, 1)


def test_average_success_deterministic():
    a = mc_average_success(2, PovmParams(0.4, 0.7), 0.35, 5000, 77)
    b = mc_average_success(2, PovmParams(0.4, 0.7), 0.35, 5000, 77)
    assert a == b
    assert a != mc_average_success(2, PovmParams(0.4, 0.7), 0.35, 5000, 78)


def test_report_serialization():
    report = mc_average_success(1, PovmParams(0.5, 0.5), 0.5, 1000, 4)
    data = report.to_dict()
    assert set(data) == {
        "samples",
        "mean_success",
        "std_error",
        "analytic",
        "error_events",
        "max_leak",
        "z_score",
    }
    assert isinstance(report, McReport)
    assert 0.0 <= data["max_leak"] < 1e-12
    assert data["z_score"] == pytest.approx(
        (report.mean_success - report.analytic) / report.std_error, rel=1e-15
    )
    assert json.loads(json.dumps(data)) == data


def test_z_score_is_null_without_spread():
    report = mc_average_success(2, PovmParams(0.0, 0.0), 0.3, 2000, 9)
    assert report.z_score is None
    assert json.loads(json.dumps(report.to_dict()))["z_score"] is None


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n,target", [(1, 0.75), (4, 0.6)])
def test_projector_mean_converges(n, target, seed):
    mean, std_error = _projector_mean_stats(n, 100000, seed)
    assert abs(mean - target) < 4 * std_error


def test_projector_mean_large_n():
    n = 50
    mean, std_error = _projector_mean_stats(n, 100000, 3)
    assert abs(mean - (n + 2) / (2 * (n + 1))) < 4 * std_error


def test_simulate_outcomes_counts_add_up():
    counts = simulate_outcomes(
        BlochQubit(0.6, 0.0),
        BlochQubit(2.2, 1.0),
        DiscriminatorConfig(2, 0.4),
        20000,
        13,
    )
    assert counts.identify1 + counts.identify2 + counts.fail == counts.shots
    assert counts.error_events == 0
    assert set(counts.to_dict()) == {
        "identify1",
        "identify2",
        "fail",
        "shots",
        "error_events",
    }
    assert isinstance(counts, OutcomeCounts)


def test_simulate_outcomes_identical_states_always_fail():
    q = BlochQubit(1.4, 0.9)
    counts = simulate_outcomes(q, q, DiscriminatorConfig(3, 0.5), 5000, 21)
    assert counts.fail == counts.shots
    assert counts.identify1 == counts.identify2 == 0


def test_simulate_outcomes_orthogonal_rate():
    # identify1 rate for |0> vs |1> at n=2: prior 1/2 times c n/(n+1) = 0.2
    counts = simulate_outcomes(
        BlochQubit(0.0, 0.0),
        BlochQubit(math.pi, 0.0),
        DiscriminatorConfig(2, 0.5),
        100000,
        11,
    )
    p = 0.5 * 0.6 * (2 / 3)
    sigma = math.sqrt(p * (1 - p) / counts.shots)
    assert abs(counts.identify1 / counts.shots - p) < 4 * sigma
    assert counts.error_events == 0


def test_simulate_outcomes_deterministic():
    args = (
        BlochQubit(0.5, 0.1),
        BlochQubit(1.9, 2.0),
        DiscriminatorConfig(2, 0.6),
        3000,
    )
    assert simulate_outcomes(*args, 5) == simulate_outcomes(*args, 5)
    with pytest.raises(ValueError):
        simulate_outcomes(*args, -2)


def test_simulate_outcomes_shot_validation():
    q1, q2 = BlochQubit(0.5, 0.1), BlochQubit(1.9, 2.0)
    with pytest.raises(ValueError):
        simulate_outcomes(q1, q2, DiscriminatorConfig(2, 0.6), 0, 1)


def _masked_outcomes(psi1, psi2, config, shots, seed):
    """Counts by the route the one-pass tally replaced: a mask per label,
    searchsorted(side="right") into its cumulative distribution, the
    min(..., 2) guard and one count per bucket."""
    decision = decide(config)
    p1, p2, leak1, leak2 = (
        float(x[0])
        for x in batch_success_probabilities(
            config.n,
            PovmParams(decision.c1_opt, decision.c2_opt),
            [psi1.theta],
            [psi1.phi],
            [psi2.theta],
            [psi2.phi],
        )
    )
    distributions = []
    for probs in ((p1, leak1, 1.0 - p1 - leak1), (leak2, p2, 1.0 - leak2 - p2)):
        probs = np.clip(np.array(probs), 0.0, None)
        distributions.append(np.cumsum(probs / probs.sum()))
    u = make_rng(seed).random((shots, 2))
    labels = np.where(u[:, 0] < config.eta1, 1, 2)
    outcomes = np.empty(shots, dtype=int)
    for which, cumulative in zip((1, 2), distributions):
        mask = labels == which
        outcomes[mask] = np.searchsorted(cumulative, u[mask, 1], side="right")
    outcomes = np.minimum(outcomes, 2)
    return OutcomeCounts(
        identify1=int(np.count_nonzero(outcomes == 0)),
        identify2=int(np.count_nonzero(outcomes == 1)),
        fail=int(np.count_nonzero(outcomes == 2)),
        shots=shots,
        error_events=int(
            np.count_nonzero(((outcomes == 0) & (labels == 2)) | ((outcomes == 1) & (labels == 1)))
        ),
    )


angles = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi), st.floats(min_value=0.0, max_value=2 * math.pi)
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    st.sampled_from(["identical", "orthogonal", "random"]),
    angles,
    angles,
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=2**32),
)
@example(n=2, eta1=0.0, kind="orthogonal", a=(0.0, 0.0), b=(0.0, 0.0), shots=5000, seed=3)
@example(n=2, eta1=1.0, kind="orthogonal", a=(0.0, 0.0), b=(0.0, 0.0), shots=5000, seed=3)
@example(n=3, eta1=0.5, kind="random", a=(0.4, 1.0), b=(2.5, 4.0), shots=1, seed=0)
def test_outcome_tally_equals_the_masked_route(n, eta1, kind, a, b, shots, seed):
    if kind == "identical":
        psi1 = psi2 = BlochQubit(*a)
    elif kind == "orthogonal":
        psi1, psi2 = BlochQubit(*a), BlochQubit(math.pi - a[0], a[1] + math.pi)
    else:
        psi1, psi2 = BlochQubit(*a), BlochQubit(*b)
    config = DiscriminatorConfig(n, eta1)
    counts = simulate_outcomes(psi1, psi2, config, shots, seed)
    assert counts == _masked_outcomes(psi1, psi2, config, shots, seed)
    assert all(isinstance(v, int) for v in counts.to_dict().values())


@pytest.mark.parametrize("seed", [0, 13])
def test_outcome_tally_does_not_depend_on_chunk_size(seed, monkeypatch):
    # the chunks draw the rows of one shot table in turn, and their tallies
    # add up to the masked route's counts over the whole table
    shots = 20000
    config = DiscriminatorConfig(3, 0.45)
    psi1, psi2 = BlochQubit(0.7, 0.2), BlochQubit(2.1, 3.5)
    expected = _masked_outcomes(psi1, psi2, config, shots, seed)
    assert expected.identify1 > 0 and expected.identify2 > 0 and expected.fail > 0
    for rows in (1, 7, 8192, shots):
        monkeypatch.setattr(uqd.montecarlo, "_CHUNK_ROWS", rows)
        assert simulate_outcomes(psi1, psi2, config, shots, seed) == expected


def test_chunk_layout_is_row_stable():
    # counter-based stream: sample i occupies row i however the batch splits
    long = make_rng(31).random((5000, 4))
    short = make_rng(31).random((3000, 4))
    assert np.array_equal(long[:3000], short)


@pytest.mark.parametrize("n", [3, 50])
def test_results_do_not_depend_on_chunk_size(n, monkeypatch):
    # 10000 samples fill part of one block of the streamed moments, 70001
    # fill two and part of a third
    params = PovmParams(0.45, 0.55)
    for samples, chunk_rows in ((10000, (1000, 4096)), (70001, (1000, 8192, 2**15))):
        monkeypatch.setattr(uqd.montecarlo, "_CHUNK_ROWS", 8192)
        default_report = mc_average_success(n, params, 0.4, samples, 17)
        default_stats = _projector_mean_stats(n, samples, 17)
        for rows in (*chunk_rows, samples):
            monkeypatch.setattr(uqd.montecarlo, "_CHUNK_ROWS", rows)
            assert mc_average_success(n, params, 0.4, samples, 17) == default_report
            assert _projector_mean_stats(n, samples, 17) == default_stats


def test_block_boundaries_do_not_follow_chunks(monkeypatch):
    # single-row and 7-row chunks across many block boundaries, with the
    # block shrunk to 64 samples: at the full 2^15 a run of one-row chunks
    # past one block would take seconds
    monkeypatch.setattr(uqd.montecarlo, "_BLOCK", 64)
    samples, params = 1000, PovmParams(0.45, 0.55)
    default_report = mc_average_success(3, params, 0.4, samples, 17)
    default_stats = _projector_mean_stats(3, samples, 17)
    for rows in (1, 7, 64, 100, samples):
        monkeypatch.setattr(uqd.montecarlo, "_CHUNK_ROWS", rows)
        assert mc_average_success(3, params, 0.4, samples, 17) == default_report
        assert _projector_mean_stats(3, samples, 17) == default_stats


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1000, max_value=3000),
    st.integers(min_value=1, max_value=3500),
)
@example(n=50, samples=1000, rows=1)
def test_drawn_chunk_sizes_do_not_change_results(n, samples, rows):
    params = PovmParams(0.45, 0.55)
    default_report = mc_average_success(n, params, 0.4, samples, 17)
    default_stats = _projector_mean_stats(n, samples, 17)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(uqd.montecarlo, "_CHUNK_ROWS", rows)
        assert mc_average_success(n, params, 0.4, samples, 17) == default_report
        assert _projector_mean_stats(n, samples, 17) == default_stats


def test_bloch_amplitudes_match_the_arccos_route():
    # cos(theta) = 2u - 1 gives cos^2(theta/2) = u: the square roots are the
    # half-angle amplitudes, the poles u = 0 and u -> 1 included
    u = np.concatenate([[0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], np.linspace(0, 1, 1001)[:-1]])
    c, s, phi = _bloch_amplitudes(u, u)
    theta = np.arccos(2.0 * u - 1.0)
    assert np.max(np.abs(c - np.cos(theta / 2))) < 1e-15
    assert np.max(np.abs(s - np.sin(theta / 2))) < 1e-15
    assert np.array_equal(phi, 2 * math.pi * u)
    assert c[0] == 0.0 and s[0] == 1.0


def test_sample_qubit_uses_the_chunk_map():
    u = make_rng(8).random(2)
    c, s, phi = _bloch_amplitudes(*u)
    q = sample_qubit(make_rng(8))
    assert q.theta == 2 * math.atan2(s, c)
    assert q.phi == phi
    assert abs(math.cos(q.theta / 2) - c) < 1e-15


@pytest.mark.parametrize("seed", [0, 8, 2024])
def test_sample_qubits_equal_repeated_sample_qubit(seed):
    # the oracle's qubits come from one table; the stream must not move
    for make in (make_rng, np.random.default_rng):
        for count in (0, 1, 7, 200):
            batch_rng, single_rng = make(seed), make(seed)
            batch = sample_qubits(batch_rng, count)
            singles = [sample_qubit(single_rng) for _ in range(count)]
            assert [(q.theta, q.phi) for q in batch] == [
                (q.theta, q.phi) for q in singles
            ]
            assert batch_rng.random() == single_rng.random()


@pytest.mark.parametrize("n", [1, 8, 30])
def test_average_matches_the_angle_route(n):
    # the same draws through arccos angles and the public batch API
    samples, seed, eta1 = 5000, 23, 0.4
    params = PovmParams(0.45, 0.55)
    report = mc_average_success(n, params, eta1, samples, seed)
    u = make_rng(seed).random((samples, 4))
    p1, p2, leak1, leak2 = batch_success_probabilities(
        n,
        params,
        np.arccos(2.0 * u[:, 0] - 1.0),
        2 * math.pi * u[:, 1],
        np.arccos(2.0 * u[:, 2] - 1.0),
        2 * math.pi * u[:, 3],
    )
    weighted = eta1 * p1 + (1.0 - eta1) * p2
    assert abs(report.mean_success - weighted.mean()) < 1e-12
    assert abs(report.std_error - weighted.std(ddof=1) / math.sqrt(samples)) < 1e-12
    worst = max(np.max(np.abs(leak1)), np.max(np.abs(leak2)))
    assert abs(report.max_leak - worst) < 1e-12
    assert report.error_events == 0


def test_chunk_rows_are_the_bloch_amplitudes_of_each_qubit(monkeypatch):
    # (2, rows) stacks, C-contiguous: row 0 is qubit 1 (columns 0 and 1 of
    # the draw table), row 1 is qubit 2 (columns 2 and 3)
    monkeypatch.setattr(uqd.montecarlo, "_CHUNK_ROWS", 1000)
    samples, seed = 2500, 4
    u = make_rng(seed).random((samples, 4))
    covered = 0
    for sl, c, s, cos_delta in _pair_amplitude_chunks(seed, samples):
        rows = sl.stop - sl.start
        assert c.shape == s.shape == (2, rows) and cos_delta.shape == (rows,)
        assert c.flags.c_contiguous and s.flags.c_contiguous
        phis = []
        for q, (col_u, col_v) in enumerate(((0, 1), (2, 3))):
            c_ref, s_ref, phi = _bloch_amplitudes(u[sl, col_u], u[sl, col_v])
            assert np.array_equal(c[q], c_ref) and np.array_equal(s[q], s_ref)
            phis.append(phi)
        assert np.array_equal(cos_delta, np.cos(phis[0] - phis[1]))
        covered += rows
    assert covered == samples


@pytest.mark.parametrize("n", [1, 7, 40])
def test_average_equals_an_all_at_once_reference(n):
    # the whole Philox table drawn at once and the closed-form pair success
    # in the kernel's arithmetic: mean and standard error agree bit for bit
    samples, seed, eta1 = 20000, 37, 0.35
    params = PovmParams(0.6, 0.3)
    report = mc_average_success(n, params, eta1, samples, seed)
    u = make_rng(seed).random((samples, 4))
    c1, c2 = np.sqrt(u[:, 0]), np.sqrt(u[:, 2])
    s1, s2 = np.sqrt(1.0 - u[:, 0]), np.sqrt(1.0 - u[:, 2])
    cos_delta = np.cos(2 * math.pi * u[:, 1] - 2 * math.pi * u[:, 3])
    cc, ss = c1 * c2, s1 * s2
    miss = n * (1.0 - (cc * cc + ss * ss + 2 * cc * ss * cos_delta)) / (n + 1)
    weighted = eta1 * (params.c1 * miss) + (1.0 - eta1) * (params.c2 * miss)
    assert report.mean_success == float(np.mean(weighted))
    assert report.std_error == float(np.std(weighted, ddof=1) / math.sqrt(samples))
    assert report.error_events == 0


def _weighted_reference(n, params, eta1, samples, seed):
    """The weighted pair successes from the whole Philox table at once."""
    u = make_rng(seed).random((samples, 4))
    c1, c2 = np.sqrt(u[:, 0]), np.sqrt(u[:, 2])
    s1, s2 = np.sqrt(1.0 - u[:, 0]), np.sqrt(1.0 - u[:, 2])
    cos_delta = np.cos(2 * math.pi * u[:, 1] - 2 * math.pi * u[:, 3])
    cc, ss = c1 * c2, s1 * s2
    miss = n * (1.0 - (cc * cc + ss * ss + 2 * cc * ss * cos_delta)) / (n + 1)
    return eta1 * (params.c1 * miss) + (1.0 - eta1) * (params.c2 * miss)


def _blocked_moments(values, block):
    """Mean and standard error over fixed blocks of `block` values: per
    block the reduce of the values and of the squared deviations, merged
    in order by the Chan, Golub and LeVeque update."""
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, len(values), block):
        part = values[start : start + block]
        part_mean = np.add.reduce(part) / len(part)
        deviation = part - part_mean
        part_m2 = float(np.add.reduce(deviation * deviation))
        if count == 0:
            count, mean, m2 = len(part), float(part_mean), part_m2
            continue
        total = count + len(part)
        delta = float(part_mean) - mean
        mean += delta * len(part) / total
        m2 += part_m2 + delta * delta * count * len(part) / total
        count = total
    return mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count)


@pytest.mark.parametrize("n", [1, 7, 40])
def test_average_over_blocks_equals_a_blocked_reference(n):
    # three full blocks of 2^15 samples and 123 more: bit for bit
    # the blocked reference, and within 4 ulps of numpy's one-pass mean and
    # std(ddof=1) (at most 2 ulps of the mean and 1 of the standard error
    # were seen over 120 seeded runs)
    samples, seed, eta1 = 3 * 2**15 + 123, 41, 0.35
    params = PovmParams(0.6, 0.3)
    report = mc_average_success(n, params, eta1, samples, seed)
    weighted = _weighted_reference(n, params, eta1, samples, seed)
    assert (report.mean_success, report.std_error) == _blocked_moments(weighted, 2**15)
    mean = float(np.mean(weighted))
    std_error = float(np.std(weighted, ddof=1) / math.sqrt(samples))
    assert abs(report.mean_success - mean) <= 4 * math.ulp(mean)
    assert abs(report.std_error - std_error) <= 4 * math.ulp(std_error)
    assert report.error_events == 0


def test_average_peak_memory_does_not_grow_with_samples():
    # the moments stream over one 2^15-sample block and every chunk reuses
    # the first chunk's buffers, so ten times the samples costs no memory
    params = PovmParams(0.6, 0.3)
    mc_average_success(7, params, 0.35, 1000, 1)
    peaks = []
    for samples in (10**5, 10**6):
        tracemalloc.start()
        try:
            mc_average_success(7, params, 0.35, samples, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 64 * 2**10
    assert max(peaks) < 3 * 2**20


def test_outcome_tally_peak_memory_is_one_chunk():
    config = DiscriminatorConfig(2, 0.6)
    q1, q2 = BlochQubit(0.5, 0.1), BlochQubit(1.9, 2.0)
    simulate_outcomes(q1, q2, config, 1000, 1)
    tracemalloc.start()
    try:
        simulate_outcomes(q1, q2, config, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("rows", [1, 7, 8192])
def test_chunk_buffers_fit_one_arena(rows, monkeypatch):
    # every buffer of each chunk loop is carved from the arena its loop
    # sizes, so a call makes one large allocation
    made = []

    class RecordedScratch(_Scratch):
        def __init__(self, capacity=0):
            super().__init__(capacity)
            made.append(self)

    monkeypatch.setattr(uqd.montecarlo, "_Scratch", RecordedScratch)
    monkeypatch.setattr(uqd.montecarlo, "_CHUNK_ROWS", rows)
    mc_average_success(1, PovmParams(0.5, 0.5), 0.4, 1000, 1)
    mc_average_success(500, PovmParams(0.5, 0.5), 0.4, 1000, 1)
    _projector_mean_stats(3, 1000, 1)
    simulate_outcomes(BlochQubit(0.5, 0.1), BlochQubit(1.9, 2.0), DiscriminatorConfig(2, 0.6), 1000, 1)
    assert len(made) == 4
    for scratch in made:
        buffers = [b for b in scratch._kept.values() if isinstance(b, np.ndarray)]
        assert buffers and all(np.shares_memory(b, scratch._arena) for b in buffers)


def _fault_probe(code):
    """Run `code` in a fresh interpreter without any MALLOC_ or glibc
    tunable variable, so no malloc setting can help, and return its output."""
    src = str(pathlib.Path(uqd.montecarlo.__file__).resolve().parents[1])
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"
    }
    env["PYTHONPATH"] = src
    preamble = (
        "import resource\n"
        "from uqd.montecarlo import mc_average_success\n"
        "from uqd.povm import PovmParams\n"
        "params = PovmParams(0.6, 0.3)\n"
        "def faults():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    )
    return subprocess.run(
        [sys.executable, "-c", preamble + code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout


linux_faults = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="getrusage ru_minflt counts minor page faults as Linux reports them",
)


@linux_faults
def test_fresh_process_average_makes_few_page_faults():
    # the chunk buffers are faulted in once per call, not once per chunk;
    # with per-chunk temporaries the same call took 22-33 k faults
    out = _fault_probe(
        "before = faults()\n"
        "mc_average_success(1, params, 0.4, 10**6, 7)\n"
        "print(faults() - before)\n"
    )
    assert int(out) < 5000


@linux_faults
def test_repeated_small_averages_reuse_their_memory():
    # one arena per call: from the third call on, malloc hands back the
    # memory of the last one, where separate buffers were trimmed and
    # faulted in again (about 500 pages a call)
    out = _fault_probe(
        "for seed in range(5):\n"
        "    before = faults()\n"
        "    mc_average_success(3, params, 0.4, 20000, seed)\n"
        "    print(faults() - before)\n"
    )
    assert [int(line) < 50 for line in out.split()][2:] == [True] * 3


class _NumpyWithoutJoins:
    """numpy as the chunk path sees it, with every array join refused."""

    def __getattr__(self, name):
        if name in ("concatenate", "stack", "hstack", "vstack", "append"):
            raise AssertionError(f"the Monte Carlo chunk path called np.{name}")
        return getattr(np, name)


def test_chunk_path_makes_no_concatenate_copy(monkeypatch):
    # the stacked amplitudes reach the leak as a flat view, not a joined copy
    for module in (uqd.montecarlo, uqd.povm):
        monkeypatch.setattr(module, "np", _NumpyWithoutJoins())
    report = mc_average_success(5, PovmParams(0.45, 0.55), 0.4, 3000, 2)
    assert report.error_events == 0
    _projector_mean_stats(5, 3000, 2)
