"""Sampling determinism and statistical agreement with the closed forms.

Statistical assertions use fixed seeds and 4-standard-error gates, so they
are reproducible rather than flaky.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uqd.montecarlo
from uqd.montecarlo import (
    McReport,
    OutcomeCounts,
    _bloch_amplitudes,
    _projector_mean_stats,
    make_rng,
    mc_average_success,
    mc_projector_mean,
    sample_qubit,
    simulate_outcomes,
)
from uqd.povm import PovmParams, batch_success_probabilities
from uqd.strategy import DiscriminatorConfig
from uqd.symmetric import BlochQubit


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
    assert mc_projector_mean(n, 100000, seed) == mean


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


def test_chunk_layout_is_row_stable():
    # counter-based stream: sample i occupies row i however the batch splits
    long = make_rng(31).random((5000, 4))
    short = make_rng(31).random((3000, 4))
    assert np.array_equal(long[:3000], short)


@pytest.mark.parametrize("n", [3, 50])
def test_results_do_not_depend_on_chunk_size(n, monkeypatch):
    samples = 10000
    params = PovmParams(0.45, 0.55)
    default_report = mc_average_success(n, params, 0.4, samples, 17)
    default_stats = _projector_mean_stats(n, samples, 17)
    for rows in (1000, 4096, samples):
        monkeypatch.setattr(uqd.montecarlo, "_CHUNK_ROWS", rows)
        assert mc_average_success(n, params, 0.4, samples, 17) == default_report
        assert _projector_mean_stats(n, samples, 17) == default_stats


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
