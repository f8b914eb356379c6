"""Validity window, closed-form optima, and the piecewise regime choice."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uqd.povm import PovmParams
from uqd.spectral import closed_form_extreme_eigenvalues, constraint_c2
from uqd.symmetric import reduced_dim
from uqd.strategy import (
    DiscriminatorConfig,
    Regime,
    StrategyDecision,
    avg_success_expression,
    avg_success_povm,
    avg_success_projective,
    decide,
    optimal_c,
    validity_range,
)

copy_counts = st.integers(min_value=1, max_value=40)
priors = st.floats(min_value=0.0, max_value=1.0)


def test_validity_range_fractions():
    low, high = validity_range(2)
    assert abs(low - 4 / 13) < 1e-15
    assert abs(high - 9 / 13) < 1e-15
    low, high = validity_range(6)
    assert abs(low - 36 / 85) < 1e-15
    assert abs(high - 49 / 85) < 1e-15


@given(copy_counts)
def test_validity_range_brackets_half(n):
    low, high = validity_range(n)
    assert low < 0.5 < high
    assert abs(low + high - 1.0) < 1e-15


def test_validity_range_shrinks_to_half():
    low, high = validity_range(10**6)
    assert abs(low - 0.5) < 1e-6
    assert abs(high - 0.5) < 1e-6


def test_optimal_c_symmetric_point():
    c1, c2 = optimal_c(2, 0.5)
    assert abs(c1 - 0.6) < 1e-15
    assert abs(c2 - 0.6) < 1e-15


def test_optimal_c_window_edges():
    for n in (1, 2, 6, 11):
        low, high = validity_range(n)
        c1, c2 = optimal_c(n, high)
        assert abs(c1 - 1.0) < 1e-12 and abs(c2) < 1e-12
        c1, c2 = optimal_c(n, low)
        assert abs(c1) < 1e-12 and abs(c2 - 1.0) < 1e-12


def test_optimal_c_rejects_outside_window():
    low, high = validity_range(3)
    with pytest.raises(ValueError):
        optimal_c(3, low - 1e-6)
    with pytest.raises(ValueError):
        optimal_c(3, high + 1e-6)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.01, max_value=0.99))
def test_optimal_c_saturates_constraint_curve(n, fraction):
    low, high = validity_range(n)
    eta1 = low + fraction * (high - low)
    c1, c2 = optimal_c(n, eta1)
    assert 0.0 <= c1 <= 1.0 and 0.0 <= c2 <= 1.0
    assert abs(c2 - constraint_c2(c1, n)) < 1e-12


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.01, max_value=0.99))
def test_optimal_c_mirror_symmetry(n, fraction):
    low, high = validity_range(n)
    eta1 = low + fraction * (high - low)
    c1, c2 = optimal_c(n, eta1)
    swapped = optimal_c(n, 1.0 - eta1)
    assert abs(swapped[0] - c2) < 1e-12
    assert abs(swapped[1] - c1) < 1e-12


def _decimal_optimum(n, eta1):
    """(c1, c2, avg_success) of the expanded closed forms in 80-digit decimal
    arithmetic at the exact value of the float eta1, scales clamped to [0, 1]."""
    with localcontext() as ctx:
        ctx.prec = 80
        e1, big = Decimal(eta1), Decimal(n)
        e2 = 1 - e1
        front = (big + 1) ** 2 / (2 * big + 1)
        ratio = big / (big + 1)
        clamp = lambda c: min(Decimal(1), max(Decimal(0), c))
        return (
            clamp(front * (1 - ratio * (e2 / e1).sqrt())),
            clamp(front * (1 - ratio * (e1 / e2).sqrt())),
            big / (4 * big + 2) * (big + 1 - 2 * big * (e1 * e2).sqrt()),
        )


@pytest.mark.parametrize("n", [1, 10**3, 10**6, 10**9, 10**12, 10**15])
@pytest.mark.parametrize("fraction", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_closed_forms_match_a_decimal_reference_at_large_n(n, fraction):
    # evaluated as written, both forms cancel about n ulps: 4.6e-11 at n = 10^6
    low, high = validity_range(n)
    eta1 = low + fraction * (high - low)
    got = (*optimal_c(n, eta1), avg_success_povm(n, eta1))
    for value, want in zip(got, _decimal_optimum(n, eta1)):
        assert abs(Decimal(value) - want) < Decimal("1e-15")


def test_avg_success_povm_balanced_values():
    assert abs(avg_success_povm(1, 0.5) - 1 / 6) < 1e-15
    assert abs(avg_success_povm(2, 0.5) - 0.2) < 1e-15
    assert abs(avg_success_povm(6, 0.5) - 6 / 26) < 1e-15
    assert abs(avg_success_povm(10**6, 0.5) - 0.25) < 1e-6


def test_avg_success_povm_monotone_in_n():
    values = [avg_success_povm(n, 0.5) for n in range(1, 201)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.25


def test_avg_success_projective_values():
    assert abs(avg_success_projective(2, 1.0, 1) - 1 / 3) < 1e-15
    assert avg_success_projective(5, 0.0, 1) == 0.0
    boundary = avg_success_projective(6, 49 / 85, 1)
    assert abs(boundary - 21 / 85) < 1e-15
    assert abs(boundary - avg_success_povm(6, 49 / 85)) < 1e-12
    with pytest.raises(ValueError):
        avg_success_projective(2, 0.5, 0)


def test_avg_success_expression_optimum():
    assert abs(avg_success_expression(2, 0.5, 0.6) - 0.2) < 1e-15
    assert abs(avg_success_expression(4, 1.0, 1.0) - 4 / 10) < 1e-15
    # the closed-form point is a strict local maximum along the arc
    for eta1 in (0.45, 0.5):
        c1_opt = optimal_c(2, eta1)[0]
        best = avg_success_expression(2, eta1, c1_opt)
        assert avg_success_expression(2, eta1, c1_opt - 0.01) < best
        assert avg_success_expression(2, eta1, c1_opt + 0.01) < best


def test_decide_projective_regime():
    decision = decide(DiscriminatorConfig(2, 0.8))
    assert decision.regime is Regime.VON_NEUMANN_1
    assert (decision.c1_opt, decision.c2_opt) == (1.0, 0.0)
    assert abs(decision.avg_success - 0.8 / 3) < 1e-15
    mirrored = decide(DiscriminatorConfig(2, 0.2))
    assert mirrored.regime is Regime.VON_NEUMANN_2
    assert (mirrored.c1_opt, mirrored.c2_opt) == (0.0, 1.0)


def test_decide_interior_regime():
    decision = decide(DiscriminatorConfig(2, 0.5))
    assert decision.regime is Regime.POVM
    assert abs(decision.avg_success - 0.2) < 1e-15


def test_decide_boundary_belongs_to_povm():
    decision = decide(DiscriminatorConfig(2, 4 / 13))
    assert decision.regime is Regime.POVM
    assert abs(decision.c1_opt) < 1e-12
    assert abs(decision.c2_opt - 1.0) < 1e-12
    assert abs(decision.avg_success - 3 / 13) < 1e-12


def test_decide_degenerate_priors():
    sure2 = decide(DiscriminatorConfig(2, 0.0))
    assert sure2.regime is Regime.VON_NEUMANN_2
    assert abs(sure2.avg_success - 1 / 3) < 1e-15
    sure1 = decide(DiscriminatorConfig(2, 1.0))
    assert sure1.regime is Regime.VON_NEUMANN_1
    assert abs(sure1.avg_success - 1 / 3) < 1e-15


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=12), priors)
def test_decide_mirror_symmetry(n, eta1):
    low, high = validity_range(n)
    # a prior within an ulp of the window edge may mirror across it
    assume(min(abs(eta1 - low), abs(eta1 - high)) > 1e-9)
    a = decide(DiscriminatorConfig(n, eta1))
    b = decide(DiscriminatorConfig(n, 1.0 - eta1))
    mirror = {
        Regime.VON_NEUMANN_1: Regime.VON_NEUMANN_2,
        Regime.POVM: Regime.POVM,
        Regime.VON_NEUMANN_2: Regime.VON_NEUMANN_1,
    }
    assert b.regime is mirror[a.regime]
    assert abs(a.avg_success - b.avg_success) < 1e-12
    assert abs(a.c1_opt - b.c2_opt) < 1e-12
    assert abs(a.c2_opt - b.c1_opt) < 1e-12


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=10), priors)
def test_decide_stays_below_half(n, eta1):
    decision = decide(DiscriminatorConfig(n, eta1))
    assert decision.avg_success < 0.5
    if decision.regime is not Regime.POVM:
        bound = max(eta1, 1.0 - eta1) * n / (2 * (n + 1))
        assert decision.avg_success <= bound + 1e-15


def test_povm_dominates_inside_window():
    for n in (1, 2, 5, 8):
        low, high = validity_range(n)
        for i in range(1, 10):
            eta1 = low + (high - low) * i / 10
            povm = avg_success_povm(n, eta1)
            assert povm > avg_success_projective(n, eta1, 1)
            assert povm > avg_success_projective(n, eta1, 2)


def test_naive_povm_formula_bounds_projective_outside():
    # outside the window the stationary value is infeasible; it sits above
    # the corner optimum the projective branch returns
    for n in (1, 2, 5):
        low, high = validity_range(n)
        for eta1 in (0.0, low / 2, high + (1 - high) / 2, 1.0):
            winner = max(
                avg_success_projective(n, eta1, 1),
                avg_success_projective(n, eta1, 2),
            )
            assert avg_success_povm(n, eta1) >= winner - 1e-15


def test_decision_serialization():
    decision = decide(DiscriminatorConfig(3, 0.5))
    data = decision.to_dict()
    assert set(data) == {"n", "eta1", "regime", "c1", "c2", "avg_success"}
    assert data["regime"] == "povm"
    assert isinstance(decision, StrategyDecision)


def test_config_validation():
    with pytest.raises(ValueError):
        DiscriminatorConfig(0, 0.5)
    with pytest.raises(ValueError):
        DiscriminatorConfig(2, -0.01)
    with pytest.raises(ValueError):
        DiscriminatorConfig(2, float("nan"))


@pytest.mark.parametrize("n", [np.int64(3 * 10**9), np.int32(50_000), np.int64(7)])
def test_numpy_integer_copy_counts_match_python_ints(n):
    # n**2 wraps in a fixed-width integer (3e9 in int64 for 2 n^2, 5e4 in
    # int32), so every closed form must compute on the Python int
    exact = int(n)

    def results(m):
        return (
            validity_range(m),
            optimal_c(m, 0.5),
            optimal_c(m, validity_range(m)[0]),
            avg_success_povm(m, 0.3),
            avg_success_projective(m, 0.3, 2),
            avg_success_expression(m, 0.3, 0.4),
            constraint_c2(0.4, m),
            closed_form_extreme_eigenvalues(m, PovmParams(0.5, 0.5)),
            closed_form_extreme_eigenvalues(m, PovmParams(1.0, 0.25)),
            decide(DiscriminatorConfig(m, 0.5)).to_dict(),
            reduced_dim(m),
        )

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = results(n)
    assert got == results(exact)
    assert type(DiscriminatorConfig(n, 0.5).n) is int
    if exact == 3 * 10**9:
        low, high = closed_form_extreme_eigenvalues(n, PovmParams(0.5, 0.5))
        assert abs(low - 1 / (2 * (exact + 1))) < 1e-15 and abs(high - 1.0) < 1e-9
