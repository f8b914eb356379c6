"""Monte Carlo validation of the analytic averages.

Program qubits are drawn uniformly from the Bloch sphere (cos(theta) uniform
on [-1, 1], phi uniform on [0, 2 pi)) using a counter-based Philox stream.
Draws are taken chunk by chunk from one generator, row-major, so sample i
consumes row i of the draw table whatever the chunk size: seeded results do
not depend on it.  Per-pair success probabilities are averaged exactly (no
outcome sampling) except in `simulate_outcomes`, which rolls individual
measurement clicks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .povm import PovmParams, batch_success_probabilities, symmetric_overlap_batch
from .symmetric import BlochQubit, _check_copies
from .strategy import DiscriminatorConfig, decide

_LEAK_TOL = 1e-10


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; identical seeds give identical streams."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(key=int(seed)))


def sample_qubit(rng: np.random.Generator) -> BlochQubit:
    """One Bloch-uniform qubit."""
    cos_theta = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2 * math.pi)
    return BlochQubit(math.acos(cos_theta), phi)


def _chunk_rows(n: int) -> int:
    """Rows per chunk: 8192, cut so that (rows, n+2) temporaries stay near 8 MB."""
    return min(8192, max(1, 2**20 // (n + 2)))


def _pair_angle_chunks(
    n: int, seed: int, samples: int
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (rows, theta1, phi1, theta2, phi2) chunk by chunk.

    Each chunk draws its (rows, 4) uniforms in turn from one generator, which
    reproduces the all-at-once table bit for bit: row i is sample i.
    """
    rng = make_rng(seed)
    step = _chunk_rows(n)
    for start in range(0, samples, step):
        stop = min(start + step, samples)
        u = rng.random((stop - start, 4))
        yield (
            slice(start, stop),
            np.arccos(2.0 * u[:, 0] - 1.0),
            2 * math.pi * u[:, 1],
            np.arccos(2.0 * u[:, 2] - 1.0),
            2 * math.pi * u[:, 3],
        )


@dataclass(frozen=True)
class McReport:
    """Sampled average with its standard error and the analytic target."""

    samples: int
    mean_success: float
    std_error: float
    analytic: float
    error_events: int

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "mean_success": self.mean_success,
            "std_error": self.std_error,
            "analytic": self.analytic,
            "error_events": self.error_events,
        }


def _check_samples(samples: int) -> None:
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1000:
        raise ValueError(f"samples must be at least 1000, got {samples}")


def mc_average_success(
    n: int, params: PovmParams, eta1: float, samples: int, seed: int
) -> McReport:
    """Average prior-weighted success over uniform qubit pairs.

    Each pair contributes its exact success probability, so the estimator
    targets (eta1 c1 + eta2 c2) n / (2(n+1)) directly.  error_events counts
    pairs whose cross-element leakage exceeds float tolerance; it must stay 0.
    """
    _check_copies(n)
    _check_samples(samples)
    if not 0.0 <= eta1 <= 1.0 or math.isnan(eta1):
        raise ValueError(f"eta1 must lie in [0, 1], got {eta1!r}")
    weighted = np.empty(samples)
    error_events = 0
    for sl, theta1, phi1, theta2, phi2 in _pair_angle_chunks(n, seed, samples):
        p1, p2, leak1, leak2 = batch_success_probabilities(
            n, params, theta1, phi1, theta2, phi2
        )
        weighted[sl] = eta1 * p1 + (1.0 - eta1) * p2
        error_events += int(np.count_nonzero((leak1 > _LEAK_TOL) | (leak2 > _LEAK_TOL)))

    mean = float(np.mean(weighted))
    if samples > 1:
        std_error = float(np.std(weighted, ddof=1) / math.sqrt(samples))
    else:
        std_error = 0.0
    analytic = (eta1 * params.c1 + (1.0 - eta1) * params.c2) * n / (2 * (n + 1))
    return McReport(
        samples=samples,
        mean_success=mean,
        std_error=std_error,
        analytic=analytic,
        error_events=error_events,
    )


def _projector_mean_stats(n: int, samples: int, seed: int) -> tuple[float, float]:
    """(mean, standard error) of the symmetric overlap over uniform pairs."""
    _check_copies(n)
    _check_samples(samples)
    overlaps = np.empty(samples)
    for sl, theta1, phi1, theta2, phi2 in _pair_angle_chunks(n, seed, samples):
        overlaps[sl] = symmetric_overlap_batch(n, theta1, phi1, theta2, phi2)
    mean = float(np.mean(overlaps))
    std_error = float(np.std(overlaps, ddof=1) / math.sqrt(samples))
    return mean, std_error


def mc_projector_mean(n: int, samples: int, seed: int) -> float:
    """Monte Carlo mean of the block-plus-tail symmetric overlap; converges
    to (n+2) / (2(n+1))."""
    return _projector_mean_stats(n, samples, seed)[0]


@dataclass(frozen=True)
class OutcomeCounts:
    """Click tallies from sampled measurement shots.

    identify1 + identify2 + fail = shots.  error_events counts clicks that
    contradict the true preparation (such shots still land in an identify
    bucket); unambiguity demands it stay 0.
    """

    identify1: int
    identify2: int
    fail: int
    shots: int
    error_events: int = 0

    def to_dict(self) -> dict:
        return {
            "identify1": self.identify1,
            "identify2": self.identify2,
            "fail": self.fail,
            "shots": self.shots,
            "error_events": self.error_events,
        }


def simulate_outcomes(
    psi1: BlochQubit,
    psi2: BlochQubit,
    config: DiscriminatorConfig,
    shots: int,
    seed: int,
) -> OutcomeCounts:
    """Sample measurement shots of the decide-optimal strategy on a fixed
    qubit pair; preparations are drawn from the prior each shot."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
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
    # (identify1, identify2, fail) for input 1, then for input 2.
    distributions = []
    for probs in ((p1, leak1, 1.0 - p1 - leak1), (leak2, p2, 1.0 - leak2 - p2)):
        probs = np.array(probs)
        if probs.min() < -1e-10:
            raise RuntimeError(f"negative outcome probability in {probs.tolist()!r}")
        probs = np.clip(probs, 0.0, None)
        distributions.append(np.cumsum(probs / probs.sum()))

    u = make_rng(seed).random((shots, 2))
    labels = np.where(u[:, 0] < config.eta1, 1, 2)
    outcomes = np.empty(shots, dtype=int)
    for which, cumulative in zip((1, 2), distributions):
        mask = labels == which
        outcomes[mask] = np.searchsorted(cumulative, u[mask, 1], side="right")
    outcomes = np.minimum(outcomes, 2)  # guard the u == 1.0 edge

    identify1 = int(np.count_nonzero(outcomes == 0))
    identify2 = int(np.count_nonzero(outcomes == 1))
    fail = int(np.count_nonzero(outcomes == 2))
    error_events = int(
        np.count_nonzero(((outcomes == 0) & (labels == 2)) | ((outcomes == 1) & (labels == 1)))
    )
    return OutcomeCounts(
        identify1=identify1,
        identify2=identify2,
        fail=fail,
        shots=shots,
        error_events=error_events,
    )
