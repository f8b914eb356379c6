"""Monte Carlo validation of the analytic averages.

Program qubits are drawn uniformly from the Bloch sphere using a
counter-based Philox stream.  One map turns two uniforms (u, v) into a qubit:
cos(theta) = 2u - 1 is uniform on [-1, 1] exactly when cos^2(theta/2) = u is
uniform on [0, 1], so the half-angle amplitudes are c = sqrt(u) and
s = sqrt(1 - u), and phi = 2 pi v.  The sampled averages therefore need no
arccos and no trigonometry of theta; `sample_qubit` and `sample_qubits` go
through the same map and recover theta = 2 atan2(s, c).

Draws are taken chunk by chunk from one generator, row-major, so sample i
consumes row i of the draw table whatever the chunk size: seeded results do
not depend on it.  Each chunk holds O(rows) temporaries whatever n is, so
the chunk size is a constant.  A chunk's amplitudes are (2, rows) stacks,
qubit 1 in row 0 and qubit 2 in row 1, which the pair kernel reads without
joining them.  Per-pair success probabilities are averaged exactly (no
outcome sampling) except in `simulate_outcomes`, which rolls individual
measurement clicks and tallies them in one pass.  Every sampled pair also
gets its leak into the wrong element by explicit projection, O(sqrt(n)) per
pair; the report carries the worst one and the z-score of the mean against
the analytic target.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .povm import (
    PovmParams,
    _pair_terms,
    _symmetric_overlap,
    batch_success_probabilities,
)
from .symmetric import (
    BlochQubit,
    _check_copies,
    _check_int,
    _check_unit,
    _check_walk_size,
)
from .strategy import DiscriminatorConfig, decide

_LEAK_TOL = 1e-10


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; identical seeds give identical streams."""
    _check_int("seed", seed, 0)
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _bloch_amplitudes(
    u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, s, phi) of Bloch-uniform qubits from uniforms on [0, 1); c and s
    come out C-contiguous whatever the strides of u."""
    return np.sqrt(u, order="C"), np.sqrt(1.0 - u, order="C"), 2 * math.pi * v


def sample_qubit(rng: np.random.Generator) -> BlochQubit:
    """One Bloch-uniform qubit."""
    return sample_qubits(rng, 1)[0]


def sample_qubits(rng: np.random.Generator, count: int) -> list[BlochQubit]:
    """`count` Bloch-uniform qubits from one (count, 2) draw table: the same
    stream, and the same qubits, as `count` calls of `sample_qubit`, since
    row i of the table is the pair of draws of call i."""
    u = rng.random((count, 2))
    c, s, phi = _bloch_amplitudes(u[:, 0], u[:, 1])
    return [
        BlochQubit(2 * math.atan2(si, ci), p)
        for ci, si, p in zip(c.tolist(), s.tolist(), phi.tolist())
    ]


# Rows per chunk.  A chunk's temporaries are O(rows) vectors at any n, so
# 8192 rows keep them near a megabyte.
_CHUNK_ROWS = 8192


def _pair_amplitude_chunks(
    seed: int, samples: int
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (rows, c, s, cos(phi1 - phi2)) chunk by chunk.

    c and s are C-contiguous (2, rows) stacks of half-angle amplitudes, row
    0 for qubit 1 (uniform columns 0 and 1) and row 1 for qubit 2 (columns 2
    and 3), each kind from one square root over both qubits.  Each chunk
    draws its (rows, 4) uniforms in turn from one generator, which
    reproduces the all-at-once table bit for bit: row i is sample i.
    """
    rng = make_rng(seed)
    for start in range(0, samples, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, samples)
        u = rng.random((stop - start, 4))
        c, s, phi = _bloch_amplitudes(u[:, 0::2].T, u[:, 1::2].T)
        yield slice(start, stop), c, s, np.cos(phi[0] - phi[1])


@dataclass(frozen=True)
class McReport:
    """Sampled average with its standard error and the analytic target.

    max_leak is the largest |leak| into the wrong element over all samples;
    z_score is (mean_success - analytic) / std_error, None when std_error is 0.
    """

    samples: int
    mean_success: float
    std_error: float
    analytic: float
    error_events: int
    max_leak: float
    z_score: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _check_samples(samples: int) -> None:
    _check_int("samples", samples, 1000)


def _mean_and_std_error(values: np.ndarray) -> tuple[float, float]:
    """(mean, standard error) of `values`, which it overwrites.

    This is numpy's own `np.std(ddof=1)` arithmetic, so the result is
    bit-identical, with the deviations from the mean taken and squared in
    place: no temporary of the array's size is made.
    """
    samples = len(values)
    mean = float(np.mean(values))
    values -= np.add.reduce(values, keepdims=True) / samples
    np.multiply(values, values, out=values)
    variance = np.add.reduce(values) / (samples - 1)
    return mean, float(np.sqrt(variance) / math.sqrt(samples))


def mc_average_success(
    n: int, params: PovmParams, eta1: float, samples: int, seed: int
) -> McReport:
    """Average prior-weighted success over uniform qubit pairs.

    Each pair contributes its exact success probability, so the estimator
    targets (eta1 c1 + eta2 c2) n / (2(n+1)) directly.  error_events counts
    pairs whose cross-element leakage exceeds float tolerance; it must stay 0.
    n is capped at WALK_N_MAX.
    """
    _check_walk_size(n)
    _check_samples(samples)
    eta1 = _check_unit("eta1", eta1)
    weighted = np.empty(samples)
    error_events = 0
    max_leak = 0.0
    for sl, c, s, cos_delta in _pair_amplitude_chunks(seed, samples):
        p1, p2, leak1, leak2 = _pair_terms(n, params, c, s, cos_delta)
        weighted[sl] = eta1 * p1 + (1.0 - eta1) * p2
        error_events += int(np.count_nonzero((leak1 > _LEAK_TOL) | (leak2 > _LEAK_TOL)))
        max_leak = max(max_leak, float(max(leak1.max(), leak2.max(), -leak1.min(), -leak2.min())))

    mean, std_error = _mean_and_std_error(weighted)
    analytic = (eta1 * params.c1 + (1.0 - eta1) * params.c2) * n / (2 * (n + 1))
    return McReport(
        samples=samples,
        mean_success=mean,
        std_error=std_error,
        analytic=analytic,
        error_events=error_events,
        max_leak=max_leak,
        z_score=(mean - analytic) / std_error if std_error > 0 else None,
    )


def _projector_mean_stats(n: int, samples: int, seed: int) -> tuple[float, float]:
    """(mean, standard error) of the symmetric overlap over uniform pairs."""
    _check_copies(n)
    _check_samples(samples)
    overlaps = np.empty(samples)
    for sl, c, s, cos_delta in _pair_amplitude_chunks(seed, samples):
        overlaps[sl] = _symmetric_overlap(n, c[0], s[0], c[1], s[1], cos_delta)
    return _mean_and_std_error(overlaps)


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
        return asdict(self)


def simulate_outcomes(
    psi1: BlochQubit,
    psi2: BlochQubit,
    config: DiscriminatorConfig,
    shots: int,
    seed: int,
) -> OutcomeCounts:
    """Sample measurement shots of the decide-optimal strategy on a fixed
    qubit pair; preparations are drawn from the prior each shot."""
    _check_int("shots", shots, 1)
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

    # A shot is input 2 when u0 >= eta1.  Its click is the number of its
    # cumulative edges at or below u1, as searchsorted(side="right") counts
    # them, capped at 2: the edges are sorted, so a third edge below u1
    # (the total rounded under 1) adds nothing past the first two.  Outcome
    # 3 * (input 2) + click tallies both inputs in one bincount.
    u = make_rng(seed).random((shots, 2))
    second = u[:, 0] >= config.eta1
    outcome = 3 * second
    for edge in range(2):
        outcome += u[:, 1] >= np.where(second, distributions[1][edge], distributions[0][edge])
    tally = np.bincount(outcome, minlength=6).tolist()
    identify1 = tally[0] + tally[3]
    identify2 = tally[1] + tally[4]
    fail = tally[2] + tally[5]
    error_events = tally[1] + tally[3]
    return OutcomeCounts(
        identify1=identify1,
        identify2=identify2,
        fail=fail,
        shots=shots,
        error_events=error_events,
    )
