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
not depend on it.  A call carves its O(rows) chunk buffers from one arena
in the first chunk, whatever n is, and every later chunk rewrites them
through `out=`, so memory is O(chunk) whatever the sample count, and a
fresh process faults the buffers in once rather than once per chunk.  A
chunk's amplitudes are (2, rows) stacks, qubit 1 in row 0 and qubit 2 in
row 1, which the pair kernel reads without joining them.  Per-pair success
probabilities are averaged exactly (no outcome sampling) except in
`simulate_outcomes`, which rolls individual measurement clicks and tallies
them chunk by chunk.  Every sampled pair also gets its leak into the wrong
element by explicit projection, O(sqrt(n)) per pair; the report carries the
worst one and the z-score of the mean against the analytic target.

The mean and standard error stream over fixed blocks of 2^15 consecutive
samples, merged in order by the update of Chan, Golub and LeVeque.  Up to
2^15 samples they are numpy's `np.mean` and `np.std(ddof=1)` bit for bit;
above, within a few ulps of them.  On a 2-core VM,
`uqd montecarlo --n 1 --samples 1000000` in a fresh process spends
0.13-0.15 s and about 1 k minor page faults in the sampling call
(0.19-0.31 s and 22 k with per-chunk temporaries).
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
    _Scratch,
)
from .strategy import DiscriminatorConfig, decide

_LEAK_TOL = 1e-10


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; identical seeds give identical streams."""
    _check_int("seed", seed, 0)
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _bloch_amplitudes(
    u: np.ndarray, v: np.ndarray, c=None, s=None, phi=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, s, phi) of Bloch-uniform qubits from uniforms on [0, 1), written
    into the arrays c, s and phi when given; c and s come out C-contiguous
    whatever the strides of u."""
    return (
        np.sqrt(u, out=c, order="C"),
        np.sqrt(np.subtract(1.0, u, out=s), out=s, order="C"),
        np.multiply(2 * math.pi, v, out=phi),
    )


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


# Rows per chunk.  A chunk's arrays are O(rows) vectors at any n, 2.4 MB at
# 8192 rows; they are allocated in the first chunk of a call and rewritten
# in place by every later one.
_CHUNK_ROWS = 8192

# Bytes per row of chunk buffers, which size each loop's arena: 72 for the
# draws and amplitudes, 226 for `povm._pair_terms` with its walk and 2 for
# the leak flags; 24 for the closed-form overlap; 35 for a shot's tally.
# A buffer that does not fit is allocated on its own, so a short count
# costs page faults, not correctness.
_AVERAGE_ROW_BYTES = 72 + 226 + 2
_OVERLAP_ROW_BYTES = 72 + 24
_SHOT_ROW_BYTES = 35


def _chunk_scratch(count: int, row_bytes: int) -> _Scratch:
    """Scratch for a loop over `count` rows: `row_bytes` per row of its
    first chunk, and 64 bytes to align each of up to 32 buffers."""
    return _Scratch(min(count, _CHUNK_ROWS) * row_bytes + 64 * 32)


def _pair_amplitude_chunks(
    seed: int, samples: int, scratch: _Scratch | None = None
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (rows, c, s, cos(phi1 - phi2)) chunk by chunk.

    c and s are C-contiguous (2, rows) stacks of half-angle amplitudes, row
    0 for qubit 1 (uniform columns 0 and 1) and row 1 for qubit 2 (columns 2
    and 3), each kind from one square root over both qubits.  Each chunk
    draws its (rows, 4) uniforms in turn from one generator, which
    reproduces the all-at-once table bit for bit: row i is sample i.  The
    arrays are buffers of `scratch` that the next chunk rewrites.
    """
    rng = make_rng(seed)
    scratch = scratch or _Scratch()
    for start in range(0, samples, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, samples)
        rows = stop - start
        u = rng.random(out=scratch("u", (rows, 4)))
        # phi = 2 pi v overwrites the v columns, which nothing reads again
        c, s, phi = _bloch_amplitudes(
            u[:, 0::2].T,
            u[:, 1::2].T,
            scratch("c", (2, rows)),
            scratch("s", (2, rows)),
            u[:, 1::2].T,
        )
        cos_delta = np.subtract(phi[0], phi[1], out=scratch("cos_delta", (rows,)))
        yield slice(start, stop), c, s, np.cos(cos_delta, out=cos_delta)


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


# Samples per block of the streamed moments.  Blocks are runs of sample
# indices, so they do not move with _CHUNK_ROWS.
_BLOCK = 2**15


class _BlockMoments:
    """Mean and standard error of a stream of values, with O(_BLOCK) memory.

    Values fill a block of _BLOCK consecutive samples.  A full block, and
    the last partial one, gives its mean by `np.add.reduce` and its sum of
    squared deviations by a second reduce over the deviations, squared in
    place.  Blocks merge in sample order by the pairwise update of Chan,
    Golub and LeVeque; the first block sets the state as it is.  So up to
    _BLOCK samples the result is numpy's own `np.mean` and
    `np.std(ddof=1)` arithmetic, bit for bit.
    """

    def __init__(self, samples: int) -> None:
        self._block = np.empty(min(samples, _BLOCK))
        self._fill = 0
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        while len(values):
            take = min(len(self._block) - self._fill, len(values))
            self._block[self._fill : self._fill + take] = values[:take]
            self._fill += take
            values = values[take:]
            if self._fill == len(self._block):
                self._merge()

    def _merge(self) -> None:
        block, count = self._block[: self._fill], self._fill
        self._fill = 0
        mean = np.add.reduce(block) / count
        block -= mean
        np.multiply(block, block, out=block)
        m2 = float(np.add.reduce(block))
        if self._count == 0:
            self._count, self._mean, self._m2 = count, float(mean), m2
            return
        total = self._count + count
        delta = float(mean) - self._mean
        self._mean += delta * count / total
        self._m2 += m2 + delta * delta * self._count * count / total
        self._count = total

    def mean_and_std_error(self) -> tuple[float, float]:
        if self._fill:
            self._merge()
        variance = self._m2 / (self._count - 1)
        return self._mean, math.sqrt(variance) / math.sqrt(self._count)


def mc_average_success(
    n: int, params: PovmParams, eta1: float, samples: int, seed: int
) -> McReport:
    """Average prior-weighted success over uniform qubit pairs.

    Each pair contributes its exact success probability, so the estimator
    targets (eta1 c1 + eta2 c2) n / (2(n+1)) directly.  error_events counts
    pairs whose cross-element leakage exceeds float tolerance; it must stay 0.
    n is capped at WALK_N_MAX.
    """
    n = _check_walk_size(n)
    _check_samples(samples)
    eta1 = _check_unit("eta1", eta1)
    scratch = _chunk_scratch(samples, _AVERAGE_ROW_BYTES)
    moments = _BlockMoments(samples)
    error_events = 0
    max_leak = 0.0
    for _, c, s, cos_delta in _pair_amplitude_chunks(seed, samples, scratch):
        p1, p2, leak1, leak2 = _pair_terms(n, params, c, s, cos_delta, scratch)
        over = scratch("over", c.shape, bool)
        np.greater(leak1, _LEAK_TOL, out=over[0])
        np.greater(leak2, _LEAK_TOL, out=over[1])
        error_events += int(np.count_nonzero(np.logical_or(over[0], over[1], out=over[0])))
        max_leak = max(max_leak, float(max(leak1.max(), leak2.max(), -leak1.min(), -leak2.min())))
        p1 *= eta1  # the weighted success eta1 p1 + (1 - eta1) p2
        p2 *= 1.0 - eta1
        p1 += p2
        moments.add(p1)

    mean, std_error = moments.mean_and_std_error()
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
    n = _check_copies(n)
    _check_samples(samples)
    scratch = _chunk_scratch(samples, _OVERLAP_ROW_BYTES)
    moments = _BlockMoments(samples)
    for _, c, s, cos_delta in _pair_amplitude_chunks(seed, samples, scratch):
        moments.add(_symmetric_overlap(n, c[0], s[0], c[1], s[1], cos_delta, scratch))
    return moments.mean_and_std_error()


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
    # 3 * (input 2) + click tallies both inputs in one bincount per chunk;
    # the chunks draw the rows of one (shots, 2) table in turn, so row i is
    # shot i, and the tallies add.
    rng = make_rng(seed)
    scratch = _chunk_scratch(shots, _SHOT_ROW_BYTES)
    tally = [0] * 6
    for start in range(0, shots, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, shots - start)
        u = rng.random(out=scratch("u", (rows, 2)))
        second = np.greater_equal(u[:, 0], config.eta1, out=scratch("second", (rows,), bool))
        # 0/1 bytes summed as uint8, then one cast to the index type
        outcome = np.multiply(second.view(np.uint8), 3, out=scratch("outcome", (rows,), np.uint8))
        edge_at = scratch("edge", (rows,))
        click = scratch("click", (rows,), bool)
        for edge in range(2):
            edge_at.fill(distributions[0][edge])
            np.copyto(edge_at, distributions[1][edge], where=second)
            np.greater_equal(u[:, 1], edge_at, out=click)
            outcome += click.view(np.uint8)
        labels = scratch("labels", (rows,), np.intp)
        np.copyto(labels, outcome)
        for k, count in enumerate(np.bincount(labels, minlength=6).tolist()):
            tally[k] += count
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
