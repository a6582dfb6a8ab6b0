"""Operational tests that an alleged sampler behaves like the real device.

Three tests with very different costs and assumptions: a cheap witness that
separates the device's output from uniform noise, an in-situ round trip
through the network and its inverse, and the multi-photon suppression test on
the Fourier network, whose forbidden outputs are verified against brute-force
permanents before being relied on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import limits
from .distinguishability import Indistinguishability, prob_mismatch, sigma_table
from .errors import DimensionError
from .fock import _clicked_modes, _pattern_chunks, mode_indices
from .ideal_sampler import _squared_permanents, full_distribution
from .noise_model import DeviceConfig, click_pattern_prob
from .permanent import STACK
from .random_ensembles import as_matrix, fourier_matrix

SUPPRESSION_TOL = 1e-10


@dataclass(frozen=True)
class WitnessResult:
    """Decision of the row-norm witness with its calibration references."""

    sample_mean: float
    sample_se: float
    reference_uniform: float
    reference_device: float
    midpoint: float
    decision: str  # "bs-like" | "uniform-like" | "inconclusive"
    n_used: int
    n_rejected: int


def _witness_values(col_mass: np.ndarray, clicked: np.ndarray, modes: int, n: int) -> np.ndarray:
    # W = prod over clicked columns of (M/N) * (mass of the column over source rows)
    return np.prod((modes / n) * col_mass[clicked], axis=-1)


def _weighted_probs(sources: np.ndarray, col_mass: np.ndarray, chunks, probs: np.ndarray):
    """p W of each pattern of ``chunks`` in turn, p = |per(sources[:, T])|^2; each p is stored in ``probs``."""
    n, modes = sources.shape
    lo = 0
    for cols in chunks:
        p = probs[lo : lo + len(cols)]
        p[:] = _squared_permanents(sources, cols)
        yield from (p * _witness_values(col_mass, cols, modes, n)).tolist()
        lo += len(cols)


def row_norm_witness(u, n0: Sequence[int], samples) -> WitnessResult:
    """Classify samples as device output vs uniform noise.

    ``samples`` is a ``(count, modes)`` array of click patterns (a table with
    no rows may have any width), or a sequence of patterns.

    Each N-click sample m scores W(m) = prod_alpha (M/N) sum_{i<=N} |U_{i,l_alpha}|^2
    over its clicked columns; real device output is biased toward columns the
    source rows weight heavily, so E[W] sits above the uniform reference.
    Both references are means over the collision-free outputs only, the
    N-subsets T of the modes. The uniform one is in closed form: with
    c_l = (M/N) sum_(i<=N) |U_(i,l)|^2 it is e_N(c_1 ... c_M) / C(M, N),
    the elementary symmetric polynomial built by e_k += c_l e_(k-1) over the
    modes, whose terms never cancel. The device one is calibrated by exact
    enumeration at desk scale: the mean of W weighted by |per(U[rows, T])|^2,
    both sums exactly rounded (``math.fsum``). The subsets are read
    ``permanent.STACK`` at a time (``fock._pattern_chunks``); the weights
    are held, 8 bytes per subset, for the normalisation. Samples whose
    click count differs from N are rejected and counted.

    The call is inconclusive when the sample mean lies within two standard
    errors of the midpoint between the references.
    """
    m = as_matrix(u, n0)
    modes = m.shape[0]
    if any(int(k) not in (0, 1) for k in n0):
        raise ValueError("witness expects one photon per source mode (0/1 input)")
    rows = mode_indices(n0)
    n = len(rows)
    if n == 0:
        raise ValueError("n0 must contain at least one photon")
    limits.check("permanent_order", n, "permanent")  # before any pattern or permanent

    col_mass = np.abs(m[rows, :]) ** 2
    col_mass = col_mass.sum(axis=0)  # (modes,)

    if not isinstance(samples, np.ndarray):
        if any(len(s) != modes for s in samples):
            raise DimensionError("sample pattern length must equal the mode count")
        samples = np.array(samples, dtype=np.int64).reshape(len(samples), modes)
    elif samples.ndim != 2 or (len(samples) and samples.shape[1] != modes):
        raise DimensionError("sample pattern length must equal the mode count")
    clicks = samples.reshape(len(samples), modes) != 0
    kept = clicks[clicks.sum(axis=1) == n]
    n_used = len(kept)
    n_rejected = len(samples) - n_used

    # calibrate over the collision-free outputs, the N-subsets of the modes in lexicographic order
    chunks = _pattern_chunks(modes, n, STACK)  # refused over the pattern cap before any row is built
    p_cf = np.empty(math.comb(modes, n))
    ref_device = math.fsum(_weighted_probs(m[rows], col_mass, chunks, p_cf)) / math.fsum(p_cf)
    # the mean of W over every N-subset: e_N of the scaled column masses, e_k += c e_(k-1) over the modes
    e = np.zeros(n + 1)
    e[0] = 1.0
    for c in ((modes / n) * col_mass).tolist():
        e[1:] += c * e[:-1]
    ref_uniform = float(e[n]) / len(p_cf)
    midpoint = 0.5 * (ref_uniform + ref_device)

    if n_used == 0:
        return WitnessResult(math.nan, math.inf, ref_uniform, ref_device, midpoint,
                             "inconclusive", 0, n_rejected)
    w_samples = _witness_values(col_mass, _clicked_modes(kept, n), modes, n)
    mean = float(w_samples.mean())
    se = float(w_samples.std(ddof=1) / math.sqrt(n_used)) if n_used > 1 else math.inf

    if abs(mean - midpoint) <= 2.0 * se:
        decision = "inconclusive"
    elif (mean > midpoint) == (ref_device > midpoint):
        decision = "bs-like"
    else:
        decision = "uniform-like"
    return WitnessResult(mean, se, ref_uniform, ref_device, midpoint, decision,
                         n_used, n_rejected)


def unitarity_roundtrip(cfg: DeviceConfig) -> float:
    """Send the device input through the network and its inverse; score the return.

    The compound network is the exact matrix product U^dag U (numerically
    almost the identity, so floating-point defects of the supplied matrix
    propagate realistically). Returns the probability that the run produces
    exactly one click on each source mode and none elsewhere; 1 for a
    noise-free device, strictly below 1 with any dark counts.
    """
    u = cfg.matrix
    roundtrip = u.conj().T @ u
    cfg_back = dataclasses.replace(cfg, unitary=roundtrip)
    pattern = (1,) * cfg.n_sources + (0,) * (cfg.modes - cfg.n_sources)
    return click_pattern_prob(cfg_back, pattern)


@dataclass(frozen=True)
class SuppressionResult:
    """Outcome of the forbidden-output test on the Fourier network."""

    suppressed_mass: float
    law_violations: int
    n_suppressed: int
    law_valid: bool


def _dihedral_keys(outcomes: np.ndarray, n: int) -> np.ndarray:
    """The orbit of each N-mode outcome under the dihedral group D_N, as one integer key.

    D_N acts on the modes by l -> l + c and l -> c - l (mod N). An outcome's
    code reads its occupation vector as base-(N + 1) digits; its key is the
    least code over the 2N images, so two outcomes share a key exactly when
    they share an orbit.
    """
    digits = (n + 1) ** np.arange(n)
    l = np.arange(n)
    images = [(l + c) % n for c in range(n)] + [(c - l) % n for c in range(n)]
    return np.min([outcomes[:, image] @ digits for image in images], axis=0)


def suppression_test(n: int, indist: Indistinguishability) -> SuppressionResult:
    """Total probability leaking into the forbidden outputs of the Fourier network.

    With one photon in each of the N modes of the N-mode Fourier network, the
    cyclic symmetry forces zero probability on every output s whose weighted
    mode sum fails sum_l (l-1) s_l = 0 (mod N). The candidate law is not
    assumed: each flagged output is first checked to have (numerically) zero
    ideal probability, and any violation invalidates the law for this
    instance instead of proceeding. With imperfect indistinguishability the
    flagged outputs leak mass, which is what is returned.

    The leaked mass is summed over orbits of the dihedral group D_N acting
    on the output modes (Tichy, Mayer, Buchleitner & Molmer, PRL 113, 020502
    (2014)): a cyclic shift multiplies the rows of the Fourier submatrix by
    phases that cancel in every term of ``prob_mismatch``, and the reflection
    conjugates each term's permanent, so the mismatch probability is constant
    on an orbit and the flagged set is a union of orbits. Each flagged orbit
    costs one ``prob_mismatch`` call, weighted by its size. The symmetry is
    checked too: every output's ideal probability must agree with its orbit
    representative's to ``SUPPRESSION_TOL``, and each output that does not
    counts as a violation.
    """
    if n < 1:
        raise ValueError("n must be positive")
    sigmas = sigma_table(n, indist)  # its photon cap refuses before any table is built
    u = fourier_matrix(n)
    n0 = (1,) * n

    ideal = full_distribution(u, n0)
    flagged = (ideal.outcomes @ np.arange(n)) % n != 0
    n_flagged = int(np.count_nonzero(flagged))
    # first[k]: the representative of orbit k, the first of its outputs in the table
    _, first, orbit, size = np.unique(_dihedral_keys(ideal.outcomes, n), return_index=True,
                                      return_inverse=True, return_counts=True)
    unequal = np.abs(ideal.probs - ideal.probs[first][orbit]) > SUPPRESSION_TOL
    violations = int(np.count_nonzero((flagged & (ideal.probs > SUPPRESSION_TOL)) | unequal))
    if violations:
        return SuppressionResult(math.nan, violations, n_flagged, False)

    leaking = np.flatnonzero(flagged[first])
    outputs = ideal.outcomes[first[leaking]].tolist()
    mass = math.fsum(int(size[k]) * prob_mismatch(u, n0, s, indist, sigmas=sigmas)
                     for k, s in zip(leaking, outputs))
    return SuppressionResult(mass, 0, n_flagged, True)
