"""Synthetic signals, measurement noise and the error metric."""

from __future__ import annotations

import math

import numpy as np

from ..blocks import BlockStructure, BlockVector, HiSparsity
from ..ensembles import as_rng, complex_gaussian
from ..errors import DimensionError


def generate_signal(structure: BlockStructure, k: HiSparsity, seed) -> BlockVector:
    """Plant a random (s, sigma)-sparse signal in `structure`.

    s active blocks are chosen uniformly; inside each, sigma_i positions
    are chosen uniformly and filled with i.i.d. standard complex Gaussian
    values.  A prior that confines each block to a window of its first
    coordinates is the structure of the window lengths: the block
    detection draws its signal there and zero-pads it to the full blocks.
    """
    k.validate_for(structure)
    rng = as_rng(seed)
    active = np.sort(rng.choice(structure.num_blocks, size=k.s, replace=False))
    x = BlockVector.zeros(structure)
    for i in active:
        i = int(i)
        sig = k.sigma[i]
        pos = np.sort(rng.choice(structure.block_sizes[i], size=sig, replace=False))
        x.block(i)[pos] = complex_gaussian(rng, sig)
    return x


def _noiseless(snr_db: float) -> bool:
    """True for the +inf sentinel; nan and -inf raise ValueError."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    return snr_db == math.inf


def _noise_variance(y: np.ndarray, snr_db: float) -> float:
    """The per-entry noise variance ||y||^2 / (len(y) * 10^(snr_db/10)) of
    the measurement y at a finite snr_db: SNR is set per measurement entry,
    so the expected total noise energy is ||y||^2 * 10^(-snr_db/10)."""
    y = np.asarray(y).reshape(-1)
    return float(np.vdot(y, y).real) / (y.size * 10.0 ** (snr_db / 10.0))


def add_noise(y: np.ndarray, snr_db: float, seed) -> np.ndarray:
    """Add complex Gaussian noise of variance _noise_variance(y, snr_db) to
    each entry.  snr_db = inf is the noiseless sentinel; nan and -inf are
    rejected, and so is a finite SNR on a zero signal.
    """
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if _noiseless(snr_db):
        return y.copy()
    var = _noise_variance(y, snr_db)
    if var == 0.0:
        raise ValueError("cannot set a finite SNR on a zero signal")
    rng = as_rng(seed)
    return y + math.sqrt(var) * complex_gaussian(rng, y.size)


def noise_floor(y_clean: np.ndarray, snr_db: float, x_true: BlockVector) -> float:
    """Per-entry noise variance used as the success threshold for the MSE.

    For a finite SNR this is the variance of the measurement noise added by
    add_noise; in the noiseless case it degenerates to zero, so a relative
    floor of 1e-12 times the mean signal power stands in for it.  snr_db
    nan and -inf are rejected as in add_noise.
    """
    if _noiseless(snr_db):
        return 1e-12 * float(np.mean(np.abs(x_true.coeffs) ** 2))
    return _noise_variance(y_clean, snr_db)


def mse(x: BlockVector, xhat: BlockVector) -> float:
    """Mean squared error (1/dim) * sum |x_k - xhat_k|^2."""
    if x.structure != xhat.structure:
        raise DimensionError("block structures differ")
    diff = x.coeffs - xhat.coeffs
    return float(np.vdot(diff, diff).real) / x.structure.total_dim


def detection_rate(true_active, estimated_active, s: int) -> float:
    """Fraction of the s true active blocks present in the estimate."""
    return len(set(true_active) & set(estimated_active)) / s
