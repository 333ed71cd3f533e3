"""Covariance-matrix toolkit for two-mode Gaussian states.

Conventions used throughout the package:

* shot-noise units (SNU): the vacuum has variance 1 in each quadrature,
* quadratures are interleaved as (X_A, P_A, X_B, P_B),
* a two-mode state is read through its 4x4 covariance matrix, or a stack
  (..., 4, 4) of them; every function here is pure and treats each
  stacked matrix with the same arithmetic as one matrix.

The source's physicality is one exact test on its two variances
(:func:`kerr_variances`); the states the package builds from it are
physical by construction (see :mod:`cvdistill.channel`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PHYS_TOL",
    "InvalidCovarianceError",
    "pt_symplectic_spectrum",
    "gaussian_log_negativity",
    "log_negativity_gradient",
    "pt_trace_norm",
    "kerr_variances",
]

# Physicality slack on the source's variance product (Vs * Va >= 1 - PHYS_TOL).
PHYS_TOL = 1e-9
# Allowed relative asymmetry of a covariance matrix before it is rejected.
SYMMETRY_TOL = 1e-10


class InvalidCovarianceError(ValueError):
    """Covariance matrix is not a valid symmetric (positive definite) matrix."""


def _check_covariance(covs: np.ndarray, positive_definite: bool = True) -> None:
    """Raise InvalidCovarianceError unless each matrix of ``covs`` (..., d, d) is a covariance.

    Positive definite means the smallest eigenvalue exceeds d * eps times the
    largest, the rank tolerance of ``numpy.linalg.matrix_rank``: a
    rank-deficient matrix whose zero eigenvalues round to tiny positive
    numbers is rejected, not passed on to give a NaN or meaningless result.
    A NaN or infinite entry is rejected too: ``scale``, each matrix's
    largest |entry|, is then NaN or inf, and every comparison with NaN is
    false. An empty stack passes.
    """
    scale = np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))
    if not scale.max(initial=1.0) < np.inf:
        raise InvalidCovarianceError("covariance matrix has a NaN or infinite entry")
    if np.any(np.abs(covs - np.swapaxes(covs, -1, -2)).max(axis=(-2, -1)) > SYMMETRY_TOL * scale):
        raise InvalidCovarianceError("covariance matrix is not symmetric")
    if positive_definite:
        eig = np.linalg.eigvalsh(covs)
        floor = covs.shape[-1] * np.finfo(float).eps * eig[..., -1]
        if np.any(eig[..., 0] <= floor):
            raise InvalidCovarianceError("covariance matrix is not positive definite")


# The two-mode symplectic form with mode B's block negated, read-only.
_PT_FORM = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]])
_PT_FORM.flags.writeable = False


def pt_symplectic_spectrum(covs):
    """Squared symplectic eigenvalues (nu_-^2, nu_+^2) of a two-mode partial transpose.

    ``covs`` is a 4x4 covariance [[A, C], [C^T, B]] or a stack (..., 4, 4).
    In closed form (Vidal and Werner 2002, PRA 65 032314; Serafini,
    Illuminati and De Siena 2004, J. Phys. B 37 L21),
    2 nu_+-^2 = D +- sqrt(D^2 - 4 det sigma) with D = det A + det B - 2 det C
    = -tr((W sigma)^2) / 2, where W (``_PT_FORM``) is the symplectic form with
    mode B's block negated, as flipping P_B does. nu_-^2 is taken as
    2 det sigma / (D + sqrt(D^2 - 4 det sigma)), free of the difference form's
    cancellation. Raises ValueError unless the matrices are 4x4, and
    InvalidCovarianceError unless they are symmetric positive definite.
    """
    covs = np.asarray(covs, dtype=float)
    if covs.shape[-2:] != (4, 4):
        raise ValueError(f"partial transpose needs two-mode (4x4) covariances, got {covs.shape}")
    _check_covariance(covs)
    delta = -0.5 * np.einsum("...jk,...kj", _PT_FORM @ covs, _PT_FORM @ covs)
    det = np.linalg.det(covs)
    upper = delta + np.sqrt(np.maximum(delta * delta - 4.0 * det, 0.0))
    return 2.0 * det / upper, 0.5 * upper


def gaussian_log_negativity(cov) -> float:
    """Gaussian logarithmic negativity of a two-mode state, in bits.

    -log2 of nu_-, the smaller symplectic eigenvalue of the partially
    transposed covariance (:func:`pt_symplectic_spectrum`). Not clamped at
    zero: a Gaussian fit to an unentangled mixture legitimately yields a
    negative number, and that number is meaningful for comparisons.
    """
    nu_minus_sq, _ = pt_symplectic_spectrum(cov)
    return float(-0.5 * np.log2(nu_minus_sq))


def log_negativity_gradient(cov) -> np.ndarray:
    """Gradient G of :func:`gaussian_log_negativity`: dLN = sum_jk G_jk dsigma_jk.

    G is symmetric, so an off-diagonal entry, which moves sigma_jk and
    sigma_kj together, has derivative 2 G_jk. From the closed form,
    d(nu_-^2) = (d det sigma - nu_-^2 dD) / (nu_+^2 - nu_-^2) with
    d det sigma = det(sigma) sigma^-1 : dsigma and dD = -W sigma W : dsigma.
    Undefined where nu_- = nu_+. A stack of covariances gives one gradient
    per matrix.
    """
    cov = np.asarray(cov, dtype=float)
    nu_minus_sq, nu_plus_sq = (nu[..., None, None] for nu in pt_symplectic_spectrum(cov))
    d_det = np.linalg.det(cov)[..., None, None] * np.linalg.inv(cov)
    d_nu_sq = (d_det + nu_minus_sq * (_PT_FORM @ cov @ _PT_FORM)) / (nu_plus_sq - nu_minus_sq)
    return d_nu_sq / (-2.0 * np.log(2.0) * nu_minus_sq)


def pt_trace_norm(covs):
    """Trace norm of the partially transposed two-mode Gaussian state, prod max(1, 1/nu).

    >= 1 always; log2 of it is the log-negativity when that is positive.
    A stack of covariances gives one norm per matrix.
    """
    return np.prod(np.maximum(1.0, np.stack(pt_symplectic_spectrum(covs)) ** -0.5), axis=0)


def kerr_variances(v_squeezed: float, v_antisqueezed: float) -> tuple:
    """(v_squeezed, v_antisqueezed) as floats, if they describe a physical Kerr source.

    Raises ValueError unless 0 < v_squeezed <= 1, v_antisqueezed is finite
    and >= 1, and v_squeezed * v_antisqueezed >= 1 - PHYS_TOL. This is the
    package's one physicality test: loss and the tap keep a state physical.
    """
    vs, va = float(v_squeezed), float(v_antisqueezed)
    if not 0.0 < vs <= 1.0:
        raise ValueError(f"v_squeezed must lie in (0, 1], got {vs}")
    if not 1.0 <= va < np.inf:
        raise ValueError(f"v_antisqueezed must be finite and >= 1, got {va}")
    if vs * va < 1.0 - PHYS_TOL:
        raise ValueError(
            f"v_squeezed * v_antisqueezed = {vs * va:.6g} violates the uncertainty relation"
        )
    return vs, va
