"""Covariance-matrix toolkit for multimode Gaussian states.

Conventions used throughout the package:

* shot-noise units (SNU): the vacuum has variance 1 in each quadrature,
* quadratures are interleaved as (X1, P1, X2, P2, ...),
* a Gaussian state is fully specified by its mean vector and covariance
  matrix; all operations here are pure functions returning new states,
* a ``GaussianState`` may stack L states of one mode count (a mixture's
  components), ``mean`` (L, 2n) and ``cov`` (L, 2n, 2n); ``tensor``,
  ``apply_loss``, ``apply_beamsplitter``, ``symplectic_eigenvalues`` and
  ``validate_physical`` treat each stacked state with the same arithmetic
  as one state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PHYS_TOL",
    "InvalidCovarianceError",
    "GaussianState",
    "vacuum_state",
    "squeezed_state",
    "tensor",
    "symplectic_form",
    "symplectic_eigenvalues",
    "validate_physical",
    "pt_symplectic_spectrum",
    "gaussian_log_negativity",
    "log_negativity_gradient",
    "pt_trace_norm",
    "apply_beamsplitter",
    "apply_loss",
    "kerr_variances",
    "make_kerr_entangled",
]

# Physicality slack on symplectic eigenvalues (nu >= 1 - PHYS_TOL).
PHYS_TOL = 1e-9
# Allowed relative asymmetry of a covariance matrix before it is rejected.
SYMMETRY_TOL = 1e-10


class InvalidCovarianceError(ValueError):
    """Covariance matrix is not a valid symmetric (positive definite) matrix."""


@dataclass(eq=False)
class GaussianState:
    """Gaussian state of ``n_modes`` modes in shot-noise units.

    Parameters
    ----------
    mean : array, shape (2n,) or (L, 2n)
        Quadrature expectation values, ordered (X1, P1, ..., Xn, Pn); a
        leading axis stacks L states.
    cov : array, shape (2n, 2n) or (L, 2n, 2n)
        Symmetric covariance matrix, or one per stacked state. It is
        symmetrized on construction; asymmetry beyond a small tolerance is
        rejected.

    Physicality (uncertainty relation) is not enforced by the constructor
    so that :func:`validate_physical` stays a usable predicate; every state
    factory and channel operation in this package preserves it.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim not in (1, 2):
            raise ValueError(f"mean must be a vector or a stack of vectors, got shape {mean.shape}")
        dim = mean.shape[-1]
        if dim % 2 != 0 or dim == 0:
            raise ValueError(f"mean length must be a positive multiple of 2, got {dim}")
        if cov.shape != mean.shape + (dim,):
            raise ValueError(f"cov shape {cov.shape} does not match mean shape {mean.shape}")
        _check_covariance(cov, positive_definite=False)
        self.mean = mean
        self.cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))

    @property
    def n_modes(self) -> int:
        return self.mean.shape[-1] // 2


def vacuum_state(n_modes: int) -> GaussianState:
    """Vacuum of ``n_modes`` modes: zero mean, identity covariance."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def squeezed_state(var_x: float, var_p: float) -> GaussianState:
    """Single-mode state with uncorrelated quadrature variances (var_x, var_p).

    Physical (a minimum-uncertainty or noisier state) iff var_x * var_p >= 1.
    """
    if var_x <= 0 or var_p <= 0:
        raise ValueError("quadrature variances must be positive")
    if var_x * var_p < 1.0 - PHYS_TOL:
        raise ValueError(f"var_x*var_p = {var_x * var_p:.6g} violates the uncertainty relation")
    return GaussianState(np.zeros(2), np.diag([float(var_x), float(var_p)]))


def tensor(*states: GaussianState) -> GaussianState:
    """Tensor product: concatenate means, block-diagonal covariances (stacked if a factor is)."""
    if not states:
        raise ValueError("tensor requires at least one state")
    lead = max((s.mean.shape[:-1] for s in states), key=len)
    dim = sum(s.mean.shape[-1] for s in states)
    mean = np.empty(lead + (dim,))
    cov = np.zeros(lead + (dim, dim))
    k = 0
    for s in states:
        d = s.mean.shape[-1]
        mean[..., k : k + d] = s.mean
        cov[..., k : k + d, k : k + d] = s.cov
        k += d
    return GaussianState(mean, cov)


@functools.lru_cache(maxsize=None)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form: block diagonal [[0, 1], [-1, 0]] per mode.

    Built once per mode count and returned read-only.
    """
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.flags.writeable = False
    return omega


def _as_cov(state_or_cov) -> np.ndarray:
    if isinstance(state_or_cov, GaussianState):
        return state_or_cov.cov
    cov = np.asarray(state_or_cov, dtype=float)
    if cov.ndim not in (2, 3) or cov.shape[-1] != cov.shape[-2] or cov.shape[-1] % 2 != 0:
        raise InvalidCovarianceError(f"expected a 2n x 2n matrix or a stack, got shape {cov.shape}")
    return cov


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


def symplectic_eigenvalues(cov) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    The values are the moduli of the eigenvalues of i*Omega*cov, each
    counted once (one per mode). For a physical state all values are >= 1.
    A stack of L matrices gives one spectrum per matrix, (L, n).

    Raises
    ------
    InvalidCovarianceError
        If the matrix is not symmetric or not positive definite.
    """
    cov = _as_cov(cov)
    _check_covariance(cov)
    n = cov.shape[-1] // 2
    spectrum = np.linalg.eigvals(symplectic_form(n) @ cov)
    # Eigenvalues of Omega*cov come in +/- i*nu pairs; |.| yields each nu twice.
    paired = np.sort(np.abs(spectrum), axis=-1)
    return paired[..., ::2].copy()


def validate_physical(state_or_cov, tol: float = PHYS_TOL):
    """True iff the covariance matrix satisfies the uncertainty relation.

    Checks min symplectic eigenvalue >= 1 - tol; never raises on an
    unphysical input, only on a malformed matrix. A stack gives one bool
    per state, as an array.
    """
    ok = symplectic_eigenvalues(state_or_cov).min(axis=-1) >= 1.0 - tol
    return bool(ok) if ok.ndim == 0 else ok


_PT_FORM = symplectic_form(2) * np.array([1.0, 1.0, -1.0, -1.0])


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


def gaussian_log_negativity(state_or_cov) -> float:
    """Gaussian logarithmic negativity of a two-mode state, in bits.

    -log2 of nu_-, the smaller symplectic eigenvalue of the partially
    transposed covariance (:func:`pt_symplectic_spectrum`). Not clamped at
    zero: a Gaussian fit to an unentangled mixture legitimately yields a
    negative number, and that number is meaningful for comparisons.
    """
    nu_minus_sq, _ = pt_symplectic_spectrum(_as_cov(state_or_cov))
    return float(-0.5 * np.log2(nu_minus_sq))


def log_negativity_gradient(state_or_cov) -> np.ndarray:
    """Gradient G of :func:`gaussian_log_negativity`: dLN = sum_jk G_jk dsigma_jk.

    G is symmetric, so an off-diagonal entry, which moves sigma_jk and
    sigma_kj together, has derivative 2 G_jk. From the closed form,
    d(nu_-^2) = (d det sigma - nu_-^2 dD) / (nu_+^2 - nu_-^2) with
    d det sigma = det(sigma) sigma^-1 : dsigma and dD = -W sigma W : dsigma.
    Undefined where nu_- = nu_+. A stack of covariances gives one gradient
    per matrix.
    """
    cov = _as_cov(state_or_cov)
    nu_minus_sq, nu_plus_sq = (nu[..., None, None] for nu in pt_symplectic_spectrum(cov))
    d_det = np.linalg.det(cov)[..., None, None] * np.linalg.inv(cov)
    d_nu_sq = (d_det + nu_minus_sq * (_PT_FORM @ cov @ _PT_FORM)) / (nu_plus_sq - nu_minus_sq)
    return d_nu_sq / (-2.0 * np.log(2.0) * nu_minus_sq)


def pt_trace_norm(state_or_covs):
    """Trace norm of the partially transposed two-mode Gaussian state, prod max(1, 1/nu).

    >= 1 always; log2 of it is the log-negativity when that is positive.
    A stack of covariances gives one norm per matrix.
    """
    covs = state_or_covs.cov if isinstance(state_or_covs, GaussianState) else state_or_covs
    return np.prod(np.maximum(1.0, np.stack(pt_symplectic_spectrum(covs)) ** -0.5), axis=0)


def _beamsplitter_symplectic(n_modes: int, mode_a: int, mode_b: int, transmittance: float) -> np.ndarray:
    t = np.sqrt(transmittance)
    r = np.sqrt(1.0 - transmittance)
    s = np.eye(2 * n_modes)
    ax, bx = 2 * mode_a, 2 * mode_b
    for off in (0, 1):  # same mixing for X and P
        s[bx + off, bx + off] = t
        s[bx + off, ax + off] = -r
        s[ax + off, ax + off] = t
        s[ax + off, bx + off] = r
    return s


def apply_beamsplitter(
    state: GaussianState, mode_a: int, mode_b: int, transmittance: float
) -> GaussianState:
    """Interfere two modes on a beam splitter of given transmittance.

    Sign convention (mode_b is the transmitted signal, mode_a the other
    input, e.g. a vacuum tap port):

        X_b' = sqrt(T) X_b - sqrt(1-T) X_a
        X_a' = sqrt(T) X_a + sqrt(1-T) X_b

    and identically for the P quadratures. A stacked state is transformed
    state by state.
    """
    n = state.n_modes
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    for m in (mode_a, mode_b):
        if not 0 <= m < n:
            raise ValueError(f"mode index {m} out of range for {n} modes")
    s = _beamsplitter_symplectic(n, mode_a, mode_b, transmittance)
    return GaussianState((s @ state.mean[..., None])[..., 0], s @ state.cov @ s.T)


def apply_loss(state: GaussianState, mode: int, eta) -> GaussianState:
    """Pure attenuation of one mode with transmittance eta.

    Equivalent to mixing the mode with vacuum on a beam splitter of
    transmittance eta and discarding the ancilla: the mode's covariance
    block becomes eta*block + (1-eta)*I, cross blocks scale by sqrt(eta),
    and the mode's mean scales by sqrt(eta). ``eta`` is one transmittance
    or an (L,) array of them, which gives a stack of L states.
    """
    n = state.n_modes
    eta = np.asarray(eta, dtype=float)
    if eta.ndim > 1 or not np.all((0.0 <= eta) & (eta <= 1.0)):
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if not 0 <= mode < n:
        raise ValueError(f"mode index {mode} out of range for {n} modes")
    scale = np.ones(eta.shape + (2 * n,))
    scale[..., 2 * mode : 2 * mode + 2] = np.sqrt(eta)[..., None]
    cov = state.cov * (scale[..., :, None] * scale[..., None, :])
    cov[..., 2 * mode, 2 * mode] += 1.0 - eta
    cov[..., 2 * mode + 1, 2 * mode + 1] += 1.0 - eta
    mean = state.mean * scale
    return GaussianState(mean, cov)


def kerr_variances(v_squeezed: float, v_antisqueezed: float) -> tuple:
    """(v_squeezed, v_antisqueezed) as floats, if they describe a physical Kerr source.

    Raises ValueError unless 0 < v_squeezed <= 1, v_antisqueezed >= 1 and
    v_squeezed * v_antisqueezed >= 1 - PHYS_TOL.
    """
    vs, va = float(v_squeezed), float(v_antisqueezed)
    if not 0.0 < vs <= 1.0:
        raise ValueError(f"v_squeezed must lie in (0, 1], got {vs}")
    if va < 1.0:
        raise ValueError(f"v_antisqueezed must be >= 1, got {va}")
    if vs * va < 1.0 - PHYS_TOL:
        raise ValueError(
            f"v_squeezed * v_antisqueezed = {vs * va:.6g} violates the uncertainty relation"
        )
    return vs, va


def make_kerr_entangled(v_squeezed: float, v_antisqueezed: float) -> GaussianState:
    """Two-mode entangled state from two squeezed beams on a 50/50 beam splitter.

    Input 1 is squeezed in X with variances (v_squeezed, v_antisqueezed),
    input 2 is squeezed in P with (v_antisqueezed, v_squeezed); the outputs
    of a balanced beam splitter form the entangled pair (A, B). The result
    has zero mean and covariance blocks

        A = B = diag(s, s),  C = diag((Vs-Va)/2, (Va-Vs)/2),  s = (Vs+Va)/2

    so the joint quadratures satisfy Var(X_A+X_B) = Var(P_A-P_B) = 2*Vs.
    """
    vs, va = kerr_variances(v_squeezed, v_antisqueezed)
    inputs = tensor(squeezed_state(vs, va), squeezed_state(va, vs))
    # Port assignment fixes the sign of the correlation blocks: the
    # X-squeezed beam enters the transmitted-signal port.
    return apply_beamsplitter(inputs, mode_a=1, mode_b=0, transmittance=0.5)
