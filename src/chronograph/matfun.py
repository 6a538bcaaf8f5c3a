"""Dense matrix kernels: exponential, phi-functions, solves, Hermitian calculus.

Everything downstream (monodromy assembly, exponential integrators, unitarity
and factorization checks) is built on these few functions.  All routines work
on complex arrays; real inputs are promoted.
"""

import numpy as np
import scipy.linalg as la

# Hard singularity threshold for linear solves (reciprocal 2-norm condition).
SINGULARITY_RCOND = 1e-14
# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-10


class SingularMatrix(Exception):
    """Linear system rejected: reciprocal condition estimate below threshold."""

    def __init__(self, rcond):
        super().__init__(f"matrix numerically singular (rcond={rcond:.3e})")
        self.rcond = rcond


class NotHermitian(Exception):
    """Input failed the Hermitian symmetry check."""


def _as_square(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def expm(A, t=1.0):
    """Matrix exponential e^{tA} of one matrix (n, n) or of a stack (k, n, n).

    scipy's scaling and squaring (Al-Mohy & Higham, "A new scaling and
    squaring algorithm for the matrix exponential", SIMAX 31(3), 2009).
    Non-finite input, or a product tA that overflows, raises ValueError.
    scipy exponentiates diagonal input entrywise, so a zero matrix maps to
    the exact identity.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, "
                         f"got shape {A.shape}")
    if not np.all(np.isfinite(A)) or not np.isfinite(t):
        raise ValueError("non-finite entries in matrix exponential input")
    with np.errstate(over="ignore", invalid="ignore"):
        B = t * A
    if not np.all(np.isfinite(B)):
        raise ValueError("matrix exponential input t A overflows")
    return la.expm(B)


def expm_phi12(A, h):
    """Return (e^{hA}, phi1(hA), phi2(hA)) in one augmented exponential.

    phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2, extended by their
    limits at z = 0.  The triple is read off the top block row of
    exp([[hA, I, 0], [0, 0, I], [0, 0, 0]]), so singular A needs no special
    casing.  A may be a stack (k, n, n); so is each returned array.
    """
    A = np.asarray(A, dtype=complex)
    if not h > 0:
        raise ValueError("step h must be positive")
    n = A.shape[-1]
    W = np.zeros(A.shape[:-2] + (3 * n, 3 * n), dtype=complex)
    W[..., :n, :n] = h * A
    W[..., :n, n:2 * n] = np.eye(n)
    W[..., n:2 * n, 2 * n:] = np.eye(n)
    Ew = expm(W)
    return Ew[..., :n, :n], Ew[..., :n, n:2 * n], Ew[..., :n, 2 * n:]


def rcond_estimate(M):
    """Reciprocal 2-norm condition number sigma_min/sigma_max (0 for the zero matrix)."""
    M = _as_square(M)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])


def rcond_identity_scale(M):
    """sigma_min(M) / max(1, sigma_max(M)).

    Conditioning for matrices of the form I - X: the identity fixes the unit
    of scale, so a matrix that is an O(eps) residue of cancellation counts as
    singular even in dimension one, where sigma_min/sigma_max is always 1.
    """
    M = _as_square(M)
    sv = np.linalg.svd(M, compute_uv=False)
    return float(sv[-1] / max(float(sv[0]), 1.0))


def solve_linear(M, rhs):
    """Solve M X = rhs by LU; returns (X, rcond estimate).

    Raises SingularMatrix when the reciprocal condition estimate falls below
    SINGULARITY_RCOND.
    """
    M = _as_square(M)
    rhs = np.asarray(rhs, dtype=complex)
    rc = rcond_estimate(M)
    if rc < SINGULARITY_RCOND:
        raise SingularMatrix(rc)
    X = la.solve(M, rhs)
    return X, rc


class HermitianEigenSystem:
    """Spectral decomposition A = V diag(w) V* with real ascending eigenvalues."""

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=complex)

    def reconstruct(self):
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.conj().T


def hermitian_eig(A, tol=HERMITIAN_TOL):
    """Eigendecomposition of a (numerically) Hermitian matrix.

    The input is symmetrized to (A + A*)/2 before decomposition; a relative
    asymmetry above `tol` raises NotHermitian.
    """
    A = _as_square(A)
    scale = np.linalg.norm(A, 2)
    asym = np.linalg.norm(A - A.conj().T, 2)
    if asym > tol * max(scale, 1.0):
        raise NotHermitian(
            f"asymmetry {asym:.3e} exceeds {tol:.1e} * max(||A||, 1)")
    H = 0.5 * (A + A.conj().T)
    w, V = np.linalg.eigh(H)
    return HermitianEigenSystem(w, V)


def funm_hermitian(E, f):
    """Apply a scalar function through the spectral decomposition: V f(w) V*."""
    V = E.eigenvectors
    fw = np.asarray([f(x) for x in E.eigenvalues], dtype=complex)
    return (V * fw) @ V.conj().T

