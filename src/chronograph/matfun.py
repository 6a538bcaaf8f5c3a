"""Matrix kernels: exponential, phi-functions, solves, Hermitian calculus,
and the assembly, factoring and norms of block operators.

Everything downstream (monodromy assembly, exponential integrators, unitarity
and factorization checks) is built on these few functions.  All routines work
on complex arrays; real inputs are promoted.
"""

from functools import partial

import numpy as np

# Hard singularity threshold for linear solves (reciprocal 2-norm condition).
SINGULARITY_RCOND = 1e-14
# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-10
# The one dense-or-sparse rule for block operators (block_matrix): sparse
# when both dimensions are at least DENSE_BOUNDARY_MAX and at most a quarter
# of the entries are nonzero, dense otherwise, where one SVD is about as fast
# (crossover measured in CHANGES.md).  scipy.sparse is imported only by the
# sparse side: importing it costs every start-up about 30 ms and 4 MB.
# scipy.linalg, about 250-330 ms, is likewise imported only inside the
# functions that call it, so classify, which calls no matrix function, never
# imports scipy.
DENSE_BOUNDARY_MAX = 256


class SingularMatrix(Exception):
    """Linear system rejected: reciprocal condition estimate below threshold."""

    def __init__(self, rcond):
        super().__init__(f"matrix numerically singular (rcond={rcond:.3e})")
        self.rcond = rcond


class NotHermitian(ValueError):
    """Input failed the Hermitian symmetry check."""


def _as_square(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def expm(A):
    """Matrix exponential e^A of one matrix (n, n) or of a stack (k, n, n).

    scipy's scaling and squaring (Al-Mohy & Higham, "A new scaling and
    squaring algorithm for the matrix exponential", SIMAX 31(3), 2009).
    Non-finite input raises ValueError.  scipy exponentiates diagonal input
    entrywise, so a zero matrix maps to the exact identity.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, "
                         f"got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in matrix exponential input")
    import scipy.linalg as la
    return la.expm(A)


def expm_phi12(A):
    """Return (e^A, phi1(A), phi2(A)) in one augmented exponential.

    phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2, extended by their
    limits at z = 0.  The triple is read off the top block row of
    exp([[A, I, 0], [0, 0, I], [0, 0, 0]]), so singular A needs no special
    casing.  A may be a stack (k, n, n); so is each returned array.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
    W = np.zeros(A.shape[:-2] + (3 * n, 3 * n), dtype=complex)
    W[..., :n, :n] = A
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
    import scipy.linalg as la
    X = la.solve(M, rhs)
    return X, rc


def block_matrix(shape, parts):
    """The matrix of the given shape made of the parts (row offset, column
    offset, dense block) in disjoint slots, zero elsewhere: by the rule at
    DENSE_BOUNDARY_MAX, a CSC matrix of the nonzero entries or an array."""
    rows, cols = shape
    if (min(rows, cols) >= DENSE_BOUNDARY_MAX
            and 4 * sum(np.count_nonzero(m) for _, _, m in parts)
            <= rows * cols):
        import scipy.sparse as sp  # the sparse side only
        ii, jj = [np.empty(0, int)], [np.empty(0, int)]
        vals = [np.empty(0, complex)]
        for r, c, m in parts:
            k, j = np.nonzero(m)
            ii.append(r + k)
            jj.append(c + j)
            vals.append(m[k, j])
        return sp.csc_matrix((np.concatenate(vals),
                              (np.concatenate(ii), np.concatenate(jj))),
                             shape=shape, dtype=complex)
    out = np.zeros(shape, dtype=complex)
    for r, c, m in parts:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
    return out


def factorize(M):
    """(sigma_min, sigma_max, solve: b -> M^-1 b) of a square block_matrix.

    A dense M takes one SVD and LU (scipy.linalg.solve).  A sparse M is
    factored once by SuperLU (X. S. Li, ACM TOMS 31(3), 2005); sigma_max is
    Lanczos on M and sigma_min is 1 / sigma_max(M^-1), Lanczos on the
    factor's solves.  A zero pivot gives sigma_min = 0 and a solve that
    raises SingularMatrix; an overflowing inverse, sigma_min 0 or NaN."""
    if isinstance(M, np.ndarray):
        import scipy.linalg as la
        sv = np.linalg.svd(M, compute_uv=False)
        return float(sv[-1]), float(sv[0]), partial(la.solve, M)
    import scipy.sparse.linalg as spla  # the sparse side only
    sigma_max = lanczos_sigma_max(M)
    try:
        lu = spla.splu(M)
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        def singular(b):
            raise SingularMatrix(0.0)

        return 0.0, sigma_max, singular

    def adjoint_solve(x):
        return lu.solve(x, trans="H")

    inverse = spla.LinearOperator(M.shape, matvec=lu.solve, matmat=lu.solve,
                                  rmatvec=adjoint_solve,
                                  rmatmat=adjoint_solve, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        inverse_norm = lanczos_sigma_max(inverse)
    return 1.0 / inverse_norm, sigma_max, lu.solve


def lanczos_sigma_max(A):
    """Largest singular value of a sparse matrix or LinearOperator A, with
    min(A.shape) >= 2, by ARPACK's Lanczos iteration on its Gram operator
    (scipy's svds).  The start vector is fixed, so repeated runs agree bit
    for bit.  An iteration that does not converge returns NaN rather than
    an unconverged estimate.  A sparse matrix with no nonzero entry has
    norm 0 and is not handed to ARPACK, whose start vector it would map to
    zero."""
    import scipy.sparse.linalg as spla  # the sparse side only
    if not isinstance(A, spla.LinearOperator) and A.count_nonzero() == 0:
        return 0.0
    v0 = np.random.default_rng(0).standard_normal(min(A.shape))
    try:
        s = spla.svds(A, k=1, v0=v0, return_singular_vectors=False)
    except spla.ArpackNoConvergence:
        return float("nan")
    return float(s[0])


def hermitian_part(A):
    """(A + A*)/2, exactly Hermitian; an asymmetry ||A - A*||_2 above
    HERMITIAN_TOL * max(||A||_2, 1) raises NotHermitian."""
    A = _as_square(A)
    scale = np.linalg.norm(A, 2)
    asym = np.linalg.norm(A - A.conj().T, 2)
    if asym > HERMITIAN_TOL * max(scale, 1.0):
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds "
                           f"{HERMITIAN_TOL:.1e} * max(||A||, 1)")
    return 0.5 * (A + A.conj().T)


def hermitian_eig(A):
    """(w, V), w ascending, with hermitian_part(A) = V diag(w) V*."""
    return np.linalg.eigh(hermitian_part(A))


def funm_hermitian(eig, f):
    """V f(w) V* for the spectral decomposition eig = (w, V)."""
    w, V = eig
    fw = np.asarray([f(x) for x in w], dtype=complex)
    return (V * fw) @ V.conj().T
