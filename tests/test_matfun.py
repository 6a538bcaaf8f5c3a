import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from chronograph import matfun


def random_complex(seed, n=4, scale=1.0):
    r = np.random.default_rng(seed)
    M = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return scale * M / n


def reference_expm(A, t=1.0, terms=60, prec=200):
    """Scaled Taylor series at 200-bit precision; shares nothing with expm."""
    n = A.shape[0]
    with mpmath.workprec(prec):
        M = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                M[i, j] = mpmath.mpc(A[i, j]) * mpmath.mpf(t)
        norm = max(sum(abs(M[i, j]) for j in range(n)) for i in range(n))
        k = 0
        if norm > 0.5:
            k = int(mpmath.floor(mpmath.log(norm, 2))) + 2
            M = M / mpmath.mpf(2 ** k)
        E = mpmath.eye(n)
        term = mpmath.eye(n)
        for j in range(1, terms):
            term = term * M / j
            E = E + term
        for _ in range(k):
            E = E * E
        return np.array([[complex(E[i, j]) for j in range(n)]
                         for i in range(n)])


def test_expm_against_high_precision_series():
    A = random_complex(7, n=4, scale=3.0)
    got = matfun.expm(0.7 * A)
    want = reference_expm(A, 0.7)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(want, 2)


def test_expm_large_norm_goes_through_squaring():
    A = random_complex(11, n=5, scale=35.0)
    got = matfun.expm(A)
    want = reference_expm(A)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.linalg.norm(want, 2)


def test_expm_zero_matrix_is_exactly_identity():
    assert np.array_equal(matfun.expm(np.zeros((3, 3))), np.eye(3))
    # per matrix in a stack, for every size
    for n in (1, 2, 3):
        stack = np.stack([np.zeros((n, n)), random_complex(n, n=n),
                          np.zeros((n, n))])
        got = matfun.expm(0.3 * stack)
        assert np.array_equal(got[0], np.eye(n))
        assert np.array_equal(got[2], np.eye(n))
        assert np.allclose(got[1], matfun.expm(0.3 * stack[1]), rtol=0,
                           atol=1e-15)


def test_expm_of_a_stack_matches_each_matrix():
    stack = np.stack([random_complex(seed, n=4, scale=3.0)
                      for seed in range(5)])
    got = matfun.expm(0.7 * stack)
    for k in range(5):
        want = reference_expm(stack[k], 0.7)
        assert np.max(np.abs(got[k] - want)) <= 1e-12 * np.linalg.norm(want, 2)


def test_expm_scalar_and_diagonal():
    got = matfun.expm(np.array([[-1.0]]))[0, 0]
    assert abs(got - math.exp(-1.0)) <= 1e-15
    D = np.diag([-1.0, -2.0, 0.5])
    got = matfun.expm(2.0 * D)
    assert np.max(np.abs(got - np.diag(np.exp(2.0 * np.diag(D))))) <= 1e-13


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        matfun.expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matfun.expm(np.array([[np.inf]]))


@given(st.integers(0, 10 ** 6))
def test_expm_semigroup_property(seed):
    A = random_complex(seed, n=3, scale=2.0)
    full = matfun.expm(0.9 * A)
    split = matfun.expm(0.5 * A) @ matfun.expm(0.4 * A)
    assert np.max(np.abs(full - split)) <= 1e-10 * max(
        1.0, np.linalg.norm(full, 2))


@given(st.integers(0, 10 ** 6))
def test_expm_inverse_is_negated_exponent(seed):
    A = random_complex(seed, n=3, scale=2.0)
    prod = matfun.expm(A) @ matfun.expm(-A)
    assert np.max(np.abs(prod - np.eye(3))) <= 1e-10


@given(st.integers(0, 10 ** 6))
def test_expm_of_skew_hermitian_is_unitary(seed):
    M = random_complex(seed, n=4, scale=2.0)
    K = M - M.conj().T
    U = matfun.expm(K)
    assert np.max(np.abs(U @ U.conj().T - np.eye(4))) <= 1e-11


def test_phi_triple_scalar_values():
    E, P1, P2 = matfun.expm_phi12(np.array([[1.0]]))
    assert abs(E[0, 0] - math.e) <= 1e-14
    assert abs(P1[0, 0] - (math.e - 1.0)) <= 1e-14
    assert abs(P2[0, 0] - (math.e - 2.0)) <= 1e-14


def test_phi_triple_at_zero_operator():
    E, P1, P2 = matfun.expm_phi12(np.zeros((2, 2)))
    assert np.allclose(E, np.eye(2), atol=1e-15)
    assert np.allclose(P1, np.eye(2), atol=1e-13)
    assert np.allclose(P2, 0.5 * np.eye(2), atol=1e-13)


def test_phi_triple_of_a_stack_matches_each_matrix():
    stack = np.stack([random_complex(seed, n=3, scale=2.0)
                      for seed in range(4)])
    for got, want in zip(matfun.expm_phi12(0.37 * stack),
                         zip(*[matfun.expm_phi12(0.37 * A) for A in stack])):
        assert np.array_equal(got, np.stack(want))


@given(st.integers(0, 10 ** 6))
def test_phi_recurrence_identities(seed):
    A = random_complex(seed, n=3, scale=2.0)
    h = 0.37
    E, P1, P2 = matfun.expm_phi12(h * A)
    # e^{hA} = I + hA phi1 and phi1 = I + hA phi2
    assert np.max(np.abs(E - np.eye(3) - h * A @ P1)) <= 1e-11
    assert np.max(np.abs(P1 - np.eye(3) - h * A @ P2)) <= 1e-11


def test_solve_linear_and_rcond():
    M = np.diag([2.0, 1.0])
    X, rc = matfun.solve_linear(M, np.array([2.0, 3.0]))
    assert np.allclose(X, [1.0, 3.0])
    assert abs(rc - 0.5) <= 1e-14


def test_solve_linear_rejects_singular():
    with pytest.raises(matfun.SingularMatrix) as err:
        matfun.solve_linear(np.zeros((2, 2)), np.ones(2))
    assert err.value.rcond <= matfun.SINGULARITY_RCOND


def test_rcond_estimators():
    assert matfun.rcond_estimate(np.zeros((2, 2))) == 0.0
    assert abs(matfun.rcond_estimate(np.diag([1.0, 1e-6])) - 1e-6) <= 1e-18
    # scalar matrices: plain ratio saturates at 1, identity-scale does not
    assert matfun.rcond_estimate(np.array([[1e-16]])) == 1.0
    assert matfun.rcond_identity_scale(np.array([[1e-16]])) <= 1e-15
    assert abs(matfun.rcond_identity_scale(np.array([[0.5]])) - 0.5) <= 1e-15
    assert abs(matfun.rcond_identity_scale(np.diag([2.0, 1.0])) - 0.5) <= 1e-15


def test_hermitian_eig_round_trip(rng):
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = M + M.conj().T
    w, V = matfun.hermitian_eig(H)
    assert np.max(np.abs((V * w) @ V.conj().T - H)) <= 1e-12 * np.linalg.norm(
        H, 2)
    assert np.max(np.abs(np.sort(w) - np.sort(np.linalg.eigvalsh(H)))) <= 1e-10


def test_hermitian_eig_rejects_asymmetric():
    with pytest.raises(matfun.NotHermitian):
        matfun.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_symmetrizes_roundoff():
    H = np.array([[1.0, 0.5], [0.5 + 1e-14, 2.0]])
    w, V = matfun.hermitian_eig(H)
    assert np.max(np.abs((V * w) @ V.conj().T - H)) <= 1e-12


def test_funm_hermitian_exponential(rng):
    M = rng.standard_normal((3, 3))
    H = M + M.T
    eig = matfun.hermitian_eig(H)
    got = matfun.funm_hermitian(eig, math.exp)
    assert np.max(np.abs(got - matfun.expm(H))) <= 1e-11 * np.linalg.norm(
        got, 2)


def test_funm_hermitian_square(rng):
    M = rng.standard_normal((3, 3))
    H = M + M.T
    eig = matfun.hermitian_eig(H)
    got = matfun.funm_hermitian(eig, lambda x: x * x)
    assert np.max(np.abs(got - H @ H)) <= 1e-12 * max(
        1.0, np.linalg.norm(H @ H, 2))

