import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from calabi import numerics


def _random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def test_generalized_eig_matches_scipy():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 6):
        raw = rng.standard_normal((n, n))
        a = numerics.symmetrize(raw + raw.T)
        m = _random_spd(rng, n)
        b = numerics.metric_orthonormal_basis(m)
        ours = numerics.solve_sym_eig_generalized(b.T @ a @ b)
        ref = scipy.linalg.eigh(a, m, eigvals_only=True)
        assert np.allclose(ours.values, ref, atol=1e-10)
        # v = B q: m-orthonormal columns
        vectors = b @ ours.vectors
        gram = vectors.T @ m @ vectors
        assert np.allclose(gram, np.eye(n), atol=1e-10)
        # residual of the pencil
        for j in range(n):
            v = vectors[:, j]
            assert np.allclose(a @ v, ours.values[j] * (m @ v), atol=1e-9)


def test_stacked_eig_matches_per_matrix_calls():
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        raw = rng.standard_normal((6, n, n))
        a = raw + raw.transpose(0, 2, 1)
        m = np.stack([_random_spd(rng, n) for _ in range(6)])
        b = numerics.metric_orthonormal_basis(m)
        reduced = b.transpose(0, 2, 1) @ a @ b
        stacked = numerics.solve_sym_eig_generalized(reduced)
        assert stacked.values.shape == (6, n)
        assert stacked.vectors.shape == (6, n, n)
        for p in range(6):
            one = numerics.solve_sym_eig_generalized(reduced[p])
            assert np.allclose(stacked.values[p], one.values, rtol=0,
                               atol=1e-14)
            assert np.allclose(stacked.vectors[p], one.vectors, rtol=0,
                               atol=1e-14)


def test_asymmetric_matrix_in_a_stack_is_named_by_its_index():
    a = np.stack([np.eye(3)] * 4)
    a[2, 0, 1] += 1e-6
    with pytest.raises(numerics.AsymmetricMatrixError,
                       match=r"at stack index \(2,\)") as err:
        numerics.solve_sym_eig_generalized(a)
    assert err.value.index == (2,)
    with pytest.raises(numerics.AsymmetricMatrixError) as err:
        numerics.symmetrize(a[2])
    assert err.value.index == ()
    assert "stack" not in str(err.value)


def test_eig_rejects_indefinite_mass_matrix():
    """The mass matrix enters the eigensolve as its M-orthonormal basis,
    which an indefinite M does not have."""
    m = np.diag([1.0, -1.0])
    with pytest.raises(numerics.NotPositiveDefiniteError):
        numerics.metric_orthonormal_basis(m)


def test_subspace_rank_counts_independent_directions():
    rows = [[1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [1e-12, 0.0, 0.0, 0.0]]
    sub = numerics.subspace_rank(rows)
    assert sub.rank == 2
    assert sub.basis.shape == (2, 4)


def test_subspace_rank_fixes_the_sign_of_each_basis_row():
    """A basis row of the SVD has the sign rounding gives it; each row's
    first entry of significant size is positive, so rows and -rows span
    the same basis."""
    rows = np.random.default_rng(11).standard_normal((6, 3)) @ np.diag(
        [3.0, 1.0, 0.2]) @ np.random.default_rng(12).standard_normal((3, 5))
    sub, neg = numerics.subspace_rank(rows), numerics.subspace_rank(-rows)
    assert sub.rank == neg.rank == 3
    assert np.allclose(sub.basis, neg.basis, rtol=0, atol=1e-14)
    lead = [row[np.abs(row) > 1e-10 * np.max(np.abs(row))][0]
            for row in sub.basis]
    assert all(x > 0.0 for x in lead)


def test_subspace_rank_of_no_rows_keeps_the_width():
    """No rows and all-zero rows both span nothing in the same space: a
    (0, n) basis, which stacks with any other basis of that width."""
    for rows in (np.zeros((0, 3)), np.zeros((2, 3))):
        sub = numerics.subspace_rank(rows)
        assert sub.rank == 0
        assert sub.basis.shape == (0, 3)


def test_bisection_finds_cube_root():
    root = numerics.find_root_bisection(lambda x: x ** 3 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(2.0 ** (1 / 3), abs=1e-11)


def test_bisection_requires_bracket():
    with pytest.raises(ValueError):
        numerics.find_root_bisection(lambda x: x * x + 1.0, -1.0, 1.0)


def test_metric_orthonormal_basis_property():
    rng = np.random.default_rng(11)
    h = _random_spd(rng, 5)
    basis = numerics.metric_orthonormal_basis(h)
    assert np.allclose(basis.T @ h @ basis, np.eye(5), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, (3, 3),
                  elements=st.floats(-5, 5, allow_nan=False)))
def test_eigenvalues_real_and_sorted_for_any_symmetric_part(a):
    sym = numerics.symmetrize(a + a.T)
    res = numerics.solve_sym_eig_generalized(sym)
    assert np.all(np.diff(res.values) >= -1e-12)
    ref = np.linalg.eigvalsh(sym)
    assert np.allclose(res.values, ref, atol=1e-8)
