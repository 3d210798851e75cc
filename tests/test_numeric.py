import mpmath
import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charforms.errors import InvalidInput, SingularMatrix
from charforms.numeric import (
    Tolerances,
    as_cmatrix,
    matrix_exp,
    matrix_inverse,
    rank_and_gap,
    solve_lsq,
)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(rank_rel=2.0)


@pytest.mark.parametrize("field", ["rank_rel", "newton_tol"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_tolerances_must_be_finite(field, value):
    with pytest.raises(InvalidInput):
        Tolerances(**{field: value})


def test_as_cmatrix_rejects_nan():
    with pytest.raises(ValueError):
        as_cmatrix([[np.nan, 0], [0, 1]])


def test_as_cmatrix_refuses_a_vector():
    with pytest.raises(InvalidInput, match="ndim=1"):
        as_cmatrix([1.0, 2.0])


def test_rank_and_gap():
    m = np.diag([1.0, 1e-3, 1e-14])
    dec = rank_and_gap(m)
    assert dec.rank == 2
    assert dec.gap == pytest.approx(1e11, rel=1e-6)
    assert dec.margin == pytest.approx(1e4, rel=1e-6)  # 1e-14 vs cutoff 1e-10
    zero = rank_and_gap(np.zeros((3, 3)))
    assert zero.rank == 0
    assert zero.image.shape == (3, 0)
    assert np.array_equal(zero.kernel, np.eye(3))


def test_nullspace_annihilates():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    ns = rank_and_gap(a).kernel
    assert ns.shape == (6, 3)
    assert np.linalg.norm(a @ ns) < 1e-12
    # columns orthonormal
    assert np.allclose(ns.conj().T @ ns, np.eye(3), atol=1e-12)


def test_orth_basis_spans():
    rng = np.random.default_rng(1)
    cols = rng.standard_normal((5, 2))
    m = np.concatenate([cols, cols @ rng.standard_normal((2, 3))], axis=1)
    q = rank_and_gap(m).image
    assert q.shape == (5, 2)
    resid = m - q @ (q.conj().T @ m)
    assert np.linalg.norm(resid) < 1e-12


def test_empty_matrix():
    dec = rank_and_gap(np.zeros((0, 4)))
    assert (dec.rank, dec.gap, dec.margin) == (0, np.inf, np.inf)
    assert dec.image.shape == (0, 0)
    assert np.array_equal(dec.kernel, np.eye(4))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
       logs=st.lists(st.floats(-16, 0), min_size=7, max_size=7),
       seed=st.integers(0, 2 ** 16))
def test_rank_decision_properties(shape, logs, seed):
    """A matrix with planted singular values 10**logs: one SVD gives the
    rank, the gap and the cutoff margin, and orthonormal bases of the
    column space and the null space."""
    rows, cols = shape
    k = min(rows, cols)
    rng = np.random.default_rng(seed)

    def unitary(n):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(z)[0]

    planted = np.sort(10.0 ** np.array(logs[:k]))[::-1]
    m = unitary(rows)[:, :k] @ np.diag(planted) @ unitary(cols)[:k, :]
    s = scipy.linalg.svdvals(m)
    cutoff = 1e-10 * s[0]
    # singular values are known to about 1e-15 * s[0]; skip draws whose
    # decisions sit on a boundary within that accuracy
    ratios = np.log10(s[s > 0] / cutoff)
    assume(np.all(np.abs(np.abs(ratios) - 1) > 1e-3) and np.all(np.abs(ratios) > 1e-3))
    err = 1e-14 * s[0]

    dec = rank_and_gap(m)
    r = dec.rank
    assert r == int(np.sum(s > cutoff))
    assert r + dec.kernel.shape[1] == cols
    assert dec.image.shape == (rows, r)
    for basis in (dec.image, dec.kernel):
        assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]),
                           atol=1e-12)
    assert np.linalg.norm(m @ dec.kernel) <= 1e-9 * s[0]
    assert np.linalg.norm(m - dec.image @ (dec.image.conj().T @ m)) <= 1e-9 * s[0]

    kept, dropped = s[r - 1], (s[r] if r < len(s) else 0.0)
    if dropped > 100 * err:
        assert dec.gap == pytest.approx(
            kept / dropped, rel=max(1e-12, err * (1 / kept + 1 / dropped)))
    elif dropped == 0.0:
        assert dec.gap == np.inf
    if dropped > 100 * err:
        nearest = min(kept / cutoff, cutoff / dropped)
    else:  # dropped is at rounding level, so cutoff / dropped is >= ~100
        nearest = min(kept / cutoff, 50.0)
    if nearest < 50.0:
        assert dec.margin == pytest.approx(nearest, rel=1e-3)
    else:
        assert dec.margin >= 50.0
    near = np.any((s > cutoff / 10) & (s < cutoff * 10))
    assert (dec.margin < 10) == near


def test_solve_lsq_minimum_norm():
    a = np.array([[1.0, 0.0, 0.0]])
    x = solve_lsq(a, np.array([2.0]))
    assert np.allclose(x, [2.0, 0.0, 0.0])


def test_solve_lsq_drops_singular_values_below_the_rank_cutoff():
    # 1e-13 is below the 1e-10 relative cutoff: it counts as zero for the
    # solve instead of turning its residual component into a step of 10
    a = np.diag([1.0, 1e-13])
    x = solve_lsq(a, np.array([1.0, 1e-12]))
    assert np.allclose(x, [1.0, 0.0])


@pytest.mark.parametrize("rows,cols", [(5, 3), (3, 5), (4, 4)])
def test_solve_lsq_matches_gelsd_on_stacks(rows, cols):
    """The solve against scipy's gelsd under the same cutoff, one system at
    a time, on a seeded stack of six with rank-deficient members: a
    repeated column, rank one, zero, and a singular value planted below the
    cutoff."""
    rng = np.random.default_rng(rows * cols)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b = draw(6, rows, cols), draw(6, rows, 2)
    a[1, :, -1] = a[1, :, 0]
    a[2] = np.outer(a[2, :, 0], a[2, 0, :])
    a[3] = 0.0
    u, s, vh = np.linalg.svd(a[4], full_matrices=False)
    s[-1] = 1e-13 * s[0]
    a[4] = (u * s) @ vh
    for k in range(6):
        x, x_vec = solve_lsq(a[k], b[k]), solve_lsq(a[k], b[k, :, 0])
        assert x.shape == (cols, 2) and x_vec.shape == (cols,)
        ref = scipy.linalg.lstsq(a[k], b[k], cond=1e-10, lapack_driver="gelsd")[0]
        bound = 1e-12 * max(1.0, np.abs(ref).max())
        assert np.abs(x - ref).max() <= bound
        assert np.abs(x_vec - ref[:, 0]).max() <= bound


@pytest.mark.parametrize("b", [np.array([3, -1, 4, 2]), np.arange(1, 9).reshape(4, 2)],
                         ids=["vector", "matrix"])
def test_solve_lsq_is_the_exact_minimum_norm_solution(b):
    """Against sympy's pseudo-inverse in exact rationals: a rank-2 integer
    4 x 3 system whose third column is the sum of the first two, so it has
    a line of least-squares solutions and A.pinv() b is the shortest."""
    a = np.array([[1, 2, 3], [0, 1, 1], [2, -1, 1], [1, 1, 2]])
    exact = sympy.Matrix(a).pinv() * sympy.Matrix(b)
    ref = np.array(exact.tolist(), dtype=float).reshape(3, *b.shape[1:])
    x = solve_lsq(a, b)
    assert x.shape == ref.shape
    assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("b", [np.zeros(0), np.zeros((0, 2))], ids=["vector", "matrix"])
def test_solve_lsq_of_no_rows_is_zero(b):
    """A system of no rows, as a free group's relator Jacobian, solves to 0."""
    x = solve_lsq(np.zeros((0, 3)), b)
    assert x.shape == (3,) + b.shape[1:] and not x.any()


def test_solve_lsq_refuses_a_stack():
    with pytest.raises(InvalidInput, match="ndim=3"):
        solve_lsq(np.ones((2, 2, 2)), np.ones((2, 2)))


def _with_norm(rng, n, norm):
    """A seeded complex n x n matrix scaled to the given 1-norm."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x * (norm / np.abs(x).sum(axis=0).max())


NORMS = (0.0, 1e-9, 1e-3, 0.05, 0.3, 1.0, 2.0, 5.0, 20.0)


def _rel_err(e, ref):
    return np.abs(e - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
def test_matrix_exp_matches_scipy(n):
    """Norms from 0 to 20, unscaled and scaled, alone and as one stack."""
    rng = np.random.default_rng(n)
    x = np.array([_with_norm(rng, n, norm) for norm in NORMS for _ in range(3)])
    ref = np.array([scipy.linalg.expm(m) for m in x])
    stacked = matrix_exp(x)
    for k, m in enumerate(x):
        assert _rel_err(matrix_exp(m), ref[k]) <= 1e-13
        assert _rel_err(stacked[k], ref[k]) <= 1e-13


def _mpmath_expm(x):
    """exp(x) from mpmath in 30 significant digits, rounded to complex128."""
    with mpmath.workdps(30):
        e = mpmath.expm(mpmath.matrix(x.tolist()))
        return np.array([[complex(e[i, j]) for j in range(x.shape[1])]
                         for i in range(x.shape[0])])


@pytest.mark.parametrize("n", [2, 3, 6])
def test_matrix_exp_planted_mixed_stack(n):
    """A (2, 3) stack mixing members of norm 1e-6 and about 300, which take
    no squaring and six squarings.  Every member is within 1e-13
    of mpmath; against scipy the bound is the sum of both errors, since at
    norm 300 scipy's own error reaches 1.2e-13 (n = 3, member (0, 1))."""
    rng = np.random.default_rng(10 + n)
    norms = (1e-6, 300.0, 0.4, 310.0, 1e-6, 290.0)
    x = np.array([_with_norm(rng, n, norm) for norm in norms]).reshape(2, 3, n, n)
    e = matrix_exp(x)
    assert e.shape == x.shape
    for k in np.ndindex(2, 3):
        assert _rel_err(e[k], _mpmath_expm(x[k])) <= 1e-13
        assert _rel_err(e[k], scipy.linalg.expm(x[k])) <= 2e-13


@pytest.mark.parametrize("n,norm", [(2, 0.01), (2, 3.0), (3, 0.5), (3, 8.0),
                                    (6, 1.5), (6, 30.0)])
def test_matrix_exp_matches_mpmath(n, norm):
    """An independent oracle: mpmath's expm in 30 significant digits."""
    x = _with_norm(np.random.default_rng(int(100 * norm) + n), n, norm)
    assert _rel_err(matrix_exp(x), _mpmath_expm(x)) <= 1e-14


def test_matrix_exp_member_is_bit_identical_alone_and_in_a_stack():
    rng = np.random.default_rng(3)
    for n in (2, 3, 6):
        norms = 10.0 ** rng.uniform(-10, 2.6, size=24)
        x = np.array([_with_norm(rng, n, norm) for norm in norms])
        stacked = matrix_exp(x)
        for k, m in enumerate(x):
            assert np.array_equal(matrix_exp(m), stacked[k])


def test_matrix_exp_overflow_stays_in_its_row():
    """A member whose exponential overflows comes back non-finite, with no
    exception, and leaves the other members as they are alone."""
    rng = np.random.default_rng(4)
    x = np.array([_with_norm(rng, 3, 0.2), 800.0 * np.eye(3),
                  _with_norm(rng, 3, 40.0), np.full((3, 3), 1e308)])
    e = matrix_exp(x)
    assert not np.isfinite(e[1]).all() and not np.isfinite(e[3]).all()
    for k in (0, 2):
        assert np.array_equal(e[k], matrix_exp(x[k]))


def test_matrix_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_exp(np.ones((2, 3)))
    with pytest.raises(ValueError):
        matrix_exp(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_matrix_exp_inverse_pair():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    e = matrix_exp(x)
    assert np.allclose(e @ matrix_inverse(e), np.eye(3), atol=1e-10)


def test_singular_matrix_detected():
    with pytest.raises(SingularMatrix):
        matrix_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


def _with_singular_values(rng, s):
    """A complex matrix with the singular values s, in random unitary bases."""
    n = len(s)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            for _ in range(2))
    return (u * np.asarray(s)) @ v.conj().T


def _counting_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_matrix_inverse_screens_by_the_frobenius_condition(monkeypatch):
    """||m||_F ||m^-1||_F bounds kappa_2 from above, so only a matrix whose
    bound reaches 0.5 / rank_rel gets an SVD: a well-conditioned stack gets
    none and np.linalg.inv's bits.  kappa_2 = 3e9 (4 x 4, kappa_F ~ 5.2e9) is
    screened and passed; kappa_2 = 1e11 is refused, and so is an exactly
    singular matrix, which makes np.linalg.inv refuse the whole stack; the
    error's ``index`` is the first singular one of the flattened stack, and
    its message carries no position."""
    rng = np.random.default_rng(17)
    well = [_with_singular_values(rng, [2.0, 1.0, 0.7, 0.5]) for _ in range(4)]
    doubtful = _with_singular_values(rng, [1.0, 1.0, 1.0, 1 / 3e9])
    near = _with_singular_values(rng, [1.0, 1.0, 1.0, 1e-11])
    exact = np.zeros((4, 4))
    exact[:3, :3] = np.eye(3)
    calls = _counting_svd(monkeypatch)

    stack = np.array(well).reshape(2, 2, 4, 4)
    assert matrix_inverse(stack).tobytes() == np.linalg.inv(stack).tobytes()
    assert calls == []

    stack = np.array([well[0], doubtful, well[1]])
    assert matrix_inverse(stack).tobytes() == np.linalg.inv(stack).tobytes()
    assert calls == [(1, 4, 4)]

    for mixed, first in (([well[0], doubtful, well[1], near, well[2]], 3),
                         ([well[0], doubtful, exact, well[1], near], 2),
                         ([well[0], doubtful, near, well[1], exact], 2)):
        with pytest.raises(SingularMatrix, match="^smallest singular value") as info:
            matrix_inverse(np.array(mixed))
        assert info.value.index == first and "matrix" not in str(info.value)
    with pytest.raises(SingularMatrix) as info:
        matrix_inverse(near)
    assert info.value.index == 0 and "matrix" not in str(info.value)


def test_matrix_inverse_names_an_exact_zero_pivot_the_cutoff_passes():
    """With rank_rel below rounding the SVD cutoff passes [[3, 1], [1, 1/3]]
    (smallest singular value 1.05e-16 of 3.33), where np.linalg.inv finds an
    exact zero pivot: SingularMatrix names that index, not LinAlgError."""
    m = np.array([[3.0, 1.0], [1.0, 1 / 3]])
    tol = Tolerances(rank_rel=1e-20)
    with pytest.raises(SingularMatrix, match="exact zero pivot") as info:
        matrix_inverse(m, tol)
    assert info.value.index == 0 and "matrix" not in str(info.value)
    with pytest.raises(SingularMatrix, match="^np.linalg.inv finds an exact") as info:
        matrix_inverse(np.array([np.eye(2), 2 * np.eye(2), m]), tol)
    assert info.value.index == 2 and "matrix" not in str(info.value)
