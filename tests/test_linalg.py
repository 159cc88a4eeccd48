import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given

from lanton.linalg import as_matrix, frobenius_norm, singular_values
from lanton.norms import Group, dual_norm, nuclear_norm, primal_norm

from jacobi import SvdConvergenceError, jacobi_svd
from strategies import matrices


@pytest.mark.parametrize("mat,expected", [
    ([[3.0, 4.0], [0.0, 0.0]], 5.0),
    ([[0.0, 0.0], [0.0, 0.0]], 0.0),
    ([[1.0, 1.0], [1.0, 1.0]], 2.0),
])
def test_frobenius_examples(mat, expected):
    assert frobenius_norm(np.array(mat)) == pytest.approx(expected, abs=0)


def test_frobenius_zero_iff_zero_matrix():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 5))
    assert frobenius_norm(a) > 0
    assert frobenius_norm(np.zeros((4, 4))) == 0.0


class TestJacobiSvd:
    def test_diagonal(self):
        res = jacobi_svd(np.diag([3.0, 4.0]))
        assert np.allclose(res.s, [4.0, 3.0])

    def test_zero_wide_matrix(self):
        res = jacobi_svd(np.zeros((2, 3)))
        assert np.array_equal(res.s, [0.0, 0.0])
        assert res.u.shape == (2, 2) and res.vt.shape == (2, 3)
        assert np.allclose(res.u.T @ res.u, np.eye(2), atol=1e-12)
        assert np.allclose(res.vt @ res.vt.T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("shape,seed", [((8, 5), 0), ((5, 8), 1), ((12, 12), 2), ((1, 6), 3), ((7, 1), 4)])
    def test_result_invariants(self, shape, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape)
        res = jacobi_svd(a)
        k = min(shape)
        assert res.u.shape == (shape[0], k)
        assert res.vt.shape == (k, shape[1])
        assert np.all(res.s >= 0)
        assert np.all(np.diff(res.s) <= 0)
        assert np.abs(res.u.T @ res.u - np.eye(k)).max() <= 1e-10
        assert np.abs(res.vt @ res.vt.T - np.eye(k)).max() <= 1e-10
        recon = res.u @ np.diag(res.s) @ res.vt
        assert np.linalg.norm(recon - a) <= 1e-9 * (1.0 + np.linalg.norm(a))

    def test_matches_lapack_singular_values(self):
        # independent route: LAPACK's divide-and-conquer vs our Jacobi sweeps
        rng = np.random.default_rng(7)
        for shape in ((6, 4), (9, 9), (3, 11)):
            a = rng.standard_normal(shape)
            ours = jacobi_svd(a).s
            ref = np.linalg.svd(a, compute_uv=False)
            assert np.abs(ours - ref).max() <= 1e-10 * max(1.0, ref[0])

    def test_permutation_invariance_of_spectrum(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((7, 5))
        s0 = jacobi_svd(a).s
        perm_rows = rng.permutation(7)
        perm_cols = rng.permutation(5)
        s1 = jacobi_svd(a[perm_rows][:, perm_cols]).s
        assert np.abs(s0 - s1).max() <= 1e-9

    def test_rank_deficient_keeps_orthonormal_u(self):
        u = np.array([3.0, 4.0]) / 5.0
        v = np.array([1.0, 0.0])
        res = jacobi_svd(np.outer(u, v))
        assert res.s[0] == pytest.approx(1.0, rel=1e-12)
        assert res.s[1] <= 1e-12
        assert np.abs(res.u.T @ res.u - np.eye(2)).max() <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        r1 = jacobi_svd(a)
        r2 = jacobi_svd(a)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.s, r2.s)
        assert np.array_equal(r1.vt, r2.vt)

    def test_rejects_non_finite(self):
        a = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            jacobi_svd(a)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            jacobi_svd(np.zeros(3))

    def test_sweep_cap_raises(self, monkeypatch):
        import jacobi

        monkeypatch.setattr(jacobi, "_JACOBI_MAX_SWEEPS", 0)
        rng = np.random.default_rng(6)
        with pytest.raises(SvdConvergenceError):
            jacobi_svd(rng.standard_normal((4, 4)))


def test_norm_sandwich_invariant():
    # spectral <= frobenius <= sqrt(min dim) * spectral
    rng = np.random.default_rng(21)
    for _ in range(25):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        a = rng.standard_normal(shape)
        spec = jacobi_svd(a).s[0]
        fro = frobenius_norm(a)
        assert spec <= fro * (1.0 + 1e-9)
        assert fro <= math.sqrt(min(shape)) * spec + 1e-9 * (1.0 + fro)


def _hex(values):
    return [float(v).hex() for v in values]


@given(matrices())
def test_singular_values_have_the_bits_of_numpys_svd(x):
    # numpy's own wrapper on the row-major float64 copy is the reference.
    ref = np.linalg.svd(as_matrix(x), compute_uv=False)
    assert singular_values(x).dtype == np.float64
    assert _hex(singular_values(x)) == _hex(ref)
    d_out, d_in = x.shape
    assert nuclear_norm(x).hex() == float(ref.sum()).hex()
    assert dual_norm(Group.HIDDEN, x).hex() == (math.sqrt(d_out / d_in) * float(ref.sum())).hex()
    assert primal_norm(Group.HIDDEN, x).hex() == (math.sqrt(d_in / d_out) * float(ref[0])).hex()


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (8, 8), (3, 7)])
def test_singular_values_of_nan_raise_without_a_warning(shape):
    a = np.ones(shape)
    a[0, -1] = np.nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            singular_values(a)
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            dual_norm(Group.HIDDEN, a)
    assert caught == []


def test_singular_values_of_inf_are_nan():
    a = np.ones((8, 8))
    a[2, 3] = np.inf
    s = singular_values(a)
    assert np.isnan(s).all()
    assert _hex(s) == _hex(np.linalg.svd(a, compute_uv=False))


def test_singular_values_keep_the_callers_error_state():
    def handler(err, flag):
        raise AssertionError("caller's handler ran")

    with np.errstate(over="ignore", call=handler):
        before = (np.geterr(), np.geterrcall())
        singular_values(np.eye(3))
        with pytest.raises(np.linalg.LinAlgError):
            singular_values(np.full((2, 2), np.nan))
        assert (np.geterr(), np.geterrcall()) == before
        assert np.geterr()["over"] == "ignore"


def test_singular_values_keep_each_threads_error_state():
    # Two threads under different caller error states call the kernel in
    # turn; each must find its own state after every call.
    def handler_a(err, flag):
        raise AssertionError("handler a ran")

    def handler_b(err, flag):
        raise AssertionError("handler b ran")

    turns = threading.Barrier(2, timeout=30)
    seen = {}

    def worker(name, state, handler):
        with np.errstate(call=handler, **state):
            expected = (np.geterr(), np.geterrcall())
            states = []
            for i in range(50):
                turns.wait()
                singular_values(np.eye(4) * (i + 1))
                if i % 10 == 0:
                    try:
                        singular_values(np.full((3, 3), np.nan))
                    except np.linalg.LinAlgError:
                        pass
                states.append((np.geterr(), np.geterrcall()))
            seen[name] = (expected, states)

    threads = [threading.Thread(target=worker, args=("a", {"all": "ignore", "over": "raise"}, handler_a)),
               threading.Thread(target=worker, args=("b", {"all": "warn", "invalid": "call"}, handler_b))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert seen["a"][0] != seen["b"][0]
    for expected, states in seen.values():
        assert states == [expected] * 50
