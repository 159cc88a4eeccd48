import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lanton.linalg import as_matrix, frobenius_norm
from lanton.lmo import (
    NS_SIGMA_ENVELOPE,
    NS_SPECTRAL_ENVELOPE,
    QUINTIC_COEFFS,
    lmo,
    newton_schulz,
    polar_exact,
)
from lanton.norms import Group, primal_norm, rms_norm

from jacobi import jacobi_svd
from strategies import ROW_COLUMN_SQUARE, SIZES, matrices


def _quintic_scalar(x0: float, steps: int) -> float:
    # The matrix iteration's operations on a 1x1 iterate, in its order.
    a, b, c = QUINTIC_COEFFS
    x = x0
    for _ in range(steps):
        g = x * x
        gx = g * x
        x = a * x + b * gx + c * (g * gx)
    return x


class TestNewtonSchulz:
    def test_identity_matches_scalar_recursion(self):
        # the iterate on the scaled identity stays diagonal, each entry
        # following the scalar quintic map from 1/sqrt(2), bit for bit
        out = newton_schulz(np.eye(2), steps=5)
        oracle = _quintic_scalar(1.0 / (math.sqrt(2.0) + 1e-12), 5)
        assert out[0, 0] == oracle and out[1, 1] == oracle
        assert abs(out[0, 1]) == 0.0 and abs(out[1, 0]) == 0.0

    def test_diagonal_output_spectrum_in_envelope(self):
        out = newton_schulz(np.diag([2.0, 0.5]))
        s = jacobi_svd(out).s
        lo, hi = NS_SIGMA_ENVELOPE
        assert s[-1] >= lo * (1.0 - 1e-9)
        assert s[0] <= hi * (1.0 + 1e-9)

    def test_approaches_exact_polar(self):
        # The quintic moves singular values into a band around 1 and keeps
        # the singular vectors, so its output has the input's polar factor.
        rng = np.random.default_rng(13)
        for shape in ((6, 4), (4, 6), (8, 8), (16, 4)):
            a = rng.standard_normal(shape)
            res = np.abs(polar_exact(newton_schulz(a)) - polar_exact(a)).max()
            assert res <= 1e-12, shape

    @pytest.mark.parametrize("shape", [(3, 8), (8, 3), (1, 5), (5, 1)])
    def test_shapes_preserved(self, shape):
        rng = np.random.default_rng(14)
        a = rng.standard_normal(shape)
        assert newton_schulz(a).shape == shape

    def test_scale_invariance_bit_exact(self):
        # entries built so that c*a is exactly representable for both scales
        rng = np.random.default_rng(15)
        m = np.round(rng.standard_normal((6, 6)) * 2 ** 16) / 2 ** 16
        a = 1000.0 * m
        base = newton_schulz(a)
        for c in (1e-3, 1.0, 1e3):
            assert np.array_equal(newton_schulz(c * a), base)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            newton_schulz(np.zeros((3, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((7, 5))
        assert np.array_equal(newton_schulz(a), newton_schulz(a))


def _reference_newton_schulz(a, steps):
    # The iteration as first written, one new array per operation: the
    # bits newton_schulz must keep.
    a = as_matrix(a)
    scale = float(np.abs(a).max())
    ca, cb, cc = QUINTIC_COEFFS
    x = a / scale
    x = x / (frobenius_norm(x) + 1e-12)
    transposed = x.shape[0] > x.shape[1]
    if transposed:
        x = x.T
    for _ in range(steps):
        g = x @ x.T
        gx = g @ x
        x = ca * x + cb * gx + cc * (g @ gx)
    if transposed:
        x = x.T
    return x


# Every shape from 1x1 to 64x64: row, column, square, tall and wide.
_SHAPES = st.one_of(ROW_COLUMN_SQUARE, st.tuples(SIZES, SIZES))


@given(matrices(_SHAPES), st.integers(1, 6))
def test_newton_schulz_keeps_the_bits_of_the_reference(a, steps):
    assume(np.count_nonzero(a))
    ref = _reference_newton_schulz(a, steps)
    out = newton_schulz(a, steps=steps)
    assert out.shape == ref.shape == a.shape
    assert out.tobytes() == ref.tobytes()


# From k = min(m, n) = 16 BLAS may sum a product in another order for
# another memory layout of the iterate, so these shapes pin the layouts.
@pytest.mark.parametrize("shape", [(17, 16), (16, 17), (37, 32), (64, 20), (20, 64), (64, 64), (64, 1)])
@pytest.mark.parametrize("steps", [1, 2, 5])
def test_newton_schulz_keeps_the_reference_bits_at_blocked_sizes(shape, steps):
    a = np.random.default_rng(23).standard_normal(shape)
    a[::3, ::2] = -0.0
    assert newton_schulz(a, steps=steps).tobytes() == _reference_newton_schulz(a, steps).tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (8, 8), (5, 9), (20, 17)])
def test_newton_schulz_result_is_its_own(shape):
    a = np.random.default_rng(22).standard_normal(shape)
    kept = a.copy()
    first = newton_schulz(a)
    snapshot = first.copy()
    assert not np.shares_memory(first, a)
    second = newton_schulz(a)
    assert np.array_equal(a, kept)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == snapshot.tobytes() == second.tobytes()


class TestPolarExact:
    def test_positive_diagonal(self):
        assert np.allclose(polar_exact(np.diag([3.0, 4.0])), np.eye(2), atol=1e-12)

    def test_scaled_rotation(self):
        a = np.array([[0.0, -2.0], [2.0, 0.0]])
        assert np.allclose(polar_exact(a), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12)

    def test_rank_one(self):
        u = np.array([0.6, 0.8])
        v = np.array([1.0, 0.0])
        out = polar_exact(np.outer(u, v))
        assert np.allclose(out, np.outer(u, v), atol=1e-10)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            polar_exact(np.zeros((2, 2)))

    def test_orthogonal_columns_for_full_rank(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((5, 5))
        p = polar_exact(a)
        assert np.abs(p.T @ p - np.eye(5)).max() <= 1e-10

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        a = np.eye(3)
        a[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            polar_exact(a)

    @pytest.mark.parametrize("shape", [(8, 8), (3, 8), (8, 3), (1, 5), (64, 64), (128, 32), "rank2_8x5"],
                             ids=["8x8", "3x8", "8x3", "1x5", "64x64", "128x32", "rank2_8x5"])
    def test_matches_the_jacobi_oracle(self, shape):
        # LAPACK's polar against an independent SVD route, with the same
        # rank cut-off: criterion 2 pairs polar_exact with a LAPACK nuclear
        # norm, so this is the check that does not lean on LAPACK.
        rng = np.random.default_rng(24)
        if shape == "rank2_8x5":
            a = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 5))
        else:
            a = rng.standard_normal(shape)
        res = jacobi_svd(a)
        keep = res.s > 1e-12 * res.s[0]
        oracle = res.u[:, keep] @ res.vt[keep, :]
        assert np.abs(polar_exact(a) - oracle).max() <= 1e-12


class TestLmo:
    def test_hidden_oracle_positive_diagonal(self):
        out = lmo(Group.HIDDEN, np.diag([2.0, 0.5]), oracle=True)
        assert np.allclose(out, -np.eye(2), atol=1e-12)

    def test_embedding_sign_with_zero(self):
        out = lmo(Group.EMBEDDING_HEAD, np.array([[2.0, -3.0], [0.0, 1.0]]))
        assert np.array_equal(out, np.array([[-0.5, 0.5], [0.0, -0.5]]))

    def test_vector(self):
        out = lmo(Group.VECTOR_NORM, np.array([3.0, 4.0]))
        assert np.allclose(out, [-0.6 * math.sqrt(2.0), -0.8 * math.sqrt(2.0)], rtol=1e-12)

    @pytest.mark.parametrize("group", list(Group))
    def test_zero_input_returns_zero(self, group):
        shape = 4 if group is Group.VECTOR_NORM else (3, 4)
        out = lmo(group, np.zeros(shape))
        assert np.array_equal(out, np.zeros(shape))

    @pytest.mark.parametrize("group", list(Group))
    def test_sign_flip_equivariance(self, group):
        rng = np.random.default_rng(18)
        for _ in range(25):
            b = rng.standard_normal(6) if group is Group.VECTOR_NORM else rng.standard_normal((4, 5))
            assert np.array_equal(lmo(group, -b, oracle=True), -lmo(group, b, oracle=True))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lmo(Group.VECTOR_NORM, np.ones((2, 2)))
        with pytest.raises(ValueError):
            lmo(Group.HIDDEN, np.ones(4))

    def test_newton_schulz_mode_spectral_envelope(self):
        rng = np.random.default_rng(19)
        lo, hi = NS_SPECTRAL_ENVELOPE
        for _ in range(20):
            b = rng.standard_normal((8, 8))
            out = lmo(Group.HIDDEN, b)
            scaled_spec = primal_norm(Group.HIDDEN, out)
            assert lo * (1.0 - 1e-9) <= scaled_spec <= hi * (1.0 + 1e-9)

    @pytest.mark.parametrize("group", list(Group))
    def test_optimality_quick(self, group):
        # acceptance runs the full 2000 x 200 sweep; this is a smoke version
        rng = np.random.default_rng(20)
        shape = 6 if group is Group.VECTOR_NORM else (4, 6)
        feasible = []
        for _ in range(50):
            x = rng.standard_normal(shape)
            x = x / primal_norm(group, x) * rng.uniform()
            feasible.append(x)
        for _ in range(100):
            b = rng.standard_normal(shape)
            best = float(np.sum(b * lmo(group, b, oracle=True)))
            for x in feasible:
                assert best <= float(np.sum(b * x)) + 1e-9


def test_vector_lmo_unit_rms():
    rng = np.random.default_rng(21)
    w = rng.standard_normal(9)
    assert rms_norm(lmo(Group.VECTOR_NORM, w)) == pytest.approx(1.0, rel=1e-12)
