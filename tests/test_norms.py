import json
import math

import numpy as np
import pytest

from lanton.checks import ConfigError
from lanton.harness import parse_config
from lanton.linalg import frobenius_norm
from lanton.lmo import lmo
from lanton.norms import Group, dual_norm, nuclear_norm, primal_norm, rms_norm
from lanton.optimizer import LayerSpec

from jacobi import jacobi_svd


def _random_element(group, rng):
    if group is Group.VECTOR_NORM:
        return rng.standard_normal(6)
    return rng.standard_normal((5, 4))


class TestNuclearNorm:
    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 4.0])) == pytest.approx(7.0)

    def test_rank_one_unit_outer_product(self):
        u = np.array([1.0, 2.0, 2.0]) / 3.0
        v = np.array([0.6, 0.8])
        assert nuclear_norm(np.outer(u, v)) == pytest.approx(1.0, rel=1e-12)

    def test_equals_jacobi_spectrum_sum(self):
        rng = np.random.default_rng(64)
        a = rng.standard_normal((6, 4))
        assert nuclear_norm(a) == pytest.approx(float(np.sum(jacobi_svd(a).s)), rel=1e-12)

    def test_sandwich_with_frobenius(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            a = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            nuc = nuclear_norm(a)
            fro = frobenius_norm(a)
            assert nuc >= fro * (1.0 - 1e-12)
            assert fro >= nuc / math.sqrt(min(a.shape)) * (1.0 - 1e-12)


class TestRmsNorm:
    def test_pythagorean(self):
        assert rms_norm(np.array([3.0, 4.0])) == pytest.approx(5.0 / math.sqrt(2.0))

    @pytest.mark.parametrize("d", [1, 2, 7, 33])
    def test_all_ones_is_unit(self, d):
        assert rms_norm(np.ones(d)) == pytest.approx(1.0, rel=1e-15)

    def test_zero(self):
        assert rms_norm(np.zeros(5)) == 0.0


class TestDualNorm:
    def test_hidden_square_equals_nuclear(self):
        assert dual_norm(Group.HIDDEN, np.diag([3.0, 4.0])) == pytest.approx(7.0)

    def test_hidden_rectangular_scaling(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 3))
        assert dual_norm(Group.HIDDEN, a) == pytest.approx(math.sqrt(2.0) * nuclear_norm(a), rel=1e-12)

    def test_embedding_default(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert dual_norm(Group.EMBEDDING_HEAD, a) == pytest.approx(5.0)

    def test_embedding_alternate(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert dual_norm(Group.EMBEDDING_HEAD, a, embedding_dual="alternate") == pytest.approx(6.0)

    def test_vector(self):
        assert dual_norm(Group.VECTOR_NORM, np.array([3.0, 4.0])) == pytest.approx(math.sqrt(2.0) * 5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dual_norm(Group.HIDDEN, np.ones(4))
        with pytest.raises(ValueError):
            dual_norm(Group.VECTOR_NORM, np.ones((2, 2)))

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            dual_norm(Group.EMBEDDING_HEAD, np.ones((2, 2)), embedding_dual="nope")

    @pytest.mark.parametrize("group", list(Group))
    def test_absolute_homogeneity(self, group):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            x = _random_element(group, rng)
            c = float(rng.uniform(-3.0, 3.0))
            lhs = dual_norm(group, c * x)
            rhs = abs(c) * dual_norm(group, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    @pytest.mark.parametrize("group", list(Group))
    def test_triangle_inequality(self, group):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            x = _random_element(group, rng)
            y = _random_element(group, rng)
            lhs = dual_norm(group, x + y)
            rhs = dual_norm(group, x) + dual_norm(group, y)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_zero_is_exactly_zero(self):
        assert dual_norm(Group.HIDDEN, np.zeros((3, 3))) == 0.0
        assert dual_norm(Group.EMBEDDING_HEAD, np.zeros((3, 3))) == 0.0
        assert dual_norm(Group.VECTOR_NORM, np.zeros(3)) == 0.0


@pytest.mark.parametrize("group", list(Group))
def test_duality_pairing_with_lmo(group):
    # <b, lmo(b)> = -dual(b); this pins the dual norm and the oracle together
    rng = np.random.default_rng(103)
    for _ in range(100):
        b = _random_element(group, rng)
        out = lmo(group, b, oracle=True)
        pairing = float(np.sum(b * out))
        target = -dual_norm(group, b)
        assert abs(pairing - target) <= 1e-9 * max(1.0, abs(target))


@pytest.mark.parametrize("group", list(Group))
def test_primal_norm_of_lmo_output_is_one(group):
    rng = np.random.default_rng(104)
    for _ in range(50):
        b = _random_element(group, rng)
        out = lmo(group, b, oracle=True)
        assert primal_norm(group, out) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("shape", [(3,), (3, 2), (3, 2, 2)])
@pytest.mark.parametrize("group,rank", [(Group.HIDDEN, 2), (Group.EMBEDDING_HEAD, 2), (Group.VECTOR_NORM, 1)])
def test_every_reader_takes_exactly_the_shapes_of_the_group_rank(group, rank, shape):
    doc = {"task": {"kind": "quadratic", "layers": [{"name": "w", "group": group.value, "shape": list(shape)}]},
           "optimizer": {}, "total_steps": 2}
    x = np.ones(shape)
    readers = [lambda: LayerSpec("w", shape, group), lambda: dual_norm(group, x), lambda: lmo(group, x)]
    assert group.rank == rank
    if len(shape) == rank:
        parse_config(json.dumps(doc))
        for read in readers:
            read()
        return
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.field == "task.layers[0].shape"
    for read in readers:
        with pytest.raises(ValueError):
            read()
