import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frbl.linalg import SymMatrix, psd_project

from _oracles import eig2x2

square_matrices = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: arrays(
        np.float64,
        (n, n),
        elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    )
)


class TestSymMatrix:
    def test_mirrors_upper_triangle(self):
        m = SymMatrix([[1.0, 2.0], [999.0, 3.0]])
        np.testing.assert_array_equal(m.mat, [[1.0, 2.0], [2.0, 3.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_immutable(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.mat[0, 0] = 5.0

    def test_array_copies_unless_told_not_to(self):
        m = SymMatrix(np.eye(2))
        for copied in (np.array(m), np.array(m, copy=True), np.array(m, dtype=np.float32)):
            assert copied.flags.writeable and not np.shares_memory(copied, m.mat)
            copied[0, 0] = 5.0
        assert m.mat[0, 0] == 1.0
        assert np.asarray(m) is m.mat

    def test_bits_equal_triangle_sum(self):
        rng = np.random.default_rng(71)
        inputs = [np.array([[-0.0]]), np.array([[2.5]])]
        for n in range(1, 9):
            raw = rng.standard_normal((n, n))
            signed_zeros = raw.copy()
            signed_zeros[rng.random((n, n)) < 0.4] = -0.0
            inputs += [raw, np.asfortranarray(raw), signed_zeros]
        for raw in inputs:
            m = SymMatrix(raw).mat
            assert m.tobytes() == (np.triu(raw) + np.triu(raw, 1).T).tobytes()
            assert m.flags.c_contiguous and not m.flags.writeable

    def test_input_left_untouched(self):
        raw = np.array([[-0.0, 2.0], [3.0, 4.0]])
        again = SymMatrix(SymMatrix(raw))
        assert raw.tobytes() == np.array([[-0.0, 2.0], [3.0, 4.0]]).tobytes()
        np.testing.assert_array_equal(again.mat, [[0.0, 2.0], [2.0, 4.0]])

    @pytest.mark.parametrize("raw", [[1.0, 2.0], [[[1.0]]], np.ones((2, 3))])
    def test_rejects_other_shapes(self, raw):
        with pytest.raises(ValueError, match="square"):
            SymMatrix(raw)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_anywhere(self, bad):
        for i, j in ((0, 0), (0, 2), (2, 0)):
            raw = np.eye(3)
            raw[i, j] = bad
            with pytest.raises(ValueError, match="finite"):
                SymMatrix(raw)


class TestPsdProject:
    def test_diagonal_clipping(self):
        p = psd_project(SymMatrix(np.diag([2.0, -3.0])))
        np.testing.assert_allclose(p.mat, np.diag([2.0, 0.0]), atol=1e-15)

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((4, 4))
        m = SymMatrix(g @ g.T)
        p = psd_project(m)
        assert np.abs(p.mat - m.mat).max() <= 1e-12 * max(1.0, np.linalg.norm(m.mat))

    def test_off_diagonal_example(self):
        # eigenvalues of [[0,1],[1,0]] are -1 and 1; clipping -1 leaves
        # the rank-one projector scaled by 1
        assert eig2x2([[0.0, 1.0], [1.0, 0.0]]) == (-1.0, 1.0)
        p = psd_project(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(p.mat, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    @given(square_matrices)
    @settings(max_examples=60)
    def test_idempotent(self, raw):
        p = psd_project(SymMatrix(raw))
        pp = psd_project(p)
        assert np.linalg.norm(pp.mat - p.mat) <= 1e-12 * max(1.0, np.linalg.norm(p.mat))
        assert np.linalg.eigvalsh(p.mat)[0] >= -1e-13 * max(1.0, np.linalg.norm(p.mat))

