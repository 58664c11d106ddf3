import numpy as np
import pytest

from frbl.datum import (
    MAX_DIM,
    DatumValidationError,
    EquivalenceTransform,
    SpaceLayout,
    apply_equivalence,
    compose_transforms,
    datum_to_json,
    embed_blockdiag,
    make_datum,
    transform_from_json,
    transform_to_json,
    validate_datum,
)
from frbl.instances import loomis_whitney_2d, prekopa_leindler, young_frame


def pl_json(lam=1 / 3, d=1.0):
    return {
        "in_dims": [1, 1],
        "out_dims": [1],
        "c": [lam, 1 - lam],
        "d": [d],
        "Q": [[lam, 1 - lam]],
    }


class TestValidation:
    def test_prekopa_leindler_valid(self):
        datum = validate_datum(pl_json())
        assert datum.k == 2 and datum.m == 1
        np.testing.assert_array_equal(datum.q, [[1 / 3, 1 - 1 / 3]])

    def test_scaling_violation_named(self):
        with pytest.raises(DatumValidationError, match="scaling condition"):
            validate_datum(pl_json(d=2.0))

    def test_young_frame_scaling(self):
        datum = young_frame()
        # one 2-dimensional input factor against three 1/ (2/3)-weighted lines
        assert float(datum.c @ np.array(datum.layout.in_dims)) == pytest.approx(2.0)
        assert float(datum.d @ np.array(datum.layout.out_dims)) == pytest.approx(2.0)

    def test_all_violations_reported_together(self):
        raw = {
            "in_dims": [1, 1],
            "out_dims": [1],
            "c": [0.5, -0.5],
            "d": [1.0],
            "Q": [[1.0, 0.0, 0.0]],
        }
        with pytest.raises(DatumValidationError) as err:
            validate_datum(raw)
        text = str(err.value)
        assert "positive" in text and "shape" in text

    def test_missing_keys_reported(self):
        with pytest.raises(DatumValidationError, match="missing key"):
            validate_datum({"in_dims": [1]})

    def test_layout_rejects_bad_dims(self):
        with pytest.raises(DatumValidationError):
            SpaceLayout((0,), (1,))
        with pytest.raises(DatumValidationError):
            SpaceLayout((1,), ())

    @pytest.mark.parametrize("dims", [[1e400], [float("nan")], ["2"], [[1]], [1.5]])
    def test_unconvertible_dims_are_violations(self, dims):
        with pytest.raises(DatumValidationError, match="positive integers"):
            SpaceLayout(tuple(dims), (1,))

    def test_dimension_cap(self):
        SpaceLayout((MAX_DIM,), (1,) * MAX_DIM)
        for in_dims, out_dims, total in (((MAX_DIM + 1,), (1,), "dim_in"),
                                         ((2,), (MAX_DIM, 1), "dim_out")):
            with pytest.raises(DatumValidationError, match=f"{total} = 33 exceeds"):
                SpaceLayout(in_dims, out_dims)
        # the cap holds before Q is looked at
        with pytest.raises(DatumValidationError, match="MAX_DIM"):
            make_datum((10**6,), (1,), (1.0,), (1.0,), "not a matrix")


class TestBlocks:
    def test_reassembly_is_exact(self):
        for datum in (validate_datum(pl_json()), young_frame(), loomis_whitney_2d()):
            rebuilt = np.vstack([datum.out_row(j) for j in range(datum.m)])
            assert np.array_equal(rebuilt, datum.q)

    def test_index_out_of_range(self):
        datum = validate_datum(pl_json())
        with pytest.raises(IndexError):
            datum.out_row(1)
        with pytest.raises(IndexError):
            datum.out_row(-1)


class TestEmbedBlockdiag:
    def test_layout(self):
        out = embed_blockdiag((1, 2), [np.array([[5.0]]), np.eye(2) * 3.0])
        np.testing.assert_array_equal(out, np.diag([5.0, 3.0, 3.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            embed_blockdiag((2,), [np.eye(3)])


class TestEquivalence:
    def test_scalar_substitution(self):
        datum = make_datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[1.0, 1.0]])
        t = EquivalenceTransform(
            (np.array([[2.0]]), np.array([[2.0]])), (np.array([[1.0]]),)
        )
        out = apply_equivalence(datum, t)
        np.testing.assert_allclose(out.q, [[0.5, 0.5]], atol=1e-15)
        np.testing.assert_array_equal(out.c, datum.c)

    def test_identity_transform_is_noop(self):
        datum = young_frame()
        identity = EquivalenceTransform(tuple(np.eye(n) for n in datum.layout.in_dims),
                                        tuple(np.eye(n) for n in datum.layout.out_dims))
        out = apply_equivalence(datum, identity)
        np.testing.assert_allclose(out.q, datum.q, atol=1e-15)

    def test_roundtrip_through_inverse(self):
        rng = np.random.default_rng(2)
        datum = young_frame()
        t = EquivalenceTransform(
            (rng.standard_normal((2, 2)) + 2 * np.eye(2),),
            tuple(rng.standard_normal((1, 1)) + 2 * np.eye(1) for _ in range(3)),
        )
        inverse = EquivalenceTransform(tuple(np.linalg.inv(b) for b in t.c_blocks),
                                       tuple(np.linalg.inv(b) for b in t.d_blocks))
        back = apply_equivalence(apply_equivalence(datum, t), inverse)
        np.testing.assert_allclose(back.q, datum.q, atol=1e-12)

    def test_group_action(self):
        rng = np.random.default_rng(4)

        def random_transform(layout):
            return EquivalenceTransform(
                tuple(rng.standard_normal((d, d)) + 2 * np.eye(d) for d in layout.in_dims),
                tuple(rng.standard_normal((d, d)) + 2 * np.eye(d) for d in layout.out_dims),
            )

        datum = young_frame()
        for _ in range(10):
            t1 = random_transform(datum.layout)
            t2 = random_transform(datum.layout)
            stepwise = apply_equivalence(apply_equivalence(datum, t1), t2)
            combined = apply_equivalence(datum, compose_transforms(t2, t1))
            np.testing.assert_allclose(stepwise.q, combined.q, atol=1e-12)

    def test_singular_block_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            EquivalenceTransform((np.zeros((1, 1)),), (np.eye(1),))

    @pytest.mark.parametrize("scale", [1e-5, 1e5])
    def test_scaled_identity_blocks_are_accepted(self, scale):
        # |det| is 1e-15 or 1e15, yet the condition number is one
        t = EquivalenceTransform((scale * np.eye(3),), (np.eye(3) / scale,))
        np.testing.assert_array_equal(t.c_blocks[0], scale * np.eye(3))

    @pytest.mark.parametrize("block", [[[1.0, 1.0], [1.0, 1.0]], np.diag([1.0, 1e-13])],
                             ids=["rank-one", "cond-1e13"])
    def test_ill_conditioned_block_rejected(self, block):
        with pytest.raises(ValueError, match="singular"):
            EquivalenceTransform((np.eye(2),), (block,))

    def test_wrong_block_dims_rejected(self):
        datum = young_frame()
        t = EquivalenceTransform((np.eye(3),), (np.eye(1),) * 3)
        with pytest.raises(ValueError, match="does not match"):
            apply_equivalence(datum, t)


class TestJson:
    def test_datum_roundtrip_and_keys(self):
        datum = young_frame()
        obj = datum_to_json(datum)
        assert set(obj) == {"in_dims", "out_dims", "c", "d", "Q"}
        back = validate_datum(obj)
        np.testing.assert_array_equal(back.q, datum.q)
        np.testing.assert_array_equal(back.c, datum.c)
        assert back.layout == datum.layout

    def test_transform_roundtrip(self):
        t = EquivalenceTransform((np.array([[2.0]]),), (np.array([[3.0]]),))
        obj = transform_to_json(t)
        assert set(obj) == {"C", "D"}
        back = transform_from_json(obj)
        np.testing.assert_array_equal(back.c_blocks[0], t.c_blocks[0])

    def test_transform_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            transform_from_json({"C": []})
