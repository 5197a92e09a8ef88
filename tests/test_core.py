import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calrisk.core import (
    CANONICAL,
    TOP_LABEL,
    Dataset,
    InputError,
    one_hot,
    residual_matrix,
    top_label_dataset,
)
from oracles import pair_target, pair_target_matrix, softmax, top_label

# high-precision reference evaluation of exp/sum for logits (1, 2, 3)
SOFTMAX_123 = (0.09003057317038046, 0.24472847105479765, 0.6652409557748219)


def simplex_vectors(min_dim=2, max_dim=6):
    return (
        st.integers(min_dim, max_dim)
        .flatmap(lambda d: st.lists(st.floats(1e-3, 10.0), min_size=d, max_size=d))
        .map(lambda w: np.array(w) / np.sum(w))
    )


def samples(min_dim=2, max_dim=6):
    # (probs, label) tuples
    return simplex_vectors(min_dim, max_dim).flatmap(
        lambda p: st.integers(0, p.size - 1).map(lambda y: (p, y))
    )


def dataset_of(sample_list):
    return Dataset(np.stack([p for p, _ in sample_list]), [y for _, y in sample_list])


def sample_pairs():
    # two samples sharing one dimension
    return st.integers(2, 6).flatmap(
        lambda d: st.tuples(samples(d, d), samples(d, d))
    )


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_shift_invariance(self):
        for c in (-3.0, 0.0, 17.5):
            np.testing.assert_allclose(softmax([c, c, c]), np.full(3, 1 / 3))

    def test_reference_values(self):
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), SOFTMAX_123, rtol=1e-12)

    def test_temperature(self):
        hot = softmax([1.0, 2.0], temperature=100.0)
        assert abs(hot[0] - 0.5) < 0.01
        cold = softmax([1.0, 2.0], temperature=0.01)
        assert cold[1] > 0.999

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            softmax([np.inf, 0.0])
        with pytest.raises(InputError):
            softmax([1.0, 2.0], temperature=0.0)


class TestPairTarget:
    def test_zero_residual(self):
        s = ([0.0, 1.0, 0.0], 1)
        assert pair_target(s, s) == 0.0

    def test_hand_computed_cross_pair(self):
        si = ([0.5, 0.5], 0)
        sj = ([0.5, 0.5], 1)
        assert pair_target(si, sj) == pytest.approx(-0.5, abs=1e-15)

    def test_hand_computed_self_pair(self):
        s = ([0.8, 0.2], 0)
        assert pair_target(s, s) == pytest.approx(0.08, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            pair_target(([0.5, 0.5], 0), ([0.2, 0.3, 0.5], 1))

    @given(sample_pairs())
    def test_symmetric(self, pair):
        si, sj = pair
        assert pair_target(si, sj) == pair_target(sj, si)

    @given(samples())
    def test_self_pair_nonnegative(self, s):
        assert pair_target(s, s) >= 0.0

    @given(sample_pairs())
    def test_top_label_is_half_the_two_vector_form(self, pair):
        # the scalar (c-a)(c'-a') form against the canonical inner product
        # of ((c, 1-c), correctness one-hot) residuals, which is 2x larger
        reduced = []
        for p, y in pair:
            c, a = top_label(p, y)
            reduced.append(([c, 1.0 - c], 0 if a else 1))
        scalar = pair_target(pair[0], pair[1], mode=TOP_LABEL)
        vector = pair_target(reduced[0], reduced[1], mode=CANONICAL)
        assert 2.0 * scalar == pytest.approx(vector, abs=1e-12)

    @given(sample_pairs())
    def test_canonical_bound(self, pair):
        si, sj = pair
        assert abs(pair_target(si, sj)) <= si[0].size * 1.0 + 1e-12


class TestResidualMatrix:
    @given(st.lists(samples(4, 4), min_size=1, max_size=20))
    def test_rows_sum_to_zero(self, sample_list):
        ds = dataset_of(sample_list)
        D = residual_matrix(ds)
        # bit for bit the explicit one-hot difference
        np.testing.assert_array_equal(D, ds.probs - one_hot(ds.labels, 4))
        assert D.shape == (len(sample_list), 4)
        np.testing.assert_allclose(D.sum(axis=1), 0.0, atol=1e-12)
        assert np.all(np.abs(D) <= 1.0 + 1e-12)

    def test_top_label_residuals(self):
        ds = Dataset(np.array([[0.9], [0.6]]), np.array([1, 0]), TOP_LABEL)
        np.testing.assert_allclose(residual_matrix(ds), [[-0.1], [0.6]], atol=1e-15)
        # bit for bit confidence minus the integer correctness labels
        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(size=(50, 1)), rng.integers(0, 2, 50), TOP_LABEL)
        np.testing.assert_array_equal(residual_matrix(ds),
                                      (ds.probs[:, 0] - ds.labels)[:, None])

    @given(st.lists(samples(3, 3), min_size=2, max_size=10))
    def test_pair_target_matrix_matches_pointwise(self, sample_list):
        ds = dataset_of(sample_list)
        T = pair_target_matrix(ds)
        for i in range(len(ds)):
            for j in range(len(ds)):
                expected = pair_target(sample_list[i], sample_list[j])
                assert T[i, j] == pytest.approx(expected, abs=1e-12)


class TestDataset:
    def test_validates_rows(self):
        with pytest.raises(InputError):
            Dataset(np.array([[0.4, 0.4]]), np.array([0]), CANONICAL)

    def test_validates_labels(self):
        with pytest.raises(InputError):
            Dataset(np.array([[0.5, 0.5]]), np.array([2]), CANONICAL)

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, np.nan], [0.0, np.inf]])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(InputError, match="labels must be integers"):
            Dataset(np.array([[0.5, 0.5], [0.2, 0.8]]), np.array(labels), CANONICAL)

    def test_integer_valued_float_labels_accepted(self):
        ds = Dataset(np.array([[0.5, 0.5], [0.2, 0.8]]), np.array([1.0, 0.0]), CANONICAL)
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_top_label_requires_binary_labels(self):
        with pytest.raises(InputError):
            Dataset(np.array([[0.9]]), np.array([3]), TOP_LABEL)

    def test_subset_preserves_mode(self):
        ds = Dataset(np.array([[0.9], [0.6], [0.3]]), np.array([1, 0, 1]), TOP_LABEL)
        sub = ds.subset([2, 0])
        assert sub.mode == TOP_LABEL
        np.testing.assert_allclose(sub.probs[:, 0], [0.3, 0.9])

    def test_top_label_dataset(self):
        # a correct and a wrong prediction, then argmax ties, which break
        # toward the lowest index
        ds = Dataset(
            np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.4, 0.4, 0.2]]),
            np.array([0, 2, 1, 0]),
            CANONICAL,
        )
        top = top_label_dataset(ds)
        assert top.mode == TOP_LABEL
        np.testing.assert_allclose(top.probs[:, 0], [0.7, 0.6, 0.4, 0.4])
        np.testing.assert_array_equal(top.labels, [1, 0, 0, 1])


@given(st.integers(0, 4))
def test_one_hot(label):
    v = one_hot([label], 5)[0]
    assert v[label] == 1.0 and v.sum() == 1.0
