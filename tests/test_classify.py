import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictpair import Hyperparams, classify_sample, evaluate, partition_by_class
from dictpair import classify as classify_module
from dictpair import solver
from dictpair.classify import EVAL_BLOCK, class_residuals
from dictpair.data import LabeledDataset
from dictpair.model import DictionaryPair, load_model, save_model

from conftest import traced_peak


def two_class_model(D1, P1, D2, P2):
    return DictionaryPair(D=[np.asarray(D1, float), np.asarray(D2, float)],
                          P=[np.asarray(P1, float), np.asarray(P2, float)])


def test_identity_vs_zero_model():
    # class 1 reconstructs exactly, class 2 maps everything to zero
    model = two_class_model(np.eye(3), np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)))
    y = np.array([1.0, -2.0, 0.5])
    assert classify_sample(y, model) == 1


def test_all_zero_tie_breaks_to_first():
    model = two_class_model(np.zeros((2, 2)), np.zeros((2, 2)),
                            np.zeros((2, 2)), np.zeros((2, 2)))
    assert classify_sample(np.array([3.0, 4.0]), model) == 1


def test_residuals_match_bruteforce(rng):
    model = two_class_model(rng.standard_normal((4, 2)), rng.standard_normal((2, 4)),
                            rng.standard_normal((4, 3)), rng.standard_normal((3, 4)))
    y = rng.standard_normal(4)
    res = class_residuals(y, model)
    for l, (D, P) in enumerate(zip(model.D, model.P)):
        direct = np.sqrt(np.sum((y - D @ P @ y) ** 2))
        assert abs(res[l] - direct) < 1e-12


def test_dimension_mismatch():
    model = two_class_model(np.eye(3), np.eye(3), np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="dimension"):
        classify_sample(np.ones(4), model)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_positive_scaling_invariance(scale):
    rng = np.random.default_rng(7)
    model = two_class_model(rng.standard_normal((4, 2)), rng.standard_normal((2, 4)),
                            rng.standard_normal((4, 2)), rng.standard_normal((2, 4)))
    y = rng.standard_normal(4)
    assert classify_sample(y, model) == classify_sample(scale * y, model)


def test_residual_never_forms_dense_product(monkeypatch):
    # one D_l P_l at n = 2000 is a 32 MB allocation; building the Gram-form
    # operator of a fresh model and applying it to a vector or to a matrix
    # stays far below that
    rng = np.random.default_rng(5)
    n = 2000
    for y in (rng.standard_normal(n), rng.standard_normal((n, 8))):
        assert traced_peak(class_residuals, y, random_model(rng, n, [5, 5, 5])) < n * n * 8 / 10
    # with the operator cached, a batched call allocates the 2K x N product
    # and the c x N result, and little else (a K x N product and two c x N
    # temporaries more put it at 1.47x)
    n, N, ks = 300, 400, [5] * 10
    model, Y = random_model(rng, n, ks), rng.standard_normal((n, N))
    class_residuals(Y, model)
    assert traced_peak(class_residuals, Y, model) <= 1.25 * (2 * sum(ks) + len(ks)) * N * 8
    # a matrix of many blocks allocates the c x N result, and each of two
    # workers one block's 2K x B product at a time, never the 2K x N product
    monkeypatch.setattr(solver, "_worker_count", lambda c: min(c, 2))
    N = 8 * EVAL_BLOCK
    Y = rng.standard_normal((n, N))
    bound = 1.25 * (len(ks) * N + 2 * (2 * sum(ks) + len(ks)) * EVAL_BLOCK) * 8
    assert traced_peak(class_residuals, Y, model) <= bound


def test_evaluate_recount_oracle(rng):
    model = two_class_model(rng.standard_normal((3, 2)), rng.standard_normal((2, 3)),
                            rng.standard_normal((3, 2)), rng.standard_normal((2, 3)))
    X = rng.standard_normal((3, 12))
    labels = np.array([1, 2] * 6)
    ds = partition_by_class(X, labels)
    report = evaluate(ds, model)
    # the whole report, recounted from one classify_sample call per column
    expected = np.zeros((2, 2), dtype=int)
    for j in range(12):
        expected[labels[j] - 1, classify_sample(X[:, j], model) - 1] += 1
    assert np.array_equal(report.confusion, expected)
    assert report.accuracy == np.trace(expected) / 12
    assert report.per_class_accuracy.tolist() == [expected[0, 0] / 6, expected[1, 1] / 6]


# --- batched residuals in evaluate -------------------------------------------

def random_model(rng, n, ks):
    return DictionaryPair(D=[rng.standard_normal((n, k)) for k in ks],
                          P=[rng.standard_normal((k, n)) for k in ks])


def assert_matches_columns(model, Y):
    # reference: the direct form, one reconstruction D_l (P_l Y) per class
    direct = np.stack([np.linalg.norm(Y - D_l @ (P_l @ Y), axis=0) for D_l, P_l in zip(model.D, model.P)])
    batched = class_residuals(Y, model)
    assert batched.shape == (model.n_classes, Y.shape[1])
    assert np.all(np.abs(batched - direct) <= 1e-12 * direct)
    for j in range(Y.shape[1]):
        single = class_residuals(Y[:, j], model)
        assert single.shape == (model.n_classes,)
        assert np.all(np.abs(single - direct[:, j]) <= 1e-12 * direct[:, j])


def test_batched_residuals_match_per_column_unequal_atoms(rng):
    assert_matches_columns(random_model(rng, 6, [1, 3, 2]), rng.standard_normal((6, 25)))


def test_batched_residuals_match_per_column_over_several_blocks(rng):
    assert_matches_columns(random_model(rng, 6, [1, 3, 2]), rng.standard_normal((6, 2 * EVAL_BLOCK + 3)))


@pytest.mark.parametrize("workers", [1, 3])
def test_blocked_residuals_are_bitwise_the_same_at_any_worker_count(monkeypatch, rng, workers):
    # the blocks are cut the same way at every worker count, and each block's
    # residuals are those of a one-block call on its columns
    model, Y = random_model(rng, 40, [3, 5, 4, 2]), rng.standard_normal((40, 2 * EVAL_BLOCK + 3))
    blocks = [class_residuals(Y[:, s:s + EVAL_BLOCK], model) for s in range(0, Y.shape[1], EVAL_BLOCK)]
    monkeypatch.setattr(solver, "_worker_count", lambda c: min(c, workers))
    widths, kernel = [], classify_module._block_residuals

    def recorded(rows, starts, y, sq):
        widths.append(y.shape[1])
        return kernel(rows, starts, y, sq)

    monkeypatch.setattr(classify_module, "_block_residuals", recorded)
    # a short switch interval interleaves the workers' writes into the result
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        residuals = class_residuals(Y, model)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(widths) == [3, EVAL_BLOCK, EVAL_BLOCK]
    assert residuals.tobytes() == np.concatenate(blocks, axis=1).tobytes()


def test_evaluate_leaves_no_helper_thread_running(monkeypatch, rng):
    monkeypatch.setattr(solver, "_worker_count", lambda c: min(c, 3))
    N = 3 * EVAL_BLOCK + 1
    ds = partition_by_class(rng.standard_normal((8, N)), np.arange(N) % 3 + 1)
    before = threading.active_count()
    evaluate(ds, random_model(rng, 8, [2, 2, 2]))
    assert threading.active_count() == before


def test_batched_residuals_match_per_column_trained(trained_standard, standard_split):
    _, test_ds = standard_split
    assert_matches_columns(trained_standard[0], test_ds.X)


def test_evaluate_matches_classify_sample_on_trained_model(trained_standard, standard_split):
    pair = trained_standard[0]
    _, test_ds = standard_split
    predicted = np.array([classify_sample(test_ds.X[:, j], pair) for j in range(test_ds.n_samples)])
    assert np.array_equal(np.argmin(class_residuals(test_ds.X, pair), axis=0) + 1, predicted)
    expected = np.zeros((3, 3), dtype=int)
    for true, pred in zip(test_ds.labels, predicted):
        expected[true - 1, pred - 1] += 1
    assert np.array_equal(evaluate(test_ds, pair).confusion, expected)


def test_evaluate_zero_model_predicts_first_class(rng):
    ds = partition_by_class(rng.standard_normal((4, 9)), np.array([1, 2, 3] * 3))
    zero = DictionaryPair(D=[np.zeros((4, 2))] * 3, P=[np.zeros((2, 4))] * 3)
    assert np.array_equal(evaluate(ds, zero).confusion, [[3, 0, 0], [3, 0, 0], [3, 0, 0]])


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_evaluate_positive_scaling_invariance(scale):
    rng = np.random.default_rng(11)
    model = random_model(rng, 5, [2, 2, 2])
    X = rng.standard_normal((5, 30))
    labels = np.array([1, 2, 3] * 10)
    confusion = evaluate(partition_by_class(X, labels), model).confusion
    assert np.array_equal(evaluate(partition_by_class(scale * X, labels), model).confusion, confusion)


def test_exact_reconstruction_raises_no_warning():
    # Gram-form rounding makes some of these r^2 slightly negative before the
    # clamp; the sqrt of a negative would be a RuntimeWarning
    Y = np.random.default_rng(3).standard_normal((6, 40))
    model = DictionaryPair(D=[np.eye(6), np.zeros((6, 2))], P=[np.eye(6), np.zeros((2, 6))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residuals = class_residuals(Y, model)
    assert np.all(residuals[0] <= 1e-7 * np.linalg.norm(Y, axis=0))
    assert np.all(residuals[0] >= 0)


def test_evaluate_calls_class_residuals_once(monkeypatch, trained_standard, standard_split):
    calls = []

    def counted(y, model):
        calls.append(np.shape(y))
        return class_residuals(y, model)

    monkeypatch.setattr(classify_module, "class_residuals", counted)
    _, test_ds = standard_split
    evaluate(test_ds, trained_standard[0])
    assert calls == [test_ds.X.shape]


def test_evaluate_rejects_more_model_classes_than_labels(rng):
    ds = partition_by_class(rng.standard_normal((4, 6)), np.array([1, 2] * 3))
    with pytest.raises(ValueError, match="model has 3 classes, test labels have 2"):
        evaluate(ds, random_model(rng, 4, [2, 2, 2]))


def test_batched_dimension_mismatch(rng):
    with pytest.raises(ValueError, match="sample dimension 5 != model dimension 4"):
        class_residuals(np.ones((5, 3)), random_model(rng, 4, [2, 2]))


def test_batched_rejects_class_without_atoms(rng):
    model = random_model(rng, 4, [2, 0, 1])
    with pytest.raises(ValueError, match="class 2 has no atoms"):
        class_residuals(np.ones((4, 3)), model)


def test_classify_sample_takes_exactly_one_sample(rng):
    # a 4 x 5 matrix used to give the argmin over all 3 x 5 residuals (label 8)
    model = random_model(rng, 4, [2, 2, 2])
    y = rng.standard_normal(4)
    assert classify_sample(y[:, None], model) == classify_sample(y, model)
    for bad in (rng.standard_normal((4, 5)), rng.standard_normal((4, 2))):
        with pytest.raises(ValueError, match="one vector or n x 1 column"):
            classify_sample(bad, model)


@pytest.mark.parametrize("shape", [(2, 2, 1), ()])
def test_class_residuals_rejects_other_than_vector_or_matrix(rng, shape):
    # a (2, 2, 1) array used to be flattened and classified as a 4-vector
    with pytest.raises(ValueError, match="got shape"):
        class_residuals(np.ones(shape), random_model(rng, 4, [2, 2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_non_finite_sample_is_rejected(rng, bad):
    # it used to be classified as class 1, with a RuntimeWarning (an error here);
    # 1e200 is finite, but its squared norm overflows
    model = random_model(rng, 4, [2, 2])
    with pytest.raises(ValueError, match="sample column 0 has a NaN"):
        classify_sample(np.full(4, bad), model)


def test_evaluate_rejects_non_finite_column(rng):
    # partition_by_class rejects this matrix; a dataset built directly does not,
    # and its NaN column used to count as a class-1 prediction
    X = rng.standard_normal((4, 4))
    X[2, 3] = np.nan
    ds = LabeledDataset(X=X, labels=np.array([1, 2, 1, 2]))
    with pytest.raises(ValueError, match="sample column 3 has a NaN"):
        evaluate(ds, random_model(rng, 4, [2, 2]))


def test_residual_operator_is_built_on_first_use(rng, tmp_path):
    # loading a model does not build it (that cost would land in load time);
    # the first classification does, and later calls reuse it
    path = tmp_path / "m.model"
    save_model(path, random_model(rng, 4, [2, 3]), Hyperparams())
    pair, _ = load_model(path)
    assert "residual_operator" not in vars(pair)
    classify_sample(np.ones(4), pair)
    rows = vars(pair)["residual_operator"][0]
    class_residuals(np.ones((4, 3)), pair)
    assert vars(pair)["residual_operator"][0] is rows
    assert rows.shape == (10, 4)
