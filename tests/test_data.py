import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dictpair import data, metrics


# --- matrix text I/O ---------------------------------------------------------

def test_load_single_entry(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 1\n2.5\n")
    M = data.load_matrix(p)
    assert M.shape == (1, 1) and M[0, 0] == 2.5


def test_load_identity(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 2\n1 0\n0 1\n")
    assert np.array_equal(data.load_matrix(p), np.eye(2))


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        data.load_matrix(tmp_path / "nope.txt")


def test_load_count_mismatch(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 2\n1 2 3\n")
    with pytest.raises(ValueError, match="expected 4 values"):
        data.load_matrix(p)


def test_load_non_numeric(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 2\n1 abc\n")
    with pytest.raises(ValueError, match=r"m\.txt, line 2: expected a number, got 'abc'"):
        data.load_matrix(p)


def test_load_values_over_any_lines(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 2\n1\n\n2 3\n4\n\n")
    assert np.array_equal(data.load_matrix(p), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("text, message", [
    ("", r"m\.txt: truncated file \(missing matrix header"),
    ("2 x\n1 2\n", r"m\.txt, line 1: expected an integer, got 'x'"),
    ("-3 -1\n1 2 3\n", r"m\.txt, line 1: dimensions must be positive, got -3x-1"),
    ("1 2\n1 2 3\n", r"m\.txt, line 2: expected 2 values for a 1x2 matrix, found more"),
    ("1 2\n1 2\n\n3\n", r"m\.txt, line 4: expected 2 values for a 1x2 matrix, found more"),
    ("1000000 1000000\n1 2\n", r"m\.txt: expected 1000000000000 values for a 1000000x1000000 matrix, found 2"),
    # line numbers keep counting while short lines are gathered for conversion
    ("600 1\n" + "1\n" * 299 + "x\n" + "1\n" * 300, r"m\.txt, line 301: expected a number, got 'x'"),
    ("600 1\n" + "1\n" * 599 + "1 2\n", r"m\.txt, line 601: expected 600 values for a 600x1 matrix, found more"),
    ("600 1\n" + "1\n" * 10 + "x\n", r"m\.txt, line 12: expected a number, got 'x'"),
    ("4 1\n1\nx\n1\n1 2\n", r"m\.txt, line 3: expected a number, got 'x'"),
    # a non-finite value past the block's last value is part of the overflow, not a row of the block
    ("2 2\n1 2\n3 4 nan\n", r"m\.txt, line 3: expected 4 values for a 2x2 matrix, found more"),
], ids=["empty", "non-integer-header", "negative-header", "overfull-line", "values-left-over", "huge-header",
        "bad-token-among-short-lines", "overfull-after-short-lines", "bad-token-in-a-truncated-block",
        "bad-token-before-an-overfull-line", "non-finite-past-the-block"])
def test_load_malformed_block_names_line(tmp_path, text, message):
    p = tmp_path / "m.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        data.load_matrix(p)


@pytest.mark.parametrize("text, line, token, where", [
    ("2 2\n1 2\n3 nan\n", 3, "nan", "row 1, column 1"),
    ("2 2\n1 2\n3 inf\n", 3, "inf", "row 1, column 1"),
    ("2 2\n1 2\n3 -inf\n", 3, "-inf", "row 1, column 1"),
    ("2 2\n1 2\n3 NaN\n", 3, "NaN", "row 1, column 1"),
    # quoted from the line it sits on, counted over lines of uneven length
    ("2 3\n1\n\n2 3 4\n5 -Infinity\n", 5, "-Infinity", "row 1, column 2"),
    # within the block on the line that overfills it: named before the overflow
    ("2 2\n1 2\nnan 4 5\n", 3, "nan", "row 1, column 0"),
], ids=["nan", "inf", "-inf", "NaN", "later-uneven-line", "inside-an-overfull-line"])
def test_load_non_finite(tmp_path, text, line, token, where):
    p = tmp_path / "m.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=rf"m\.txt, line {line}: non-finite value '{token}' at {where}"):
        data.load_matrix(p)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_non_finite_from_a_pipe():
    # the file is read once: a pipe cannot be reopened to quote the token
    r, w = os.pipe()
    try:
        os.write(w, b"2 2\n1 2\nnan 4\n")
        os.close(w)
        with pytest.raises(ValueError, match=rf"/dev/fd/{r}, line 3: non-finite value 'nan' at row 1, column 0"):
            data.load_matrix(f"/dev/fd/{r}")
    finally:
        os.close(r)


@pytest.mark.parametrize("shape", [(300, 400), (20000, 1)], ids=["rows", "one-column"])
def test_load_peak_memory_is_about_twice_the_array(tmp_path, rng, shape):
    # the per-line arrays and their join; a list of Python floats, one per
    # value, and its conversion peaked at 5.07x. A one-column file has one
    # value per line: an array per line, never joined, peaked at 20x
    import tracemalloc

    M = rng.standard_normal(shape)
    p = tmp_path / "m.txt"
    data.save_matrix(p, M)
    tracemalloc.start()
    try:
        loaded = data.load_matrix(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded, M)
    assert peak <= 2.5 * M.nbytes


def test_load_bad_header(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n1 2\n")
    with pytest.raises(ValueError, match="header"):
        data.load_matrix(p)


def test_roundtrip_random(tmp_path, rng):
    M = rng.standard_normal((5, 7))
    p = tmp_path / "m.txt"
    data.save_matrix(p, M)
    assert np.array_equal(data.load_matrix(p), M)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-1e12, 1e12, allow_nan=False)))
def test_roundtrip_property(tmp_path_factory, M):
    p = tmp_path_factory.mktemp("rt") / "m.txt"
    data.save_matrix(p, M)
    assert np.array_equal(data.load_matrix(p), M)


@pytest.mark.parametrize("M, message", [
    (np.zeros((3, 0)), "dimensions must be positive, got 3x0"),
    (np.zeros((0, 3)), "dimensions must be positive, got 0x3"),
    ([[1.0, np.nan]], "non-finite value nan at row 0, column 1"),
    ([[np.inf]], "non-finite value inf at row 0, column 0"),
], ids=["3x0", "0x3", "nan", "inf"])
def test_save_rejects_what_load_rejects(tmp_path, M, message):
    p = tmp_path / "m.txt"
    with pytest.raises(ValueError, match=r"m\.txt: " + message):
        data.save_matrix(p, M)
    assert not p.exists()


def per_value_rows(M, sep):
    """The writers' former per-value formula: the bytes that matrix, model and
    CSV files keep."""
    return "".join(sep.join(f"{v:.17g}" for v in row) + "\n" for row in M)


EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 2.0, 1e16, 1e22, -1e-300]


def pinned_matrix(name):
    rng = np.random.default_rng(5)
    if name == "edge-values":
        return np.array([EDGE_VALUES, [-v for v in EDGE_VALUES]])
    if name == "transposed":
        return rng.standard_normal((6, 4)).T
    if name == "column-sliced":
        return rng.standard_normal((5, 12))[:, ::3]
    if name == "several-chunks":
        M = rng.standard_normal((7, 20000)) * 10.0 ** rng.integers(-300, 300, (7, 20000))
        assert M.shape[1] < data.ROWS_CHUNK_VALUES < M.size
        return M
    if name == "row-over-one-chunk":
        return rng.standard_normal((2, data.ROWS_CHUNK_VALUES + 17))
    assert name == "no-columns"
    return np.zeros((3, 0))


PINNED = ["edge-values", "transposed", "column-sliced", "several-chunks", "row-over-one-chunk", "no-columns"]


@pytest.mark.parametrize("name", PINNED)
def test_write_block_keeps_the_per_value_bytes(name):
    M = pinned_matrix(name)
    fh = io.StringIO()
    data.write_block(fh, M)
    assert fh.getvalue() == f"{M.shape[0]} {M.shape[1]}\n" + per_value_rows(M, " ")


@pytest.mark.parametrize("name", PINNED)
def test_write_csv_matrix_keeps_the_per_value_bytes(tmp_path, name):
    M = pinned_matrix(name)
    metrics.write_csv_matrix(tmp_path / "m.csv", M)
    assert (tmp_path / "m.csv").read_text(encoding="ascii") == per_value_rows(M, ",")


def test_labels_roundtrip(tmp_path):
    p = tmp_path / "l.txt"
    labels = np.array([1, 2, 1, 3])
    data.save_labels(p, labels)
    assert np.array_equal(data.load_labels(p), labels)


def test_labels_bad_token_names_file_and_line(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("1\n2\n2.5\n1\n")
    with pytest.raises(ValueError, match=r"l\.txt, line 3: expected an integer, got '2\.5'"):
        data.load_labels(p)


# --- normalization -----------------------------------------------------------

def test_normalize_345():
    X = np.array([[3.0], [4.0]])
    out = data.normalize_unit_l2(X)
    np.testing.assert_allclose(out[:, 0], [0.6, 0.8], rtol=0, atol=1e-15)


def test_normalize_idempotent():
    X = np.array([[0.6], [0.8]])
    np.testing.assert_allclose(data.normalize_unit_l2(X), X, rtol=0, atol=1e-15)


def test_normalize_norms_oracle(rng):
    X = rng.standard_normal((10, 20)) + 2.0
    out = data.normalize_unit_l2(X)
    # recompute column norms entry by entry
    for j in range(out.shape[1]):
        norm = sum(out[i, j] ** 2 for i in range(out.shape[0])) ** 0.5
        assert abs(norm - 1.0) < 1e-12
    # directions preserved: out is a positive multiple of X columnwise
    ratios = X / out
    assert np.allclose(ratios, ratios[0:1, :])


def test_normalize_zero_column_error():
    X = np.zeros((3, 2))
    X[:, 0] = [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="column 1"):
        data.normalize_unit_l2(X)


# --- random projection -------------------------------------------------------

def test_projection_row_norms():
    out = data.random_projection_features(np.eye(6), 4, seed=5)
    norms = np.linalg.norm(out, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)


def test_projection_determinism(rng):
    X = rng.standard_normal((6, 9))
    a = data.random_projection_features(X, 3, seed=11)
    b = data.random_projection_features(X, 3, seed=11)
    assert np.array_equal(a, b)


def test_projection_identity_recovers():
    # with X = I the output is the projection matrix itself
    out = data.random_projection_features(np.eye(4), 2, seed=0)
    assert out.shape == (2, 4)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-12)


def test_projection_bad_dim():
    with pytest.raises(ValueError):
        data.random_projection_features(np.eye(3), 0, seed=0)


# --- partitioning ------------------------------------------------------------

def test_partition_basic():
    X = np.array([[1.0, 2.0, 3.0]])
    ds = data.partition_by_class(X, np.array([1, 2, 1]))
    assert ds.per_class[0].tolist() == [0, 2]
    assert ds.per_class[1].tolist() == [1]
    assert ds.class_matrix(1).tolist() == [[1.0, 3.0]]
    assert ds.complement_matrix(2).tolist() == [[1.0, 3.0]]


def test_partition_single_class_complement():
    X = np.ones((2, 3))
    ds = data.partition_by_class(X, np.array([1, 1, 1]))
    assert ds.complement_matrix(1).shape == (2, 0)


def test_partition_cover_oracle(rng):
    labels = rng.integers(1, 4, size=30)
    labels[:3] = [1, 2, 3]  # every class present
    X = rng.standard_normal((4, 30))
    ds = data.partition_by_class(X, labels)
    for l in range(1, 4):
        in_class = set(ds.per_class[l - 1].tolist())
        out_class = set(range(30)) - in_class
        got = {j for j in range(30) if labels[j] == l}
        assert in_class == got
        # complement columns are exactly the rest, order preserved
        comp = ds.complement_matrix(l)
        assert comp.shape[1] == len(out_class)
    assert sorted(np.concatenate(ds.per_class).tolist()) == list(range(30))


def test_dataset_per_class_is_derived_from_labels():
    # per_class is not a constructor field, so it cannot disagree with labels
    with pytest.raises(TypeError, match="per_class"):
        data.LabeledDataset(np.ones((2, 6)), np.array([1, 1, 1, 2, 2, 2]),
                            per_class=[np.array([0, 3]), np.array([1])])
    ds = data.LabeledDataset(np.ones((2, 6)), np.array([1, 2, 1, 2, 2, 1]))
    assert [idx.tolist() for idx in ds.per_class] == [[0, 2, 5], [1, 3, 4]]


def test_partition_empty_class():
    with pytest.raises(ValueError, match="class 2 is empty"):
        data.partition_by_class(np.ones((2, 2)), np.array([1, 3]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_partition_non_finite_column(value):
    X = np.ones((2, 3))
    X[1, 2] = value
    with pytest.raises(ValueError, match="column 2 contains a non-finite value"):
        data.partition_by_class(X, np.array([1, 2, 1]))


def test_partition_out_of_range_label():
    with pytest.raises(ValueError):
        data.partition_by_class(np.ones((2, 2)), np.array([0, 1]))


# --- synthetic generation ----------------------------------------------------

def test_synthetic_zero_noise_collapse():
    ds = data.make_synthetic(2, 5, 4, 0.0, 0.0, seed=3)
    for l in (1, 2):
        X_l = ds.class_matrix(l)
        assert np.array_equal(X_l, np.tile(X_l[:, :1], (1, 4)))


def test_synthetic_determinism():
    a = data.make_synthetic(3, 10, 5, 0.2, 0.1, seed=9)
    b = data.make_synthetic(3, 10, 5, 0.2, 0.1, seed=9)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.labels, b.labels)


def concatenated_synthetic(c, n, per_class, noise_sigma, corrupt_frac, seed):
    """make_synthetic as a concatenation of per-class blocks, with the same
    random draws in the same order."""
    rng = np.random.default_rng(seed)
    means = np.zeros((n, c))
    supports = np.array_split(rng.permutation(n), c)
    for l in range(c):
        v = np.abs(rng.standard_normal(supports[l].size)) + 0.1
        means[supports[l], l] = v / np.linalg.norm(v)
    means *= 5.0 * noise_sigma + 1.0
    X = np.concatenate(
        [means[:, [l]] + noise_sigma * rng.standard_normal((n, per_class)) for l in range(c)], axis=1
    )
    n_corrupt = int(round(corrupt_frac * X.size))
    if n_corrupt:
        idx = rng.choice(X.size, size=n_corrupt, replace=False)
        X.flat[idx] = rng.uniform(-3.0, 3.0, size=n_corrupt)
    return X


@pytest.mark.parametrize("shape", [(3, 20, 25, 0.1, 7), (38, 504, 4, 0.05, 1), (2, 5, 3, 0.0, 3)])
@pytest.mark.parametrize("corrupt_frac", [0.0, 0.1])
def test_synthetic_matches_concatenated_blocks(shape, corrupt_frac):
    c, n, per_class, noise_sigma, seed = shape
    ds = data.make_synthetic(c, n, per_class, noise_sigma, corrupt_frac, seed)
    want = concatenated_synthetic(c, n, per_class, noise_sigma, corrupt_frac, seed)
    assert ds.X.shape == want.shape and ds.X.tobytes() == want.tobytes()
    assert ds.labels.tolist() == np.repeat(np.arange(1, c + 1), per_class).tolist()


def test_synthetic_corrupt_count():
    clean = data.make_synthetic(2, 10, 50, 0.1, 0.0, seed=21)
    dirty = data.make_synthetic(2, 10, 50, 0.1, 0.1, seed=21)
    # same seed: means and noise coincide, so differing entries are the replacements
    n_replaced = int(np.sum(clean.X != dirty.X))
    assert n_replaced == round(0.1 * clean.X.size) == 100


def test_synthetic_param_errors():
    with pytest.raises(ValueError):
        data.make_synthetic(1, 5, 4, 0.1, 0.0, 0)
    with pytest.raises(ValueError):
        data.make_synthetic(3, 2, 4, 0.1, 0.0, 0)
    with pytest.raises(ValueError):
        data.make_synthetic(2, 5, 1, 0.1, 0.0, 0)
    with pytest.raises(ValueError):
        data.make_synthetic(2, 5, 4, 0.1, 1.5, 0)
    for noise_sigma in (np.nan, np.inf, -0.1):
        with pytest.raises(ValueError, match="noise_sigma"):
            data.make_synthetic(2, 5, 4, noise_sigma, 0.0, 0)


def test_synthetic_means_separated():
    ds = data.make_synthetic(3, 12, 3, 0.0, 0.0, seed=4)
    means = [ds.class_matrix(l)[:, 0] for l in (1, 2, 3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) > 1.0


# --- splitting ---------------------------------------------------------------

def test_split_counts():
    ds = data.make_synthetic(2, 5, 4, 0.1, 0.0, seed=0)
    train, test = data.split(ds, 2, seed=1)
    assert train.n_samples == 4 and test.n_samples == 4
    assert [idx.size for idx in train.per_class] == [2, 2]
    assert [idx.size for idx in test.per_class] == [2, 2]


def test_split_determinism():
    ds = data.make_synthetic(2, 5, 6, 0.1, 0.0, seed=0)
    a = data.split(ds, 3, seed=5)
    b = data.split(ds, 3, seed=5)
    assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].X, b[1].X)


def test_split_disjoint_union(rng):
    ds = data.make_synthetic(3, 6, 8, 0.3, 0.0, seed=2)
    train, test = data.split(ds, 5, seed=3)
    # every original column appears exactly once across the two sides
    all_cols = np.concatenate([train.X, test.X], axis=1)
    orig = {tuple(ds.X[:, j]) for j in range(ds.n_samples)}
    got = {tuple(all_cols[:, j]) for j in range(all_cols.shape[1])}
    assert orig == got
    assert train.n_samples + test.n_samples == ds.n_samples


def test_split_too_large():
    ds = data.make_synthetic(2, 5, 4, 0.1, 0.0, seed=0)
    with pytest.raises(ValueError, match="train_per_class"):
        data.split(ds, 4, seed=0)


@pytest.mark.parametrize("train_per_class", [0, -1])
def test_split_rejects_nonpositive_train_per_class(train_per_class):
    ds = data.make_synthetic(2, 5, 4, 0.1, 0.0, seed=0)
    with pytest.raises(ValueError, match="train_per_class must be >= 1"):
        data.split(ds, train_per_class, seed=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_partition_reassemble_is_permutation(seed):
    gen = np.random.default_rng(seed)
    labels = np.concatenate([np.full(3, l) for l in (1, 2)])
    gen.shuffle(labels)
    X = gen.standard_normal((2, 6))
    ds = data.partition_by_class(X, labels)
    reassembled = np.concatenate([ds.class_matrix(l) for l in (1, 2)], axis=1)
    # same multiset of columns
    orig = sorted(map(tuple, X.T.tolist()))
    new = sorted(map(tuple, reassembled.T.tolist()))
    assert orig == new
