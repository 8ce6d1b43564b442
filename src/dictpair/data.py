"""Dataset handling: text matrix I/O, per-class partitioning, normalization,
random-projection features, synthetic data generation, and train/test splits.

Samples are columns of an ``n x N`` matrix; labels are integers ``1..c`` with
every class present. The text matrix format is a header line ``rows cols``
followed by row-major whitespace-separated decimals (17 significant digits on
save, so doubles round-trip exactly). A labels file holds one integer per line.
``read_block``/``write_block`` are the one codec of a matrix block, in matrix and
model files, and ``read_end`` rejects what either file holds after its last
block; ``parse_tokens`` converts every token of a matrix, label or model
file, so a bad one is ``<file>, line <N>: expected a number, got '<token>'``.
``read_block`` turns each line into its own float array (short lines are
gathered first), rejecting a NaN or infinite value as it converts it (``<file>,
line <N>: non-finite value '<token>' at row <r>, column <c>``), and joins them
once, so reading a block peaks at about twice the block's bytes; the header is
never allocated up front, so a huge one fails on the missing values. Each
matrix, label or model file is read in one pass, so an input may be a pipe.
``write_rows`` is the one 17-digit formatter, of those blocks and of
``metrics.write_csv_matrix``; ``check_block`` rejects, before a file is
written, a block that the readers would reject.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# values that write_rows formats per write (but at least one row): one chunk's
# text, about 1.5 MB, and its tuple of floats stay small at any matrix size
ROWS_CHUNK_VALUES = 65536

# read_block converts a line of at least this many values on its own, and
# shorter lines together until they hold this many: a block of short lines
# (one value per line, as a one-column matrix is written) then keeps one
# array header per this many values, not one per value
READ_PART_VALUES = 256


@dataclass
class LabeledDataset:
    """Column-sample matrix plus 1-based integer class labels.

    ``per_class[l-1]`` lists the column indices of class ``l`` in their
    original order; it is always derived from ``labels``, so the lists are
    disjoint and cover every column.
    """

    X: np.ndarray
    labels: np.ndarray
    per_class: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1 or self.labels.size != self.X.shape[1]:
            raise ValueError("labels length must equal the number of columns")
        c = int(self.labels.max(initial=0))
        if c < 1 or self.labels.min(initial=1) < 1:
            raise ValueError("labels must be integers in 1..c")
        self.per_class = [np.flatnonzero(self.labels == l) for l in range(1, c + 1)]
        for l, idx in enumerate(self.per_class, start=1):
            if idx.size == 0:
                raise ValueError(f"class {l} is empty")

    @property
    def n_features(self) -> int:
        return self.X.shape[0]

    @property
    def n_samples(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.per_class)

    def class_matrix(self, label: int) -> np.ndarray:
        """Columns of class ``label`` (1-based), in original order."""
        return self.X[:, self.per_class[label - 1]]

    @cached_property
    def gram(self) -> np.ndarray:
        """``X X'`` (n x n), computed once per dataset (``X`` is not to be
        modified afterwards). Every complement-class quantity the solver needs
        follows from it and the class blocks, e.g.
        ``Xbar_l Xbar_l' = X X' - X_l X_l'``."""
        return self.X @ self.X.T

    @cached_property
    def sample_sum(self) -> np.ndarray:
        """``X 1``, the sum of all columns (length n), computed once per dataset."""
        return self.X.sum(axis=1)

    def complement_matrix(self, label: int) -> np.ndarray:
        """All columns not belonging to ``label``; empty (n x 0) when c = 1.

        A full copy of the complement; the solver never builds it (see ``gram``).
        """
        mask = np.ones(self.n_samples, dtype=bool)
        mask[self.per_class[label - 1]] = False
        return self.X[:, mask]


def parse_tokens(tokens, convert, path, lineno) -> list:
    """Convert the tokens of one line with ``convert`` (``int`` or ``float``); a
    bad token is a ValueError naming the file, the line number and the token."""
    try:
        return [convert(t) for t in tokens]
    except ValueError:
        for t in tokens:
            try:
                convert(t)
            except ValueError:
                kind = "an integer" if convert is int else "a number"
                raise ValueError(f"{path}, line {lineno}: expected {kind}, got {t!r}") from None
        raise


def read_block(lines, path) -> np.ndarray:
    """Read one matrix block, a positive ``rows cols`` header line and then
    ``rows*cols`` values over any number of lines, streamed from ``lines``, an
    ``enumerate(fh, start=1)`` that is left just after the block's last line.

    Each line's values become one finite float array (``_line_floats``; short
    lines are gathered up to READ_PART_VALUES values first), and the arrays are
    joined once at the end, so the peak is about twice the block's bytes.
    Nothing is allocated from the header's size."""
    lineno, line = next(lines, (None, ""))
    if lineno is None:
        raise ValueError(f"{path}: truncated file (missing matrix header 'rows cols')")
    header = line.split()
    if len(header) != 2:
        raise ValueError(f"{path}, line {lineno}: matrix header must be two integers 'rows cols'")
    rows, cols = parse_tokens(header, int, path, lineno)
    if rows <= 0 or cols <= 0:
        raise ValueError(f"{path}, line {lineno}: dimensions must be positive, got {rows}x{cols}")
    size, parts, count = rows * cols, [], 0
    pending, waiting = [], 0  # (lineno, tokens) of the lines not yet converted, and their token count
    for lineno, line in lines:
        tokens = line.split()
        pending.append((lineno, tokens))
        count += len(tokens)
        waiting += len(tokens)
        if waiting >= READ_PART_VALUES or count >= size:
            parts.append(_line_floats(pending, path, count - waiting, size, cols))
            pending, waiting = [], 0
        if count > size:
            raise ValueError(f"{path}, line {lineno}: expected {size} values for a {rows}x{cols} matrix, found more")
        if count == size:
            return np.concatenate(parts).reshape(rows, cols)
    _line_floats(pending, path, count - waiting, size, cols)  # a bad token is named before the missing values
    raise ValueError(f"{path}: expected {size} values for a {rows}x{cols} matrix, found {count}")


def _line_floats(pending, path, start, size, cols) -> np.ndarray:
    """The values of consecutive lines, a list of ``(lineno, tokens)`` from
    value ``start`` of a ``size``-value, ``cols``-column block on, as one float
    array, each token parsed as ``float`` parses it; a bad token is the
    ``parse_tokens`` error, a NaN or infinite one within the block names its
    line, row and column (a value past the block is left to read_block's count)."""
    tokens = pending[0][1] if len(pending) == 1 else [t for _, line in pending for t in line]
    try:
        values = np.array(tokens, dtype=float)
    except ValueError:
        values = np.array([v for lineno, line in pending for v in parse_tokens(line, float, path, lineno)])
    finite = np.isfinite(values[: size - start])
    if not finite.all():
        i = int(np.argmin(finite))
        row, col = divmod(start + i, cols)
        for lineno, line in pending:
            if i < len(line):
                raise ValueError(f"{path}, line {lineno}: non-finite value {line[i]!r} at row {row}, column {col}")
            i -= len(line)
    return values


def read_end(lines, path, expected: str) -> None:
    """Reject a non-blank line left in ``lines`` (as for ``read_block``) after a
    file's last block: a ValueError ``<path>, line <N>: <expected>, found more``."""
    for lineno, line in lines:
        if line.strip():
            raise ValueError(f"{path}, line {lineno}: {expected}, found more")


def check_block(M: np.ndarray, name: str) -> None:
    """Reject a block that ``read_block`` or a loader would reject: a zero
    dimension, or a NaN or infinite entry, which is named by its position."""
    if 0 in M.shape:
        raise ValueError(f"{name}: dimensions must be positive, got {M.shape[0]}x{M.shape[1]}")
    finite = np.isfinite(M)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{name}: non-finite value {float(M[i, j])} at row {i}, column {j}")


def write_rows(fh, M: np.ndarray, sep: str) -> None:
    """Write the rows of ``M``, one per line, each value with 17 significant
    digits and the values joined by ``sep``.

    One ``%``-template formats ROWS_CHUNK_VALUES values at a time (at least one
    row); ``"%.17g" % x`` is ``format(x, ".17g")``, byte for byte."""
    rows, cols = M.shape
    step = max(1, ROWS_CHUNK_VALUES // max(cols, 1))
    line = sep.join(["%.17g"] * cols) + "\n"
    for start in range(0, rows, step):
        chunk = M[start:start + step]
        fh.write((line * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def write_block(fh, M: np.ndarray) -> None:
    """Write one matrix block: the ``rows cols`` header, then one row per line
    with 17 significant digits."""
    fh.write(f"{M.shape[0]} {M.shape[1]}\n")
    write_rows(fh, M, " ")


def load_matrix(path) -> np.ndarray:
    """Read a dense matrix from the text format ``rows cols`` + values.

    Rejects a NaN or infinite value and values left over after the block,
    naming the file and line, in one pass (``path`` may be a pipe).
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = enumerate(fh, start=1)
        M = read_block(lines, path)
        read_end(lines, path, f"expected {M.size} values for a {M.shape[0]}x{M.shape[1]} matrix")
    return M


def save_matrix(path, M: np.ndarray) -> None:
    """Write a matrix in the text format, one row per line, 17 significant digits.

    A matrix that ``load_matrix`` would reject (a zero dimension, a NaN or
    infinite entry) is a ValueError, and no file is opened then."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("save_matrix expects a 2-D array")
    check_block(M, str(path))
    with open(path, "w", encoding="ascii") as fh:
        write_block(fh, M)


def load_labels(path) -> np.ndarray:
    """Read a labels file: one integer per line."""
    with open(path, "r", encoding="ascii") as fh:
        labels = []
        for lineno, line in enumerate(fh, start=1):
            labels.extend(parse_tokens(line.split(), int, path, lineno))
    return np.array(labels, dtype=int)


def save_labels(path, labels: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for l in np.asarray(labels, dtype=int):
            fh.write(f"{l}\n")


def normalize_unit_l2(X: np.ndarray) -> np.ndarray:
    """Scale every column to unit Euclidean norm; directions unchanged."""
    norms = np.linalg.norm(X, axis=0)
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        raise ValueError(f"column {bad[0]} has near-zero norm ({norms[bad[0]]:.3e})")
    return X / norms


def random_projection_features(X: np.ndarray, d: int, seed: int) -> np.ndarray:
    """Project samples with a seeded Gaussian matrix whose rows have unit norm.

    The projection R is d x n with N(0, 1) entries from ``default_rng(seed)``,
    each row scaled to unit Euclidean norm; the result is R @ X.
    """
    if d < 1:
        raise ValueError("target dimension d must be >= 1")
    if X.size == 0:
        raise ValueError("X must be nonempty")
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((d, X.shape[0]))
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    return R @ X


def partition_by_class(X: np.ndarray, labels: np.ndarray) -> LabeledDataset:
    """Group columns by class label, preserving within-class column order.

    Rejects a matrix with a NaN or infinite entry, naming the first such column;
    ``LabeledDataset`` checks the labels.
    """
    finite = np.isfinite(X).all(axis=0)
    if not finite.all():
        raise ValueError(f"column {int(np.argmin(finite))} contains a non-finite value (NaN or inf)")
    return LabeledDataset(X=X, labels=labels)


def make_synthetic(
    c: int,
    n: int,
    per_class: int,
    noise_sigma: float,
    corrupt_frac: float,
    seed: int,
) -> LabeledDataset:
    """Generate a separable synthetic dataset with optional entry corruption.

    Class means are seeded nonnegative unit vectors on disjoint coordinate
    supports (hence exactly orthogonal), scaled by ``5*noise_sigma + 1`` so the
    pairwise margin grows with the noise level. Samples are mean + Gaussian
    noise; then ``round(corrupt_frac * n * N)`` entries, chosen without
    replacement, are replaced by uniform outliers in [-3, 3].
    """
    if c < 2:
        raise ValueError("need at least 2 classes")
    if n < c:
        raise ValueError("feature dimension must be >= number of classes")
    if per_class < 2:
        raise ValueError("need at least 2 samples per class")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if not 0.0 <= corrupt_frac <= 1.0:
        raise ValueError("corrupt_frac must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    means = np.zeros((n, c))
    supports = np.array_split(rng.permutation(n), c)
    for l in range(c):
        v = np.abs(rng.standard_normal(supports[l].size)) + 0.1
        means[supports[l], l] = v / np.linalg.norm(v)
    means *= 5.0 * noise_sigma + 1.0

    labels = np.repeat(np.arange(1, c + 1), per_class)
    X = np.empty((n, c * per_class))
    for l in range(c):
        X[:, l * per_class:(l + 1) * per_class] = means[:, [l]] + noise_sigma * rng.standard_normal((n, per_class))

    n_corrupt = int(round(corrupt_frac * X.size))
    if n_corrupt:
        idx = rng.choice(X.size, size=n_corrupt, replace=False)
        X.flat[idx] = rng.uniform(-3.0, 3.0, size=n_corrupt)
    return LabeledDataset(X=X, labels=labels)


def split(ds: LabeledDataset, train_per_class: int, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded per-class split into train (exactly ``train_per_class`` columns) and test."""
    if train_per_class < 1:
        raise ValueError(f"train_per_class must be >= 1, got {train_per_class}")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for l, cols in enumerate(ds.per_class, start=1):
        if train_per_class >= cols.size:
            raise ValueError(
                f"train_per_class={train_per_class} leaves no test samples for class {l} (N_l={cols.size})"
            )
        perm = rng.permutation(cols.size)
        train_idx.extend(sorted(cols[perm[:train_per_class]].tolist()))
        test_idx.extend(sorted(cols[perm[train_per_class:]].tolist()))
    train_idx = np.array(train_idx, dtype=int)
    test_idx = np.array(test_idx, dtype=int)
    train = LabeledDataset(X=ds.X[:, train_idx], labels=ds.labels[train_idx])
    test = LabeledDataset(X=ds.X[:, test_idx], labels=ds.labels[test_idx])
    return train, test
