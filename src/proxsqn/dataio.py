"""Dataset text I/O (LIBSVM line format) and synthetic instance generation.

LIBSVM format: one record per line, `<label> <idx>:<val> <idx>:<val> ...`
with 1-based, strictly increasing indices. A label with no features is a
valid empty row. Internally indices are 0-based.

Parsing runs in bulk, on blocks of _BLOCK_LINES lines: the block's tokens
are split, joined and converted with int() and float() in a few passes, and
numpy checks the indices. Only a block that fails those checks is scanned
token by token, to raise the error at its 1-based line and column.

Label handling is loud and simple: with binary_labels=True every parsed
label <= 0 becomes -1.0 and every label > 0 becomes +1.0 (corpora disagree
between {0,1} and {-1,+1} conventions); otherwise labels pass through raw.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import LibsvmFormatError
from .model import LOSSES, Dataset, LossKind
from .sampler import _floyd_block, _floyd_rows, check_seed, make_rng

_TOKEN = re.compile(r"\S+")
_BLOCK_LINES = 1000


def parse_libsvm(text: str, d: int | None = None,
                 binary_labels: bool = False) -> Dataset:
    """Parse LIBSVM text into a Dataset.

    d defaults to the largest index seen; pass it explicitly when trailing
    all-zero columns matter. Raises LibsvmFormatError with 1-based line and
    column positions on malformed input, nan and inf included; blank lines
    are skipped. A format error anywhere outranks a nan or inf anywhere.
    """
    lines = text.splitlines()
    blocks = []
    # one block at least, so that empty text reaches the no-records error
    for start in range(0, max(len(lines), 1), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        parsed = _parse_block(block)
        if parsed is None:
            _raise_format_error(block, start + 1)
        blocks.append(parsed)
    labels, row_nnz, indices, values = (np.concatenate(a) for a in zip(*blocks))
    if not labels.size:
        raise LibsvmFormatError(1, 1, "no records in input")
    max_index = int(indices.max()) + 1 if indices.size else 0
    if d is None:
        d = max(max_index, 1)
    elif d < max_index:
        raise ValueError(f"d = {d} smaller than largest index {max_index}")
    indptr = np.zeros(labels.size + 1, np.int64)
    np.cumsum(row_nnz, out=indptr[1:])
    ds = Dataset(indptr, indices, values,
                 np.where(labels <= 0.0, -1.0, 1.0) if binary_labels
                 else labels, d)
    # one vectorized pass; the position is searched only on failure
    if not (np.isfinite(labels).all() and np.isfinite(values).all()):
        raise _nonfinite_error(text)
    return ds


def _parse_block(lines: list[str]):
    """(labels, nonzeros per row, 0-based indices, values) of the records
    in lines, parsed in bulk; None when any token is malformed.

    Feature tokens are joined, their colons become spaces, and one split
    yields idx, val, idx, val, ... A token with c colons gives at most c + 1
    pieces, and c + 1 when no part is empty. So k tokens that hold k colons
    and give 2k pieces have no empty part, and a colon in every token then
    leaves one in each: every token is idx:val.
    """
    labels, feats, row_nnz = [], [], []
    for line in lines:
        toks = line.split()
        if toks:
            labels.append(toks[0])
            row_nnz.append(len(toks) - 1)
            feats += toks[1:]
    k = len(feats)
    joined = " ".join(feats)
    pieces = joined.replace(":", " ").split()
    if not (len(pieces) == 2 * k and joined.count(":") == k
            and all(":" in tok for tok in feats)):
        return None
    try:
        lab = np.fromiter(map(float, labels), np.float64, len(labels))
        idx = np.fromiter(map(int, pieces[::2]), np.uint64, k)
        val = np.fromiter(map(float, pieces[1::2]), np.float64, k)
    except (ValueError, OverflowError):
        return None
    # strictly increasing within each row (a rise that ends at a row's
    # first entry is exempt), and 1-based with the 0-based index in int64:
    # index 0 wraps to 2^64 - 1
    row_nnz = np.asarray(row_nnz, np.int64)
    rise = idx[1:] > idx[:-1]
    starts = np.cumsum(row_nnz)[:-1]
    rise[starts[(starts > 0) & (starts < k)] - 1] = True
    idx -= np.uint64(1)
    if not (rise.all() and (idx < np.uint64(2 ** 63)).all()):
        return None
    return lab, row_nnz, idx.view(np.int64), val


def _raise_format_error(lines: list[str], first_lineno: int):
    """Raise the error of the first malformed token of lines, numbered from
    first_lineno, by the per-token scan; it runs only on a block that
    failed its bulk checks, and such a block always holds an error."""
    for lineno, line in enumerate(lines, start=first_lineno):
        tokens = _TOKEN.finditer(line)
        first = next(tokens, None)
        if first is None:
            continue
        try:
            float(first.group())
        except ValueError:
            raise LibsvmFormatError(lineno, first.start() + 1,
                                    f"invalid label {first.group()!r}") from None
        idxs = []
        prev = 0
        for tok in tokens:
            col = tok.start() + 1
            part = tok.group()
            head, sep, tail = part.partition(":")
            if not sep:
                raise LibsvmFormatError(lineno, col,
                                        f"expected idx:val, got {part!r}")
            try:
                idx = int(head)
            except ValueError:
                raise LibsvmFormatError(lineno, col,
                                        f"invalid index {head!r}") from None
            if idx < 1:
                raise LibsvmFormatError(lineno, col,
                                        f"index {idx} must be >= 1")
            if idx <= prev:
                raise LibsvmFormatError(
                    lineno, col,
                    f"index {idx} not strictly increasing after {prev}")
            try:
                float(tail)
            except ValueError:
                raise LibsvmFormatError(lineno, col + len(head) + 1,
                                        f"invalid value {tail!r}") from None
            idxs.append(idx - 1)
            prev = idx
        # a 0-based index past int64 raises OverflowError at its line's end
        np.asarray(idxs, np.int64)
    raise AssertionError("a block failed its bulk checks but holds no error")


def _nonfinite_error(text: str) -> LibsvmFormatError:
    """Error at the first nan or inf label or value of text that parsed."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for k, tok in enumerate(_TOKEN.finditer(line)):
            raw = tok.group() if k == 0 else tok.group().partition(":")[2]
            if not math.isfinite(float(raw)):
                return LibsvmFormatError(
                    lineno, tok.end() - len(raw) + 1,
                    f"non-finite {'value' if k else 'label'} {raw!r}")


def write_libsvm(ds: Dataset) -> str:
    """Serialize with shortest round-trip float formatting (repr)."""
    lines = []
    for i in range(ds.n):
        idx, val = ds.row(i)
        parts = [repr(float(ds.labels[i]))]
        parts.extend(f"{int(j) + 1}:{repr(float(v))}"
                     for j, v in zip(idx, val))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a random sparse instance, deterministic in seed."""

    n: int
    d: int
    density: float = 1.0
    condition: float = 1.0
    noise: float = 0.0
    seed: int = 0
    loss: LossKind = LossKind.SQUARED_ERROR

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if self.density * self.d < 1.0:
            raise ValueError("density * d must be >= 1 (no empty rows)")
        # bounded comparisons, so that nan fails too
        if not 1.0 <= self.condition < math.inf:
            raise ValueError("condition target must be >= 1 and finite")
        if not 0.0 <= self.noise < math.inf:
            raise ValueError("noise must be >= 0 and finite")
        check_seed(self.seed)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Sparse Gaussian rows with geometrically decaying column scales,
    labels from a planted sparse ground truth.

    Column j is scaled by condition^(-j / (2(d-1))), spreading squared
    column energies across the condition target. Squared loss labels are
    b_i = a_i'x + noise * xi_i; logistic labels are the sign of that margin.
    Returns the dataset and the planted point.

    The stream's words are fixed, so that a spec and seed give the same
    bytes in every version: the support's draws (one _floyd_block row) and
    its normals; then, per row, its k = round(density * d) bounded draws
    followed by its k normals; then n noise normals. Only those two calls
    per row run row by row. Floyd's rule, the sort (row i's t-th normal
    scales its t-th smallest index) and the margins, each the dot product
    a_i'x that a per-row loop would take, run once for all rows.
    """
    rng = make_rng(spec.seed)
    d, n = spec.d, spec.n
    if d > 1:
        col_scale = spec.condition ** (-np.arange(d) / (2.0 * (d - 1)))
    else:
        col_scale = np.ones(1)
    support = _floyd_block(rng, d, max(1, int(round(0.2 * d))), 1)[0]
    x_true = np.zeros(d)
    x_true[support] = rng.standard_normal(support.size)
    k = max(1, int(round(spec.density * d)))
    bounds = np.arange(d - k + 1, d + 1)
    idx = np.empty((n, k), np.int64)
    vals = np.empty((n, k))
    for i in range(n):
        idx[i] = rng.integers(0, bounds)
        rng.standard_normal(out=vals[i])
    _floyd_rows(idx, d)
    vals *= col_scale[idx]
    # a stack of (1, k) @ (k, 1) products: each is the 1-D dot product
    margins = np.matmul(vals[:, None, :], x_true[idx][:, :, None]).ravel()
    margins += spec.noise * rng.standard_normal(n)
    if LOSSES[spec.loss].binary_labels:
        labels = np.where(margins > 0.0, 1.0, -1.0)
    else:
        labels = margins
    return Dataset(np.arange(0, n * k + 1, k), idx.ravel(), vals.ravel(),
                   labels, d), x_true
