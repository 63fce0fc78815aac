"""Dataset text I/O (LIBSVM line format) and synthetic instance generation.

LIBSVM format: one record per line, `<label> <idx>:<val> <idx>:<val> ...`
with 1-based, strictly increasing indices. A label with no features is a
valid empty row. Internally indices are 0-based.

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
from .sampler import _floyd_sample, check_seed, make_rng

_TOKEN = re.compile(r"\S+")


def parse_libsvm(text: str, d: int | None = None,
                 binary_labels: bool = False) -> Dataset:
    """Parse LIBSVM text into a Dataset.

    d defaults to the largest index seen; pass it explicitly when trailing
    all-zero columns matter. Raises LibsvmFormatError with 1-based line and
    column positions on malformed input, nan and inf included; blank lines
    are skipped.
    """
    rows = []
    labels = []
    max_index = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _TOKEN.finditer(line)
        first = next(tokens, None)
        if first is None:
            continue
        try:
            label = float(first.group())
        except ValueError:
            raise LibsvmFormatError(lineno, first.start() + 1,
                                    f"invalid label {first.group()!r}") from None
        idxs = []
        vals = []
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
                val = float(tail)
            except ValueError:
                raise LibsvmFormatError(lineno, col + len(head) + 1,
                                        f"invalid value {tail!r}") from None
            idxs.append(idx - 1)
            vals.append(val)
            prev = idx
        rows.append((np.asarray(idxs, np.int64), np.asarray(vals, np.float64)))
        labels.append(label)
        max_index = max(max_index, prev)
    if not rows:
        raise LibsvmFormatError(1, 1, "no records in input")
    if d is None:
        d = max(max_index, 1)
    elif d < max_index:
        raise ValueError(f"d = {d} smaller than largest index {max_index}")
    lab = np.asarray(labels, np.float64)
    ds = Dataset.from_rows(
        rows, np.where(lab <= 0.0, -1.0, 1.0) if binary_labels else lab, d)
    # one vectorized pass; the position is searched only on failure
    if not (np.isfinite(lab).all() and np.isfinite(ds.values).all()):
        raise _nonfinite_error(text)
    return ds


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


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (a.d == b.d
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.values, b.values)
            and np.array_equal(a.labels, b.labels))


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
    """
    rng = make_rng(spec.seed)
    d, n = spec.d, spec.n
    if d > 1:
        col_scale = spec.condition ** (-np.arange(d) / (2.0 * (d - 1)))
    else:
        col_scale = np.ones(1)
    support = _floyd_sample(rng, d, max(1, int(round(0.2 * d))))
    x_true = np.zeros(d)
    x_true[support] = rng.standard_normal(support.size)
    k = max(1, int(round(spec.density * d)))
    rows = []
    margins = np.empty(n)
    for i in range(n):
        idx = _floyd_sample(rng, d, k)
        val = rng.standard_normal(k) * col_scale[idx]
        rows.append((idx, val))
        margins[i] = val @ x_true[idx]
    margins += spec.noise * rng.standard_normal(n)
    if LOSSES[spec.loss].binary_labels:
        labels = np.where(margins > 0.0, 1.0, -1.0)
    else:
        labels = margins
    return Dataset.from_rows(rows, labels, d), x_true
