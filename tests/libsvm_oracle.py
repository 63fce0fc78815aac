"""The line-by-line LIBSVM parser that `proxsqn.parse_libsvm` replaced,
kept unchanged as the oracle of the bulk parser: the same Dataset, bit for
bit, or the same exception with the same message, on every text.
"""

import math
import re

import numpy as np

from dataset_helpers import from_rows
from proxsqn import Dataset, LibsvmFormatError

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
    ds = from_rows(
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
