import math

import numpy as np
import pytest

from dataset_helpers import datasets_equal, from_rows
from libsvm_oracle import parse_libsvm as oracle_parse
from synthetic_oracle import generate_synthetic as oracle_generate
from proxsqn import dataio
from proxsqn import (
    LibsvmFormatError,
    LossKind,
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm,
    write_libsvm,
)


# ----------------------------------------------------------------- parsing


def test_parse_known_text():
    text = "1.0 1:0.5 3:-2.0\n-1.0 2:4.0\n0.25\n"
    ds = parse_libsvm(text)
    assert ds.n == 3
    assert ds.d == 3
    assert np.array_equal(ds.labels, [1.0, -1.0, 0.25])
    i0, v0 = ds.row(0)
    assert np.array_equal(i0, [0, 2]) and np.array_equal(v0, [0.5, -2.0])
    i1, v1 = ds.row(1)
    assert np.array_equal(i1, [1]) and np.array_equal(v1, [4.0])
    i2, _ = ds.row(2)
    assert i2.size == 0  # label-only line is a valid empty row


def test_parse_skips_blank_lines():
    a = parse_libsvm("1.0 1:2.0\n\n   \n-1.0 2:3.0\n")
    b = parse_libsvm("1.0 1:2.0\n-1.0 2:3.0\n")
    assert datasets_equal(a, b)


def test_parse_d_override():
    ds = parse_libsvm("1.0 1:2.0\n", d=7)
    assert ds.d == 7
    with pytest.raises(ValueError, match="smaller than largest index"):
        parse_libsvm("1.0 1:1.0 5:2.0\n", d=3)


def test_parse_binary_labels():
    ds = parse_libsvm("0 1:1.0\n-3.5 1:1.0\n0.01 1:1.0\n2 1:1.0\n",
                      binary_labels=True)
    assert np.array_equal(ds.labels, [-1.0, -1.0, 1.0, 1.0])


@pytest.mark.parametrize("text,line,col,fragment", [
    ("abc 1:2.0\n", 1, 1, "invalid label"),
    ("1.0 1:2.0\n-1.0 notpair\n", 2, 6, "expected idx:val"),
    ("1.0 x:2.0\n", 1, 5, "invalid index"),
    ("1.0 0:2.0\n", 1, 5, "must be >= 1"),
    ("1.0 -2:2.0\n", 1, 5, "must be >= 1"),
    ("1.0 2:1.0 2:3.0\n", 1, 11, "not strictly increasing"),
    ("1.0 3:1.0 2:3.0\n", 1, 11, "not strictly increasing"),
    ("1.0 1:zz\n", 1, 7, "invalid value"),
    ("", 1, 1, "no records"),
    ("\n  \n", 1, 1, "no records"),
])
def test_parse_error_positions(text, line, col, fragment):
    with pytest.raises(LibsvmFormatError) as err:
        parse_libsvm(text)
    assert err.value.line == line
    assert err.value.column == col
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,line,col,fragment", [
    ("nan 1:2.0\n", 1, 1, "non-finite label 'nan'"),
    ("1.0 1:2.0\n\n  -inf 2:1.0\n", 3, 3, "non-finite label '-inf'"),
    ("1.0 1:2.0 3:inf\n", 1, 13, "non-finite value 'inf'"),
    ("1.0 1:2.0\n-1.0  2:NaN\n", 2, 9, "non-finite value 'NaN'"),
    ("1.0 1:1e400\n", 1, 7, "non-finite value '1e400'"),
])
@pytest.mark.parametrize("binary_labels", [False, True])
def test_parse_rejects_nonfinite(text, line, col, fragment, binary_labels):
    # binary_labels would otherwise map a nan label to +1 silently
    with pytest.raises(LibsvmFormatError) as err:
        parse_libsvm(text, binary_labels=binary_labels)
    assert (err.value.line, err.value.column) == (line, col)
    assert fragment in str(err.value)


def test_parse_error_column_counts_leading_spaces():
    # positions refer to the raw line, not a stripped copy
    with pytest.raises(LibsvmFormatError) as err:
        parse_libsvm("   bad 1:2.0\n")
    assert err.value.line == 1
    assert err.value.column == 4


# ------------------------------------------- bulk parser against the oracle

_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
           "\x85", "\u2028", "\u2029"]
# str.split and the oracle's \\S+ both split at these, and none breaks a line
_SPACES = [" ", "  ", "\t", "\x1f", "\xa0", "\u2003", "\u3000"]
_LABELS = ["1", "-1", "+1", "0", "-0.0", "2.5", "1.", ".5", "1_0", "\u0661"]
_VALUES = ["0.5", "-2", "+1", "1_0", "1.", ".5", "1e-300", "-0.0", "7"]
_NONFINITE = ["nan", "inf", "-inf", "1e400", "NaN"]
_BAD_LABELS = ["abc", "1:2", "--1", "1e", "1\u200b"]


def _bad_token(rng, idx, val):
    """A malformed feature token, or one index out of order or range."""
    return str(rng.choice([
        str(idx), f":{val}", f"{idx}:", ":", "::", "a:b:c", f"{idx}:2:3",
        f"{idx}::{val}", f"0:{val}", f"-{idx}:{val}", f"{max(idx - 2, 1)}:{val}",
        f"x:{val}", f"{idx}:zz", f"{idx}\u200b:{val}", f"{idx}:{val}:"]))


def _fuzz_text(rng):
    """A small LIBSVM-like text; clean with probability 0.4, otherwise with
    nonfinite numbers and malformed tokens mixed in."""
    dirt = 0.0 if rng.random() < 0.4 else float(rng.choice([0.05, 0.15, 0.4]))
    lines = []
    for _ in range(int(rng.integers(0, 8))):
        r = rng.random()
        if r < 0.1:
            lines.append("")
            continue
        if r < 0.15:
            lines.append("".join(rng.choice(_SPACES, int(rng.integers(1, 3)))))
            continue
        pool = _BAD_LABELS if rng.random() < dirt / 3 else (
            _NONFINITE if rng.random() < dirt / 3 else _LABELS)
        toks = [str(rng.choice(pool))]
        idx = 0
        for _ in range(int(rng.integers(0, 5))):
            idx += int(rng.integers(1, 4))
            val = str(rng.choice(_NONFINITE if rng.random() < dirt / 3
                                 else _VALUES))
            toks.append(_bad_token(rng, idx, val) if rng.random() < dirt / 2
                        else f"{idx}:{val}")
        seps = rng.choice(_SPACES, len(toks) + 1)
        line = "".join(str(sep) + tok for sep, tok in zip(seps, toks))
        lines.append(line.lstrip() if rng.random() < 0.5 else line
                     + (str(seps[-1]) if rng.random() < 0.3 else ""))
    breaks = rng.choice(_BREAKS, len(lines))
    return "".join(line + str(br) for line, br in zip(lines, breaks))


# texts that the random ones hit only by chance
_FIXED_TEXTS = [
    "1 1:2:3 4\n",             # a doubled colon and a missing one balance
    "1 1:2 3:4:5 6\n",
    "nan 1:2\n1 x:1\n",        # a format error outranks an earlier nan
    "1 1:nan 2\n",
    "1 1:inf\n1 2:1 2:3\n",
    "1\n\n-1\r\n+1 3:1.\n",
    # 0-based indices past int64 raise OverflowError; 2^63 is the last one
    "1 99999999999999999999:1\n",
    "1 9223372036854775809:1\n",
    "1 18446744073709551617:1 2:x\n",
    "1 -99999999999999999999:1\n",
    "1 2:1 9223372036854775808:1\n",
]


def _outcome(parse, text, **kw):
    try:
        ds = parse(text, **kw)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return (ds.d, ds.indptr.dtype, ds.indptr.tolist(), ds.indices.dtype,
            ds.indices.tolist(), ds.values.view(np.uint64).tolist(),
            ds.labels.view(np.uint64).tolist())


@pytest.mark.parametrize("block_lines", [2, dataio._BLOCK_LINES])
@pytest.mark.parametrize("binary_labels", [False, True])
@pytest.mark.parametrize("with_d", [False, True])
def test_parse_matches_line_oracle(monkeypatch, block_lines, binary_labels,
                                   with_d):
    # two-line blocks put records, errors and nans on both sides of block
    # boundaries; d = 1 or 3 is often below the largest index
    monkeypatch.setattr(dataio, "_BLOCK_LINES", block_lines)
    rng = np.random.default_rng(2024)
    texts = _FIXED_TEXTS + [_fuzz_text(rng) for _ in range(2000)]
    kinds = set()
    for text in texts:
        kw = dict(binary_labels=binary_labels,
                  d=int(rng.choice([1, 3, 20])) if with_d else None)
        want = _outcome(oracle_parse, text, **kw)
        assert _outcome(parse_libsvm, text, **kw) == want, (text, kw)
        if isinstance(want[0], int):
            kinds.add("dataset")
        elif want[0] is LibsvmFormatError:
            kinds.add(want[1].split(": ", 1)[1].split(" ")[0])
        else:
            kinds.add(want[0].__name__)
    # the texts reach every outcome of the parser
    assert kinds >= {"dataset", "invalid", "expected", "index", "no",
                     "non-finite", "OverflowError"}
    assert ("ValueError" in kinds) == with_d


# ------------------------------------------------------------- serialization


def test_write_libsvm_exact_text():
    ds = from_rows(
        [(np.array([0, 2]), np.array([0.5, -2.0])),
         (np.array([], np.int64), np.array([]))],
        np.array([1.0, -0.25]), 3)
    assert write_libsvm(ds) == "1.0 1:0.5 3:-2.0\n-0.25\n"


def test_roundtrip_random_datasets():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 9))
        rows = []
        for _ in range(n):
            k = int(rng.integers(0, d + 1))
            idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
            # exercise round-tripping across magnitudes
            val = rng.standard_normal(k) * 10.0 ** rng.uniform(-18, 18, k)
            rows.append((idx, val))
        labels = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
        ds = from_rows(rows, labels, d)
        back = parse_libsvm(write_libsvm(ds), d=d)
        assert datasets_equal(ds, back), f"trial {trial}"


def test_roundtrip_awkward_floats():
    vals = np.array([0.1, 1e-300, -1e300, 1.0 + 2 ** -52, 5e-324])
    ds = from_rows(
        [(np.arange(5, dtype=np.int64), vals)], np.array([1e-17]), 5)
    assert datasets_equal(ds, parse_libsvm(write_libsvm(ds)))


def test_datasets_equal_detects_difference():
    a = parse_libsvm("1.0 1:2.0\n")
    b = parse_libsvm("1.0 1:2.0000000001\n")
    assert datasets_equal(a, a)
    assert not datasets_equal(a, b)


# --------------------------------------------------------------- generation


def test_generate_deterministic():
    spec = SyntheticSpec(n=25, d=10, density=0.4, condition=5.0, noise=0.2,
                         seed=9)
    ds1, x1 = generate_synthetic(spec)
    ds2, x2 = generate_synthetic(spec)
    assert datasets_equal(ds1, ds2)
    assert np.array_equal(x1, x2)
    ds3, _ = generate_synthetic(
        SyntheticSpec(n=25, d=10, density=0.4, condition=5.0, noise=0.2,
                      seed=10))
    assert not datasets_equal(ds1, ds3)


# d = 1; k = 1; k = d (the draw bounds start at 1); k = 100, past the
# unrolled part of a BLAS dot product; a sparse_wide-shaped instance
@pytest.mark.parametrize("kw", [
    dict(n=40, d=1),
    dict(n=60, d=30, density=1 / 30, condition=9.0),
    dict(n=50, d=12, density=1.0, condition=3.0),
    dict(n=80, d=500, density=0.2, condition=16.0),
    dict(n=2000, d=20000, density=5e-4, condition=16.0),
])
@pytest.mark.parametrize("loss", list(LossKind))
@pytest.mark.parametrize("seed", [0, 7, 2016])
def test_generate_matches_row_loop_oracle(kw, loss, seed):
    spec = SyntheticSpec(noise=0.2, seed=seed, loss=loss, **kw)
    ds, x_true = generate_synthetic(spec)
    ref, ref_x = oracle_generate(spec)
    assert ds.d == ref.d
    for name in ("indptr", "indices", "values", "labels"):
        got, want = getattr(ds, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
            name
    assert x_true.tobytes() == ref_x.tobytes()


def test_generate_density_controls_row_nnz():
    for density, k in [(0.3, 3), (1.0, 10), (0.1, 1)]:
        spec = SyntheticSpec(n=15, d=10, density=density, seed=1)
        ds, _ = generate_synthetic(spec)
        nnz = np.diff(ds.indptr)
        assert np.all(nnz == max(1, round(density * 10)))
        assert nnz[0] == k


def test_generate_logistic_labels_are_signs():
    spec = SyntheticSpec(n=40, d=6, density=0.5, noise=0.1, seed=2,
                         loss=LossKind.LOGISTIC_RIDGE)
    ds, _ = generate_synthetic(spec)
    assert set(np.unique(ds.labels)) <= {-1.0, 1.0}


def test_generate_noiseless_labels_match_planted_point():
    spec = SyntheticSpec(n=30, d=8, density=0.5, condition=4.0, noise=0.0,
                         seed=3)
    ds, x_true = generate_synthetic(spec)
    margins = ds.to_csr() @ x_true
    assert np.allclose(ds.labels, margins, rtol=0, atol=1e-15)


def test_generate_planted_support_size():
    _, x_true = generate_synthetic(SyntheticSpec(n=5, d=50, density=0.2,
                                                 seed=4))
    assert np.count_nonzero(x_true) == 10


@pytest.mark.parametrize("kw", [
    dict(n=0, d=5),
    dict(n=5, d=0),
    dict(n=5, d=5, density=0.0),
    dict(n=5, d=5, density=1.5),
    dict(n=5, d=20, density=0.01),   # density * d < 1: empty rows
    dict(n=5, d=5, condition=0.5),
    dict(n=5, d=5, noise=-0.1),
    dict(n=5, d=5, condition=math.nan),
    dict(n=5, d=5, condition=math.inf),
    dict(n=5, d=5, noise=math.nan),
    dict(n=5, d=5, noise=math.inf),
])
def test_spec_validation(kw):
    with pytest.raises(ValueError):
        SyntheticSpec(**kw)
