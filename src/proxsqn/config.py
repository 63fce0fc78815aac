"""Experiment configuration: flat `key = value` text with dotted prefixes.

Grammar (documented here and in the README):

  * one `key = value` pair per line, split on the first `=`;
  * blank lines and lines whose first non-space character is `#` are ignored;
  * keys are case-sensitive; duplicate keys are errors;
  * floats must be finite (nan and inf are errors) and serialize via repr,
    so serialize -> parse round-trips bitwise.

Recognized keys:

  loss = squared_error | logistic_ridge
  ridge = <float >= 0>
  lambda1 = <float >= 0>
  ref_tol = <float > 0>            reference-solution tolerance (default 1e-12)
  output = <path>                  optional output directory
  dataset = <path>                 LIBSVM file (exclusive with synthetic.*)
  synthetic.n / .d = <int>
  synthetic.density / .condition / .noise = <float>
  synthetic.seed = <int>
  solvers = <name>[, <name> ...]
  solver.<name>.<field> = ...      fields of SolverConfig; `kind` defaults
                                   to <name> when <name> is a solver kind

Solver fields: kind, epochs, eta, m, b, b_hessian, metric_period, alpha,
skip_eps, scheme, seed; a seed, here or in synthetic.seed, is in [0, 2^64).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import get_type_hints

from .dataio import SyntheticSpec
from .errors import ConfigError
from .model import LossKind
from .solver import SolverConfig, SolverKind

_EXPERIMENT_SCALARS = {
    "loss": LossKind,
    "ridge": float,
    "lambda1": float,
    "ref_tol": float,
    "output": str,
    "dataset": str,
}
# field name -> type, in declaration order; the loss comes from `loss`
_SYNTHETIC_FIELDS = {name: kind for name, kind
                     in get_type_hints(SyntheticSpec).items()
                     if name != "loss"}
_SOLVER_FIELDS = get_type_hints(SolverConfig)


@dataclass
class ExperimentConfig:
    loss: LossKind
    ridge: float
    lambda1: float
    solvers: list[tuple[str, SolverConfig]] = field(default_factory=list)
    dataset: str | None = None
    synthetic: SyntheticSpec | None = None
    output: str | None = None
    ref_tol: float = 1e-12

    def __post_init__(self):
        # bounded comparisons, so that nan fails too
        if not (0.0 <= self.ridge < math.inf
                and 0.0 <= self.lambda1 < math.inf):
            raise ConfigError("ridge and lambda1 must be >= 0 and finite")
        if not 0.0 < self.ref_tol < math.inf:
            raise ConfigError("ref_tol must be > 0 and finite")
        if (self.dataset is None) == (self.synthetic is None):
            raise ConfigError(
                "exactly one of `dataset` and `synthetic.*` must be given")


def _parse_scalar(kind, raw, key, lineno):
    where = f"line {lineno}: {key}"
    if kind is str:
        return raw
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected integer, got {raw!r}") from None
    if kind is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected float, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{where}: expected a finite float, got {raw!r}")
        return value
    try:
        return kind(raw)  # enum lookup by value
    except ValueError:
        valid = ", ".join(m.value for m in kind)
        raise ConfigError(f"{where}: {raw!r} is not one of {valid}") from None


def parse_config(text: str, require_solvers: bool = True) -> ExperimentConfig:
    """Parse config text; ConfigError messages carry 1-based line numbers."""
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected `key = value`, "
                              f"got {stripped!r}")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first at line {pairs[key][1]})")
        pairs[key] = (value, lineno)

    scalars: dict[str, object] = {}
    synthetic_kv: dict[str, object] = {}
    solver_names: list[str] = []
    solver_kv: dict[str, dict[str, object]] = {}
    solvers_lineno = None
    for key, (raw, lineno) in pairs.items():
        if key in _EXPERIMENT_SCALARS:
            scalars[key] = _parse_scalar(_EXPERIMENT_SCALARS[key], raw, key,
                                         lineno)
        elif key == "solvers":
            solver_names = [p.strip() for p in raw.split(",") if p.strip()]
            solvers_lineno = lineno
            if not solver_names:
                raise ConfigError(f"line {lineno}: empty solver list")
            if len(set(solver_names)) != len(solver_names):
                raise ConfigError(f"line {lineno}: duplicate solver names")
        elif key.startswith("synthetic."):
            sub = key[len("synthetic."):]
            if sub not in _SYNTHETIC_FIELDS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            synthetic_kv[sub] = _parse_scalar(_SYNTHETIC_FIELDS[sub], raw,
                                              key, lineno)
        elif key.startswith("solver."):
            parts = key.split(".")
            if len(parts) != 3 or not parts[1] or not parts[2]:
                raise ConfigError(f"line {lineno}: solver keys look like "
                                  f"solver.<name>.<field>, got {key!r}")
            name, fld = parts[1], parts[2]
            if fld not in _SOLVER_FIELDS:
                raise ConfigError(f"line {lineno}: unknown solver field "
                                  f"{fld!r} in {key!r}")
            solver_kv.setdefault(name, {})[fld] = \
                _parse_scalar(_SOLVER_FIELDS[fld], raw, key, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    for name in solver_kv:
        if name not in solver_names:
            raise ConfigError(f"solver.{name}.* configured but {name!r} is "
                              f"not listed in `solvers`")
    if require_solvers and not solver_names:
        raise ConfigError("config must list at least one solver")

    for required in ("loss", "ridge", "lambda1"):
        if required not in scalars:
            raise ConfigError(f"missing required key {required!r}")

    loss: LossKind = scalars["loss"]  # type: ignore[assignment]
    synthetic = None
    if synthetic_kv:
        for required in ("n", "d"):
            if required not in synthetic_kv:
                raise ConfigError(f"missing required key synthetic.{required}")
        try:
            synthetic = SyntheticSpec(loss=loss, **synthetic_kv)
        except ValueError as exc:
            raise ConfigError(f"invalid synthetic spec: {exc}") from None

    solvers = []
    for name in solver_names:
        kv = dict(solver_kv.get(name, {}))
        if "kind" not in kv:
            try:
                kv["kind"] = SolverKind(name)
            except ValueError:
                raise ConfigError(
                    f"solver {name!r}: no solver.{name}.kind given and the "
                    f"name is not a solver kind") from None
        try:
            solvers.append((name, SolverConfig(**kv)))
        except ValueError as exc:
            raise ConfigError(f"solver {name!r}: {exc}") from None

    return ExperimentConfig(
        loss=loss, ridge=scalars["ridge"], lambda1=scalars["lambda1"],
        solvers=solvers, dataset=scalars.get("dataset"),
        synthetic=synthetic, output=scalars.get("output"),
        ref_tol=scalars.get("ref_tol", 1e-12))


def _format_scalar(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    lines = [
        f"loss = {cfg.loss.value}",
        f"ridge = {repr(cfg.ridge)}",
        f"lambda1 = {repr(cfg.lambda1)}",
        f"ref_tol = {repr(cfg.ref_tol)}",
    ]
    if cfg.output is not None:
        lines.append(f"output = {cfg.output}")
    if cfg.dataset is not None:
        lines.append(f"dataset = {cfg.dataset}")
    else:
        assert cfg.synthetic is not None
        for fld in _SYNTHETIC_FIELDS:
            lines.append(f"synthetic.{fld} = "
                         f"{_format_scalar(getattr(cfg.synthetic, fld))}")
    if cfg.solvers:
        lines.append("solvers = " + ", ".join(name for name, _ in cfg.solvers))
        for name, sc in cfg.solvers:
            for fld in _SOLVER_FIELDS:
                lines.append(f"solver.{name}.{fld} = "
                             f"{_format_scalar(getattr(sc, fld))}")
    return "\n".join(lines) + "\n"
