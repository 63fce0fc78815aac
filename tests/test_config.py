import math
import pathlib

import pytest

from proxsqn import (
    ConfigError,
    ExperimentConfig,
    LossKind,
    SchemeKind,
    SolverConfig,
    SolverKind,
    SyntheticSpec,
    parse_config,
    serialize_config,
)


def test_roundtrip_two_solvers():
    cfg = ExperimentConfig(
        loss=LossKind.LOGISTIC_RIDGE, ridge=0.1, lambda1=0.01,
        solvers=[
            ("sqn", SolverConfig(kind=SolverKind.PROX_SQN, epochs=7,
                                 eta=0.02743715200664057, m=2000, b=10,
                                 b_hessian=50, metric_period=10, alpha=0.5,
                                 scheme=SchemeKind.WEIGHTED_BATCH, seed=3)),
            ("prox_gd", SolverConfig(kind=SolverKind.PROX_GD, epochs=40,
                                     eta=0.1)),
        ],
        synthetic=SyntheticSpec(n=100, d=12, density=0.3, condition=16.0,
                                noise=0.2, seed=42,
                                loss=LossKind.LOGISTIC_RIDGE),
        output="traces", ref_tol=1e-10)
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialize_writes_the_canonical_text():
    # test_roundtrip_two_solvers's config: key order and float spelling
    cfg = ExperimentConfig(
        loss=LossKind.LOGISTIC_RIDGE, ridge=0.1, lambda1=0.01,
        solvers=[
            ("sqn", SolverConfig(kind=SolverKind.PROX_SQN, epochs=7,
                                 eta=0.02743715200664057, m=2000, b=10,
                                 b_hessian=50, metric_period=10, alpha=0.5,
                                 scheme=SchemeKind.WEIGHTED_BATCH, seed=3)),
            ("prox_gd", SolverConfig(kind=SolverKind.PROX_GD, epochs=40,
                                     eta=0.1)),
        ],
        synthetic=SyntheticSpec(n=100, d=12, density=0.3, condition=16.0,
                                noise=0.2, seed=42,
                                loss=LossKind.LOGISTIC_RIDGE),
        output="traces", ref_tol=1e-10)
    assert serialize_config(cfg) == (
        "loss = logistic_ridge\n"
        "ridge = 0.1\n"
        "lambda1 = 0.01\n"
        "ref_tol = 1e-10\n"
        "output = traces\n"
        "synthetic.n = 100\n"
        "synthetic.d = 12\n"
        "synthetic.density = 0.3\n"
        "synthetic.condition = 16.0\n"
        "synthetic.noise = 0.2\n"
        "synthetic.seed = 42\n"
        "solvers = sqn, prox_gd\n"
        "solver.sqn.kind = prox_sqn\n"
        "solver.sqn.epochs = 7\n"
        "solver.sqn.eta = 0.02743715200664057\n"
        "solver.sqn.m = 2000\n"
        "solver.sqn.b = 10\n"
        "solver.sqn.b_hessian = 50\n"
        "solver.sqn.metric_period = 10\n"
        "solver.sqn.alpha = 0.5\n"
        "solver.sqn.skip_eps = 1e-08\n"
        "solver.sqn.scheme = weighted_batch\n"
        "solver.sqn.seed = 3\n"
        "solver.prox_gd.kind = prox_gd\n"
        "solver.prox_gd.epochs = 40\n"
        "solver.prox_gd.eta = 0.1\n"
        "solver.prox_gd.m = 1000\n"
        "solver.prox_gd.b = 10\n"
        "solver.prox_gd.b_hessian = 50\n"
        "solver.prox_gd.metric_period = 10\n"
        "solver.prox_gd.alpha = 0.5\n"
        "solver.prox_gd.skip_eps = 1e-08\n"
        "solver.prox_gd.scheme = uniform_batch\n"
        "solver.prox_gd.seed = 0\n")


def test_roundtrip_dataset_config():
    cfg = ExperimentConfig(
        loss=LossKind.SQUARED_ERROR, ridge=0.0, lambda1=0.5,
        solvers=[("fista", SolverConfig(kind=SolverKind.FISTA))],
        dataset="data/train.libsvm")
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_minimal_text():
    cfg = parse_config(
        "loss = squared_error\n"
        "ridge = 0.1\n"
        "lambda1 = 0.0\n"
        "dataset = d.libsvm\n"
        "solvers = prox_gd\n")
    assert cfg.loss is LossKind.SQUARED_ERROR
    assert cfg.dataset == "d.libsvm"
    assert cfg.ref_tol == 1e-12
    assert cfg.output is None
    # solver kind defaults from the solver's name
    assert cfg.solvers == [("prox_gd", SolverConfig(kind=SolverKind.PROX_GD))]


def test_parse_ignores_comments_and_blank_lines():
    cfg = parse_config(
        "# experiment\n"
        "\n"
        "loss = squared_error\n"
        "   # indented comment\n"
        "ridge = 0.0\n"
        "lambda1 = 0.0\n"
        "dataset = d\n"
        "solvers = fista\n")
    assert cfg.ridge == 0.0


def test_parse_solver_field_overrides():
    cfg = parse_config(
        "loss = logistic_ridge\n"
        "ridge = 0.05\n"
        "lambda1 = 0.01\n"
        "synthetic.n = 50\n"
        "synthetic.d = 5\n"
        "solvers = a, b\n"
        "solver.a.kind = prox_sqn\n"
        "solver.a.eta = 0.25\n"
        "solver.a.scheme = weighted_single\n"
        "solver.a.b = 1\n"
        "solver.b.kind = prox_svrg\n")
    (name_a, sc_a), (name_b, sc_b) = cfg.solvers
    assert (name_a, sc_a.eta, sc_a.scheme) == \
        ("a", 0.25, SchemeKind.WEIGHTED_SINGLE)
    assert (name_b, sc_b.kind) == ("b", SolverKind.PROX_SVRG)
    assert cfg.synthetic.loss is LossKind.LOGISTIC_RIDGE


_BASE = ("loss = squared_error\n"
         "ridge = 0.1\n"
         "lambda1 = 0.0\n"
         "dataset = d\n"
         "solvers = prox_gd\n")


@pytest.mark.parametrize("text,fragment", [
    ("loss = squared_error\nbogus\n", "line 2: expected `key = value`"),
    ("= 3\n" + _BASE, "line 1: empty key"),
    ("ridge = 0.1\nridge = 0.2\n", "line 2: duplicate key 'ridge'"),
    ("ridge = 0.1\nridge = 0.2\n", "first at line 1"),
    ("mystery = 1\n" + _BASE, "line 1: unknown key 'mystery'"),
    ("loss = huber\n", "line 1: loss: 'huber' is not one of "
                       "squared_error, logistic_ridge"),
    ("ridge = abc\n", "line 1: ridge: expected float, got 'abc'"),
    ("synthetic.n = 1.5\n", "line 1: synthetic.n: expected integer"),
    ("synthetic.flavor = hot\n", "line 1: unknown key 'synthetic.flavor'"),
    (_BASE + "solver.prox_gd.speed = 9\n",
     "line 6: unknown solver field 'speed'"),
    (_BASE + "solver.prox_gd = 9\n",
     "line 6: solver keys look like solver.<name>.<field>"),
    ("loss = squared_error\nridge = 0.1\ndataset = d\nsolvers = fista\n",
     "missing required key 'lambda1'"),
    (_BASE + "synthetic.n = 5\nsynthetic.d = 5\n",
     "exactly one of `dataset` and `synthetic.*`"),
    ("loss = squared_error\nridge = 0.1\nlambda1 = 0.0\nsolvers = fista\n",
     "exactly one of `dataset` and `synthetic.*`"),
    (_BASE.replace("solvers = prox_gd", "solvers =  "), "empty solver list"),
    (_BASE.replace("solvers = prox_gd", "solvers = a, a"),
     "duplicate solver names"),
    (_BASE + "solver.ghost.eta = 0.1\n",
     "solver.ghost.* configured but 'ghost' is not listed"),
    (_BASE.replace("solvers = prox_gd", "solvers = mystery"),
     "solver 'mystery': no solver.mystery.kind given"),
    (_BASE + "solver.prox_gd.epochs = 0\n",
     "solver 'prox_gd': epochs, m, Z must all be >= 1"),
    ("loss = squared_error\nridge = 0.1\nlambda1 = 0.0\n"
     "synthetic.d = 5\nsolvers = fista\n", "missing required key synthetic.n"),
    ("loss = squared_error\nridge = 0.1\nlambda1 = 0.0\nsynthetic.n = 5\n"
     "synthetic.d = 5\nsynthetic.density = 0.0\nsolvers = fista\n",
     "invalid synthetic spec: density must lie in"),
    ("loss = squared_error\nridge = -0.1\nlambda1 = 0.0\ndataset = d\n"
     "solvers = fista\n", "ridge and lambda1 must be >= 0"),
    ("loss = squared_error\nridge = 0.1\nlambda1 = 0.0\ndataset = d\n"
     "ref_tol = 0.0\nsolvers = fista\n", "ref_tol must be > 0"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError, match=None) as err:
        parse_config(text)
    assert fragment in str(err.value), str(err.value)


@pytest.mark.parametrize("key", ["ridge", "lambda1", "ref_tol",
                                 "synthetic.noise", "solver.prox_gd.eta",
                                 "solver.prox_gd.skip_eps"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_parse_rejects_nonfinite_floats(key, raw):
    lines = ["loss = squared_error", "ridge = 0.1", "lambda1 = 0.0",
             "synthetic.n = 5", "synthetic.d = 5", "solvers = prox_gd"]
    lines = [ln for ln in lines if not ln.startswith(key + " ")]
    lines.append(f"{key} = {raw}")
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(lines) + "\n")
    assert f"line {len(lines)}: {key}: expected a finite float, " \
        f"got {raw!r}" in str(err.value)


@pytest.mark.parametrize("key", ["ridge", "lambda1", "ref_tol"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_experiment_config_rejects_nonfinite(key, bad):
    kw = dict(loss=LossKind.SQUARED_ERROR, ridge=0.1, lambda1=0.0,
              dataset="d")
    kw[key] = bad
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**kw)


def test_parse_without_solver_requirement():
    cfg = parse_config(
        "loss = squared_error\nridge = 0.0\nlambda1 = 0.0\n"
        "synthetic.n = 5\nsynthetic.d = 5\n", require_solvers=False)
    assert cfg.solvers == []
    with pytest.raises(ConfigError, match="at least one solver"):
        parse_config(
            "loss = squared_error\nridge = 0.0\nlambda1 = 0.0\n"
            "synthetic.n = 5\nsynthetic.d = 5\n")


def test_float_fields_roundtrip_bitwise():
    # repr-based serialization preserves every bit of an awkward step size
    eta = 0.02743715200664057
    cfg = ExperimentConfig(
        loss=LossKind.SQUARED_ERROR, ridge=1e-300, lambda1=0.1 + 0.2,
        solvers=[("s", SolverConfig(eta=eta))], dataset="d")
    back = parse_config(serialize_config(cfg))
    assert back.solvers[0][1].eta == eta
    assert back.ridge == 1e-300
    assert back.lambda1 == cfg.lambda1


def test_readme_config_example_parses():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Config format", 1)[1]
    example = section.split("```\n", 2)[1]
    cfg = parse_config(example)
    assert [name for name, _ in cfg.solvers] == ["sqn", "baseline"]
    assert [sc.kind for _, sc in cfg.solvers] == [SolverKind.PROX_SQN,
                                                  SolverKind.PROX_GD]
    assert cfg.synthetic == SyntheticSpec(
        n=1000, d=50, density=0.24, condition=16.0, noise=0.2, seed=42,
        loss=LossKind.LOGISTIC_RIDGE)
    assert cfg.dataset is None
