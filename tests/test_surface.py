"""The public surface: what the package exports and what a config may set."""

import pytest

import proxsqn
import proxsqn.oracles
from proxsqn import ConfigError, SolverConfig, parse_config

ORACLES = {"component_gradient", "batch_gradient", "batch_spectrum",
           "dense_inverse", "dense_metric", "subproblem_oracle",
           "kkt_residual"}


def test_oracles_live_outside_the_package_namespace():
    for name in ORACLES:
        assert not hasattr(proxsqn, name), name
        assert name not in proxsqn.__all__, name
    assert set(proxsqn.oracles.__all__) == ORACLES
    assert len(proxsqn.oracles.__all__) == len(ORACLES)
    for name in ORACLES:
        assert callable(getattr(proxsqn.oracles, name))
    # the subproblem oracle checks the library's soft threshold: it keeps
    # its own
    assert not hasattr(proxsqn.oracles, "_soft_threshold")


@pytest.mark.parametrize("knob", ["dense_limit", "divergence_factor"])
def test_solver_config_has_no_guard_knobs(knob):
    with pytest.raises(TypeError):
        SolverConfig(**{knob: 1})
    text = ("loss = squared_error\nridge = 0.1\nlambda1 = 0.0\n"
            "synthetic.n = 5\nsynthetic.d = 5\nsolvers = x\n"
            f"solver.x.kind = prox_newton_full\nsolver.x.{knob} = 300\n")
    with pytest.raises(ConfigError, match=f"unknown solver field '{knob}'"):
        parse_config(text)
