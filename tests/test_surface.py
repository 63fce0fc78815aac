"""The public surface: what the package exports and what a config may set."""

import types

import numpy as np
import pytest

import proxsqn
import proxsqn.oracles
from proxsqn import ConfigError, Dataset, LossKind, SmoothObjective, \
    SolverConfig, parse_config

# the references that proxsqn.verify uses; the gradient references the
# tests need live in tests/gradient_oracle.py
ORACLES = {"dense_inverse", "dense_metric", "subproblem_oracle",
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


def test_star_import_binds_no_module():
    namespace = {}
    exec("from proxsqn import *", namespace)
    assert set(proxsqn.__all__) <= namespace.keys()
    modules = [name for name, value in namespace.items()
               if isinstance(value, types.ModuleType)]
    assert not modules


def test_constants_and_cache_are_not_constructor_arguments(sq_small):
    ds = sq_small.dataset
    with pytest.raises(TypeError):
        SmoothObjective(ds, LossKind.SQUARED_ERROR, 0.1,
                        component_lipschitz=np.ones(ds.n))
    with pytest.raises(TypeError):
        SmoothObjective.build(ds, LossKind.SQUARED_ERROR, 0.1,
                              strong_convexity=0.1)
    with pytest.raises(TypeError):
        Dataset(ds.indptr, ds.indices, ds.values, ds.labels, ds.d,
                _csr=ds.to_csr())
