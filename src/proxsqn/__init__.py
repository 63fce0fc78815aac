"""Composite-objective optimization: a stochastic quasi-Newton solver with
variance-reduced gradients and a scaled proximal mapping, plus first-order
baselines, dataset tooling, and a property-check suite.
"""

from .config import ExperimentConfig, parse_config, serialize_config
from .dataio import SyntheticSpec, datasets_equal, generate_synthetic, \
    parse_libsvm, write_libsvm
from .errors import ConfigError, ConvergenceError, DivergenceError, \
    EnumerationLimitError, LibsvmFormatError, NegativeCurvatureError, \
    SecantError
from .metric import CurvaturePair, Metric, MetricBounds, IDENTITY_BOUNDS, \
    apply_inverse, build_metric, metric_as_splitting
from .model import Dataset, LossKind, SmoothObjective, dense_batch_hessian, \
    full_gradient, hessian_vec, smooth_value
# the plain prox function is not re-exported: it would shadow the module
# proxsqn.prox, so it is imported as `from proxsqn.prox import prox`
from .prox import RegKind, Regularizer, RootInfo, ScaledProxProblem, \
    reg_value, scaled_prox, scaled_prox_info
from .sampler import Batch, EstimatorStats, Sampler, SamplingScheme, \
    SchemeKind, SnapshotState, enumerate_estimator_stats, make_rng, \
    make_snapshot, vr_gradient
from .solver import RateReport, RunResult, SolverConfig, SolverKind, \
    TraceRecord, composite_value, rate_plan, reference_solution, run
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
