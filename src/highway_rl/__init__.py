"""Highway-graph reinforcement learning.

Compresses the empirical state-transition graph of a deterministic
environment into intersections joined by non-branching highways, runs an
accelerated value-iteration loop over the compressed graph, and turns the
result into a policy (optionally distilled into a small neural
approximator).
"""

from .encoder import encode_tabular
from .environments import EnvSpec, StepResult, make_env
from .errors import (DeterminismViolation, DimensionMismatch, KeyMismatch,
                     MissingArtifact, NotInterior)
from .highway_graph import Highway, HighwayGraph, expand_to_empirical, graph_stats
from .policy import PolicySnapshot, epsilon_greedy, greedy_action
from .reparam import ApproxConfig, QApproximator, QDataset, act, extract_dataset, fit
from .trainer import EvalResult, RunMetrics, TrainConfig, TrainResult, detect_convergence, evaluate, train
from .transition_model import EmpiricalGraph, Trajectory, TransitionSample, vanilla_value_iteration
from .value_iteration import (ValueTables, completeness_report, contraction_probe, interior_values,
                              value_update_loop)

__version__ = "0.1.0"
