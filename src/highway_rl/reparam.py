"""Distill highway-graph Q values into a small feedforward approximator.

The approximator is a fixed two-hidden-layer MLP (512 rectifier units each)
mapping normalized state features to one Q value per action.  Training is
SGD with momentum on an MSE loss over the selected action outputs; targets
are standardized internally (predictions come back in the original scale),
which keeps the optimization conditioned identically across reward scales.

Actions with no Q entry at a dataset state are anchored one target-spread
below the state's best scored action.  Without anchors the untouched output
heads drift freely through the band real Q values live in and the argmax
becomes a coin flip, so greedy agreement with the graph policy collapses.
Gradients are computed analytically so they can be checked against finite
differences.  The loss recorded after each epoch comes from a forward-only
pass through the same code, so it equals the gradient pass's loss bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .highway_graph import HighwayGraph
from .value_iteration import ValueTables

HIDDEN_UNITS = 512


@dataclass(frozen=True)
class ApproxConfig:
    learning_rate: float = 3e-2
    momentum: float = 0.9
    epochs: int = 4000
    batch_size: int | None = None        # None: full-batch descent
    init_seed: int = 0
    hidden_units: int = HIDDEN_UNITS
    # how actions absent from the dataset at a state are supervised:
    # "below-best" pins them one target-spread under the state's best scored
    # action, None leaves those heads entirely unsupervised
    absent_action_anchor: str | None = "below-best"

    def __post_init__(self):
        if self.absent_action_anchor not in (None, "below-best"):
            raise ValueError(f"unknown anchor mode {self.absent_action_anchor!r}")


@dataclass
class QDataset:
    """One row per (intersection, outgoing highway) pair."""

    features: np.ndarray   # (n, feature_dim) float64, normalized to [0, 1]
    actions: np.ndarray    # (n,) int64
    targets: np.ndarray    # (n,) float64

    def __len__(self):
        return len(self.actions)


def extract_dataset(graph: HighwayGraph, tables: ValueTables, features_of) -> QDataset:
    """Exactly one row per Q entry; targets are the converged Q values.

    features_of maps a state id to its normalized feature vector.
    """
    keys = sorted(tables.q)
    if not keys:
        return QDataset(features=np.zeros((0, 0)), actions=np.zeros(0, dtype=np.int64),
                        targets=np.zeros(0))
    feats = np.stack([np.asarray(features_of(s), dtype=np.float64) for s, _a in keys])
    actions = np.array([a for _s, a in keys], dtype=np.int64)
    targets = np.array([tables.q[k] for k in keys], dtype=np.float64)
    return QDataset(features=feats, actions=actions, targets=targets)


@dataclass
class QApproximator:
    """Two-hidden-layer rectifier MLP with one output per action.

    The network itself works in standardized target units; predict() maps
    back to the original Q scale via (target_mean, target_scale).
    """

    weights: list    # [W1, b1, W2, b2, W3, b3]
    feature_dim: int
    action_count: int
    config: ApproxConfig
    target_mean: float = 0.0
    target_scale: float = 1.0
    loss_history: list = field(default_factory=list)

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.feature_dim:
            raise DimensionMismatch(
                f"feature dim {x.shape[1]} != expected {self.feature_dim}")
        out = self.target_mean + self.target_scale * _forward(self.weights, x)[2]
        return out[0] if squeeze else out

    def parameter_count(self) -> int:
        return sum(w.size for w in self.weights)


def _init_weights(feature_dim: int, action_count: int, cfg: ApproxConfig) -> list:
    rng = np.random.default_rng(cfg.init_seed)
    dims = [feature_dim, cfg.hidden_units, cfg.hidden_units, action_count]
    weights = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        weights.append(np.zeros(fan_out))
    return weights


def _forward(weights: list, x: np.ndarray):
    """Hidden activations h1, h2 and the outputs, in standardized units."""
    w1, b1, w2, b2, w3, b3 = weights
    h1 = np.maximum(x @ w1 + b1, 0.0)
    h2 = np.maximum(h1 @ w2 + b2, 0.0)
    return h1, h2, h2 @ w3 + b3


def _picked_errors(approx: QApproximator, features: np.ndarray, actions: np.ndarray,
                   targets: np.ndarray):
    """Forward pass plus each row's selected output minus its standardized target."""
    x = np.asarray(features, dtype=np.float64)
    scaled = (np.asarray(targets, dtype=np.float64)
              - approx.target_mean) / approx.target_scale
    h1, h2, pred = _forward(approx.weights, x)
    return x, h1, h2, pred, pred[np.arange(len(scaled)), actions] - scaled


def loss_and_gradients(approx: QApproximator, features: np.ndarray,
                       actions: np.ndarray, targets: np.ndarray):
    """Training MSE over the selected action outputs, plus analytic gradients.

    targets are given in the original Q scale; the loss lives in the
    approximator's standardized space.
    """
    _w1, _b1, w2, _b2, w3, _b3 = approx.weights
    x, h1, h2, pred, err = _picked_errors(approx, features, actions, targets)
    n = len(err)
    loss = float(np.mean(err ** 2))
    dpred = np.zeros_like(pred)
    dpred[np.arange(n), actions] = 2.0 * err / n
    dw3 = h2.T @ dpred
    db3 = dpred.sum(axis=0)
    dh2 = dpred @ w3.T
    dz2 = dh2 * (h2 > 0.0)   # h > 0 exactly where the pre-activation is > 0
    dw2 = h1.T @ dz2
    db2 = dz2.sum(axis=0)
    dh1 = dz2 @ w2.T
    dz1 = dh1 * (h1 > 0.0)
    dw1 = x.T @ dz1
    db1 = dz1.sum(axis=0)
    return loss, [dw1, db1, dw2, db2, dw3, db3]


def _anchor_absent_actions(dataset: QDataset, action_count: int) -> QDataset:
    """Add one row per (dataset state, action missing there).

    Each missing action is pinned one target-spread under the state's best
    scored action, which guarantees it loses the argmax without assuming
    anything about the reward sign.
    """
    spread = float(dataset.targets.max() - dataset.targets.min())
    margin = spread if spread > 0 else 1.0
    groups: dict[bytes, tuple[np.ndarray, dict]] = {}
    for i in range(len(dataset)):
        key = dataset.features[i].tobytes()
        feats, present = groups.setdefault(key, (dataset.features[i], {}))
        a = int(dataset.actions[i])
        present[a] = max(present.get(a, -np.inf), float(dataset.targets[i]))
    extra_f, extra_a, extra_t = [], [], []
    for _key, (feats, present) in groups.items():
        anchor = max(present.values()) - margin
        for a in range(action_count):
            if a not in present:
                extra_f.append(feats)
                extra_a.append(a)
                extra_t.append(anchor)
    if not extra_f:
        return dataset
    return QDataset(
        features=np.concatenate([dataset.features, np.stack(extra_f)]),
        actions=np.concatenate([dataset.actions, np.array(extra_a, dtype=np.int64)]),
        targets=np.concatenate([dataset.targets,
                                np.array(extra_t, dtype=np.float64)]),
    )


def fit(dataset: QDataset, config: ApproxConfig = ApproxConfig(),
        action_count: int | None = None) -> QApproximator:
    """SGD with momentum on the MSE over selected outputs; deterministic per seed.

    After each epoch's updates, a forward-only pass over the full training
    set records the loss in loss_history; no gradients are computed for it.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    if action_count is None:
        action_count = int(dataset.actions.max()) + 1
    if config.absent_action_anchor is not None:
        dataset = _anchor_absent_actions(dataset, action_count)
    feature_dim = dataset.features.shape[1]
    scale = float(dataset.targets.std())
    approx = QApproximator(
        weights=_init_weights(feature_dim, action_count, config),
        feature_dim=feature_dim,
        action_count=action_count,
        config=config,
        target_mean=float(dataset.targets.mean()),
        target_scale=scale if scale > 0 else 1.0,
    )
    rng = np.random.default_rng(config.init_seed + 1)
    velocity = [np.zeros_like(w) for w in approx.weights]
    n = len(dataset)
    batch = n if config.batch_size is None else min(config.batch_size, n)
    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start:start + batch]
            _loss, grads = loss_and_gradients(
                approx, dataset.features[rows], dataset.actions[rows],
                dataset.targets[rows])
            for vel, w, g in zip(velocity, approx.weights, grads):
                vel *= config.momentum
                vel -= config.learning_rate * g
                w += vel
        err = _picked_errors(approx, dataset.features, dataset.actions,
                             dataset.targets)[-1]
        approx.loss_history.append(float(np.mean(err ** 2)))
    return approx


def act(approx: QApproximator, state_features) -> int:
    """Argmax over predicted Q values; ties go to the lowest action id."""
    q = approx.predict(np.asarray(state_features, dtype=np.float64))
    return int(np.argmax(q))


def policy_agreement(approx: QApproximator, states, features_of, graph_greedy) -> float:
    """Share of states whose approximator action matches graph_greedy[state]."""
    states = list(states)
    if not states:
        return 1.0
    hits = sum(1 for s in states if act(approx, features_of(s)) == graph_greedy[s])
    return hits / len(states)
