"""Distill highway-graph Q values into a small feedforward approximator.

The approximator is a fixed two-hidden-layer MLP (512 rectifier units each)
mapping normalized state features to one Q value per action.  Training is
full-batch gradient descent with momentum MOMENTUM on an MSE loss over the
supervised action outputs; targets are standardized internally (predictions
come back in the original scale), which keeps the optimization conditioned
identically across reward scales.

The fit descends on one row per distinct dataset state: a (states × actions)
target table with a 0/1 mask of the entries present.  The loss is the sum of
mask·(pred − table)² over the number of present entries, the same function as
the MSE over (state, action) rows.  Actions with no Q entry at a dataset
state are anchored one target-spread below the state's best scored action.
Without anchors the untouched output heads drift freely through the band
real Q values live in and the argmax becomes a coin flip, so greedy
agreement with the graph policy collapses.  epochs is a cap: fit stops after
the first epoch whose forward pass puts every entry within half the smallest
best-vs-runner-up gap of its target, which proves the net's argmax is the
table's at every dataset state.  With an unsupervised entry, one action or an
exact tie that margin is 0 and every epoch runs.  Gradients are computed
analytically so they can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .highway_graph import HighwayGraph
from .value_iteration import ValueTables

HIDDEN_UNITS = 512
MOMENTUM = 0.9


@dataclass(frozen=True)
class ApproxConfig:
    learning_rate: float = 3e-2
    epochs: int = 4000   # at most: fit stops once the dataset's argmax is certified
    init_seed: int = 0
    hidden_units: int = HIDDEN_UNITS
    # how actions absent from the dataset at a state are supervised:
    # "below-best" pins them one target-spread under the state's best scored
    # action, None leaves those heads entirely unsupervised
    absent_action_anchor: str | None = "below-best"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.hidden_units < 1:
            raise ValueError(f"hidden_units must be >= 1, got {self.hidden_units}")
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
    if not len(tables.q_values):
        return QDataset(features=np.zeros((0, 0)), actions=np.zeros(0, dtype=np.int64),
                        targets=np.zeros(0))
    feats = np.stack([np.asarray(features_of(s), dtype=np.float64)
                      for s in tables.states[tables.q_src].tolist()])
    return QDataset(features=feats, actions=np.array(tables.q_actions, dtype=np.int64),
                    targets=np.array(tables.q_values, dtype=np.float64))


@dataclass
class QApproximator:
    """Two-hidden-layer rectifier MLP with one output per action.

    The network itself works in standardized target units; predict() maps
    back to the original Q scale via (target_mean, target_scale).  Values are
    guaranteed only to within the fit's stopping margin, not exactly.
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
    h1 = x @ w1
    h1 += b1
    np.maximum(h1, 0.0, out=h1)
    h2 = h1 @ w2
    h2 += b2
    np.maximum(h2, 0.0, out=h2)
    out = h2 @ w3
    out += b3
    return h1, h2, out


def _target_table(dataset: QDataset, action_count: int, anchor: str | None):
    """One row per distinct state, in order of first appearance: its features,
    a (states × actions) table of original-scale targets, a 0/1 mask of the
    entries present, and the present targets in row order, anchored ones last.

    With the "below-best" anchor, each action missing at a state is pinned one
    target-spread under the state's best scored action, which guarantees it
    loses the argmax without assuming anything about the reward sign.
    """
    x = np.asarray(dataset.features, dtype=np.float64)
    targets = np.asarray(dataset.targets, dtype=np.float64)
    index: dict[bytes, int] = {}
    state = np.array([index.setdefault(f.tobytes(), len(index)) for f in x], dtype=np.int64)
    x = x[np.unique(state, return_index=True)[1]]
    table, mask = np.zeros((len(x), action_count)), np.zeros((len(x), action_count))
    table[state, dataset.actions] = targets
    np.add.at(mask, (state, dataset.actions), 1.0)
    if (mask > 1.0).any():
        s, a = np.argwhere(mask > 1.0)[0]
        raise ValueError(f"repeated (state, action) pair: action {a} "
                         f"at state features {x[s].tolist()}")
    if anchor is not None:
        spread = float(targets.max() - targets.min())
        absent = mask == 0.0
        best = np.where(absent, -np.inf, table).max(axis=1)
        table = np.where(absent, (best - (spread if spread > 0 else 1.0))[:, None], table)
        mask[absent] = 1.0
        targets = np.concatenate([targets, table[absent]])
    return x, table, mask, targets


def _backward(weights: list, x: np.ndarray, h1: np.ndarray, h2: np.ndarray,
              dpred: np.ndarray, grads: list, dz: list) -> None:
    """Fill grads with the gradients for output gradient dpred, from one
    forward's activations; dz holds two (rows, hidden) scratch buffers."""
    _w1, _b1, w2, _b2, w3, _b3 = weights
    dw1, db1, dw2, db2, dw3, db3 = grads
    dz1, dz2 = dz
    np.matmul(h2.T, dpred, out=dw3)
    dpred.sum(axis=0, out=db3)
    np.matmul(dpred, w3.T, out=dz2)
    dz2 *= h2 > 0.0   # h > 0 exactly where the pre-activation is > 0
    np.matmul(h1.T, dz2, out=dw2)
    dz2.sum(axis=0, out=db2)
    np.matmul(dz2, w2.T, out=dz1)
    dz1 *= h1 > 0.0
    np.matmul(x.T, dz1, out=dw1)
    dz1.sum(axis=0, out=db1)


def loss_and_gradients(approx: QApproximator, features: np.ndarray,
                       actions: np.ndarray, targets: np.ndarray):
    """Training MSE over the given (state, action) targets, plus analytic gradients,
    computed on the state table fit descends on.

    targets are given in the original Q scale; the loss lives in the
    approximator's standardized space.
    """
    x, table, mask, _targets = _target_table(QDataset(features, actions, targets),
                                             approx.action_count, None)
    h1, h2, pred = _forward(approx.weights, x)
    err = (pred - (table - approx.target_mean) / approx.target_scale) * mask
    count = mask.sum()
    grads = [np.empty_like(w) for w in approx.weights]
    _backward(approx.weights, x, h1, h2, err * (2.0 / count), grads,
              [np.empty_like(h1), np.empty_like(h2)])
    return float(np.sum(err * err) / count), grads


def fit(dataset: QDataset, config: ApproxConfig = ApproxConfig(),
        action_count: int | None = None) -> QApproximator:
    """Full-batch descent with momentum on the masked table MSE; deterministic per seed.

    Every pass runs over all states in natural order.  An epoch is one
    backward pass on the previous forward's activations, one momentum step,
    and one forward pass, whose loss goes into loss_history and decides the
    stop.  The learning rate rides in the output gradient, so the gradients
    arrive as steps.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    if action_count is None:
        action_count = int(dataset.actions.max()) + 1
    x, table, mask, targets = _target_table(dataset, action_count,
                                            config.absent_action_anchor)
    scale = float(targets.std())
    approx = QApproximator(
        weights=_init_weights(x.shape[1], action_count, config),
        feature_dim=x.shape[1],
        action_count=action_count,
        config=config,
        target_mean=float(targets.mean()),
        target_scale=scale if scale > 0 else 1.0,
    )
    table = (table - approx.target_mean) / approx.target_scale
    count = mask.sum()
    # half the smallest best-vs-runner-up gap; 0 (never stops) if an entry is unsupervised
    top2 = np.sort(table, axis=1)[:, -2:] if action_count > 1 and mask.all() else np.zeros((1, 2))
    margin = 0.5 * float((top2[:, 1] - top2[:, 0]).min())
    velocity = [np.zeros_like(w) for w in approx.weights]
    steps = [np.empty_like(w) for w in approx.weights]
    dz = [np.empty((len(x), config.hidden_units)) for _ in range(2)]
    h1, h2, pred = _forward(approx.weights, x)
    err = (pred - table) * mask
    for _epoch in range(config.epochs):
        err *= 2.0 * config.learning_rate / count   # now the output gradient, as a step
        _backward(approx.weights, x, h1, h2, err, steps, dz)
        # free this step's activations, so the next forward reuses their memory
        del h1, h2, pred
        for vel, w, step in zip(velocity, approx.weights, steps):
            vel *= MOMENTUM
            vel -= step
            w += vel
        h1, h2, pred = _forward(approx.weights, x)
        err = (pred - table) * mask
        approx.loss_history.append(float(np.sum(err * err) / count))
        if np.abs(err).max() < margin:
            break
    return approx


def act(approx: QApproximator, state_features) -> int:
    """Argmax over predicted Q values; ties go to the lowest action id."""
    q = approx.predict(np.asarray(state_features, dtype=np.float64))
    return int(np.argmax(q))


def greedy_table(approx: QApproximator, env) -> dict[int, int]:
    """`act` at every non-terminal state of env, keyed by state id: the net's
    greedy policy compiled once, a table `trainer.evaluate` acts from."""
    return {env.state_id(obs): act(approx, env.state_features(obs))
            for obs in env.enumerate_states() if not env.is_terminal(obs)}


def policy_agreement(approx: QApproximator, states, features_of, graph_greedy) -> float:
    """Share of states whose approximator action matches graph_greedy[state]."""
    states = list(states)
    if not states:
        return 1.0
    hits = sum(1 for s in states if act(approx, features_of(s)) == graph_greedy[s])
    return hits / len(states)
