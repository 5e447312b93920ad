"""Q-value distillation: dataset extraction, fitting, gradients, acting."""

import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_highway_graph
from highway_rl.errors import DimensionMismatch
from highway_rl.reparam import (ApproxConfig, QDataset, _anchor_absent_actions, act,
                                extract_dataset, fit, loss_and_gradients, policy_agreement)
from highway_rl.value_iteration import value_update_loop

SMALL = ApproxConfig(hidden_units=24, epochs=400, batch_size=16, init_seed=3)


def _features_of(sid):
    rng = random.Random(sid)
    return np.array([rng.random(), rng.random()])


def test_extract_one_row_per_q_entry():
    g = random_highway_graph(random.Random(1), max_intersections=10)
    tables = value_update_loop(g, max_iter=2000, delta=1e-12)
    ds = extract_dataset(g, tables, _features_of)
    assert len(ds) == len(tables.q)
    keys = sorted(tables.q)
    for row, key in enumerate(keys):
        assert ds.actions[row] == key[1]
        assert ds.targets[row] == tables.q[key]


def test_extract_empty_graph():
    from highway_rl.highway_graph import HighwayGraph
    g = HighwayGraph()
    tables = value_update_loop(g, max_iter=10, delta=1e-12)
    ds = extract_dataset(g, tables, _features_of)
    assert len(ds) == 0


def test_fit_single_row_converges():
    ds = QDataset(features=np.array([[0.3, 0.7]]), actions=np.array([1]),
                  targets=np.array([0.5]))
    approx = fit(ds, ApproxConfig(hidden_units=24, epochs=500, init_seed=0),
                 action_count=4)
    assert approx.predict(ds.features[0])[1] == pytest.approx(0.5, abs=1e-3)


def test_act_dominant_action():
    ds = QDataset(features=np.array([[0.5, 0.5]]), actions=np.array([2]),
                  targets=np.array([1.0]))
    approx = fit(ds, SMALL, action_count=4)
    # one trained head dominates the untrained ones on the training point
    q = approx.predict(ds.features[0])
    assert act(approx, ds.features[0]) == int(np.argmax(q))


def test_act_tie_breaks_to_lowest():
    ds = QDataset(features=np.array([[0.1, 0.2]]), actions=np.array([0]),
                  targets=np.array([0.0]))
    approx = fit(ds, ApproxConfig(hidden_units=4, epochs=1, init_seed=0), action_count=3)
    approx.weights[4][:] = 0.0   # zero the output layer: all heads equal
    approx.weights[5][:] = 0.0
    assert act(approx, np.array([0.9, 0.9])) == 0


def test_act_dimension_mismatch():
    ds = QDataset(features=np.array([[0.1, 0.2]]), actions=np.array([0]),
                  targets=np.array([0.0]))
    approx = fit(ds, ApproxConfig(hidden_units=4, epochs=1), action_count=3)
    with pytest.raises(DimensionMismatch):
        act(approx, np.zeros(5))


def test_act_on_unseen_features_is_valid():
    rng = np.random.default_rng(9)
    ds = QDataset(features=rng.uniform(0, 1, size=(10, 2)),
                  actions=rng.integers(0, 4, size=10),
                  targets=rng.normal(size=10))
    approx = fit(ds, SMALL, action_count=4)
    for _ in range(20):
        assert 0 <= act(approx, rng.uniform(-0.5, 1.5, size=2)) < 4


def test_gradient_check_against_central_differences():
    rng = np.random.default_rng(0)
    ds = QDataset(features=rng.uniform(0, 1, size=(12, 3)),
                  actions=rng.integers(0, 4, size=12),
                  targets=rng.normal(size=12))
    approx = fit(ds, ApproxConfig(hidden_units=10, epochs=1, init_seed=5),
                 action_count=4)
    loss0, grads = loss_and_gradients(approx, ds.features, ds.actions, ds.targets)
    probe_rng = np.random.default_rng(1)
    checked = 0
    for w, g in zip(approx.weights, grads):
        flat_w = w.reshape(-1)
        flat_g = g.reshape(-1)
        for _ in range(2):
            i = probe_rng.integers(len(flat_w))
            h = 1e-6
            old = flat_w[i]
            flat_w[i] = old + h
            lp, _ = loss_and_gradients(approx, ds.features, ds.actions, ds.targets)
            flat_w[i] = old - h
            lm, _ = loss_and_gradients(approx, ds.features, ds.actions, ds.targets)
            flat_w[i] = old
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(numeric), abs(flat_g[i]), 1e-8)
            assert abs(numeric - flat_g[i]) / denom <= 1e-4
            checked += 1
    assert checked >= 10


def test_fit_is_bitwise_deterministic():
    rng = np.random.default_rng(2)
    ds = QDataset(features=rng.uniform(0, 1, size=(20, 2)),
                  actions=rng.integers(0, 4, size=20),
                  targets=rng.normal(size=20))
    a = fit(ds, SMALL, action_count=4)
    b = fit(ds, SMALL, action_count=4)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.loss_history == b.loss_history


def _reference_fit(ds, cfg, action_count):
    """The fit loop written out with loss_and_gradients alone: a descent step
    per batch of permuted rows, then the full-set loss from a gradient pass."""
    approx = fit(ds, replace(cfg, epochs=0), action_count=action_count)
    if cfg.absent_action_anchor is not None:
        ds = _anchor_absent_actions(ds, action_count)
    rng = np.random.default_rng(cfg.init_seed + 1)
    velocity = [np.zeros_like(w) for w in approx.weights]
    n = len(ds)
    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    history = []
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start:start + batch]
            _loss, grads = loss_and_gradients(approx, ds.features[rows], ds.actions[rows],
                                              ds.targets[rows])
            for vel, w, g in zip(velocity, approx.weights, grads):
                vel *= cfg.momentum
                vel -= cfg.learning_rate * g
                w += vel
        loss, _grads = loss_and_gradients(approx, ds.features, ds.actions, ds.targets)
        history.append(loss)
    return approx.weights, history


@pytest.mark.parametrize("cfg", [
    ApproxConfig(hidden_units=32, epochs=60, init_seed=2),
    ApproxConfig(hidden_units=32, epochs=20, batch_size=7, init_seed=2),
    ApproxConfig(hidden_units=32, epochs=60, init_seed=2, absent_action_anchor=None),
], ids=["full-batch", "batch-7", "no-anchor"])
def test_fit_matches_reference_loop(cfg):
    rng = np.random.default_rng(8)
    states = rng.uniform(0, 1, size=(12, 2))
    rows = [(i, a) for i in range(12) for a in range(4) if rng.random() < 0.5]
    ds = QDataset(features=states[[i for i, _a in rows]],
                  actions=np.array([a for _i, a in rows], dtype=np.int64),
                  targets=rng.normal(size=len(rows)))
    approx = fit(ds, cfg, action_count=4)
    weights, history = _reference_fit(ds, cfg, 4)
    for ours, ref in zip(approx.weights, weights):
        assert np.array_equal(ours, ref)
    assert approx.loss_history == history


def test_loss_moving_average_non_increasing():
    rng = np.random.default_rng(4)
    ds = QDataset(features=rng.uniform(0, 1, size=(30, 2)),
                  actions=rng.integers(0, 3, size=30),
                  targets=rng.normal(size=30))
    approx = fit(ds, ApproxConfig(hidden_units=24, epochs=400, init_seed=3),
                 action_count=3)
    hist = approx.loss_history
    window = 10
    ma = [sum(hist[i:i + window]) / window for i in range(len(hist) - window + 1)]
    for prev, cur in zip(ma, ma[1:]):
        assert cur <= prev * 1.005  # smoothed curve, small wiggle allowed


def test_policy_agreement_on_fit_graph():
    g = random_highway_graph(random.Random(6), max_intersections=8)
    tables = value_update_loop(g, max_iter=2000, delta=1e-12)
    order = {s: i for i, s in enumerate(sorted(g.intersections))}
    n = len(order)

    def one_hot(sid):
        f = np.zeros(n)
        f[order[sid]] = 1.0
        return f

    ds = extract_dataset(g, tables, one_hot)
    approx = fit(ds, ApproxConfig(hidden_units=64, epochs=2000, learning_rate=1e-2,
                                  init_seed=1), action_count=4)
    from highway_rl.policy import greedy_action
    scored = [s for s in g.intersections if g.out_edges.get(s)]
    agreement = policy_agreement(approx, scored, one_hot,
                                 {s: greedy_action(g, tables, s) for s in scored})
    assert agreement >= 0.9


def test_parameter_count_independent_of_dataset_size():
    rng = np.random.default_rng(5)
    small = QDataset(features=rng.uniform(size=(5, 2)), actions=rng.integers(0, 4, 5),
                     targets=rng.normal(size=5))
    big = QDataset(features=rng.uniform(size=(200, 2)), actions=rng.integers(0, 4, 200),
                   targets=rng.normal(size=200))
    cfg = ApproxConfig(hidden_units=16, epochs=1)
    assert (fit(small, cfg, action_count=4).parameter_count()
            == fit(big, cfg, action_count=4).parameter_count())
