"""Q-value distillation: dataset extraction, fitting, gradients, acting."""

import random

import numpy as np
import pytest

from conftest import random_highway_graph
from highway_rl.environments import EnvSpec, make_env
from highway_rl.errors import DimensionMismatch
from highway_rl import reparam
from highway_rl.reparam import (ApproxConfig, QApproximator, QDataset, _forward, _init_weights,
                                _target_table, act, extract_dataset, fit, greedy_table,
                                loss_and_gradients, policy_agreement)
from highway_rl.value_iteration import value_update_loop

SMALL = ApproxConfig(hidden_units=24, epochs=400, init_seed=3)


def _features_of(sid):
    rng = random.Random(sid)
    return np.array([rng.random(), rng.random()])


def test_extract_one_row_per_q_entry():
    g = random_highway_graph(random.Random(1), max_intersections=10)
    tables = value_update_loop(g, delta=1e-12)
    ds = extract_dataset(g, tables, _features_of)
    assert len(ds) == len(tables.q)
    keys = sorted(tables.q)
    for row, key in enumerate(keys):
        assert ds.actions[row] == key[1]
        assert ds.targets[row] == tables.q[key]


def test_extract_empty_graph():
    from highway_rl.highway_graph import HighwayGraph
    g = HighwayGraph()
    tables = value_update_loop(g, delta=1e-12)
    ds = extract_dataset(g, tables, _features_of)
    assert len(ds) == 0


def test_fit_single_row_converges():
    ds = QDataset(features=np.array([[0.3, 0.7]]), actions=np.array([1]),
                  targets=np.array([0.5]))
    # unanchored heads leave no policy certificate, so every epoch runs
    approx = fit(ds, ApproxConfig(hidden_units=24, epochs=500, init_seed=0,
                                  absent_action_anchor=None), action_count=4)
    assert len(approx.loss_history) == 500
    assert approx.predict(ds.features[0])[1] == pytest.approx(0.5, abs=1e-3)
    # anchored, the fit stops as soon as action 1 provably wins
    anchored = fit(ds, ApproxConfig(hidden_units=24, epochs=500, init_seed=0), action_count=4)
    assert len(anchored.loss_history) < 500
    assert act(anchored, ds.features[0]) == 1


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


@pytest.mark.parametrize("spec", [EnvSpec("maze", 4, 3, seed=1), EnvSpec("taxi")],
                         ids=["maze", "taxi"])
def test_greedy_table_is_act_at_every_non_terminal_state(spec):
    env = make_env(spec)
    rng = np.random.default_rng(5)
    n = len(env.state_features(env.reset(0)))
    approx = fit(QDataset(features=rng.uniform(0, 1, size=(40, n)),
                          actions=rng.integers(0, env.action_count, size=40),
                          targets=rng.normal(size=40)),
                 ApproxConfig(hidden_units=16, epochs=20), action_count=env.action_count)
    table = greedy_table(approx, env)
    live = [obs for obs in env.enumerate_states() if not env.is_terminal(obs)]
    assert sorted(table) == sorted(env.state_id(obs) for obs in live)
    for obs in live:
        q = approx.predict(env.state_features(obs))
        assert table[env.state_id(obs)] == act(approx, env.state_features(obs)) == np.argmax(q)
    assert len(set(table.values())) > 1


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


def _row_loss_and_gradients(approx, x, actions, targets):
    """The per-row MSE and its gradients, with no state table: one forward and
    backward row per (state, action) entry."""
    w1, b1, w2, b2, w3, b3 = approx.weights
    n = len(actions)
    h1 = np.maximum(x @ w1 + b1, 0.0)
    h2 = np.maximum(h1 @ w2 + b2, 0.0)
    pred = h2 @ w3 + b3
    err = pred[np.arange(n), actions] - (targets - approx.target_mean) / approx.target_scale
    dpred = np.zeros_like(pred)
    dpred[np.arange(n), actions] = 2.0 * err / n
    dz2 = (dpred @ w3.T) * (h2 > 0.0)
    dz1 = (dz2 @ w2.T) * (h1 > 0.0)
    return (float(np.mean(err ** 2)),
            [x.T @ dz1, dz1.sum(axis=0), h1.T @ dz2, dz2.sum(axis=0), h2.T @ dpred,
             dpred.sum(axis=0)])


@pytest.mark.parametrize("anchor", ["below-best", None])
def test_table_gradients_match_the_per_row_formula(anchor):
    ds = _mixed_rows(np.random.default_rng(8))
    approx = fit(ds, ApproxConfig(hidden_units=32, epochs=3, init_seed=2,
                                  absent_action_anchor=anchor), action_count=4)
    x, table, mask, _targets = _target_table(ds, 4, anchor)
    rows = (_entries(x, table, mask, np.arange(len(x))) if anchor is not None
            else (ds.features, ds.actions, ds.targets))
    assert mask.all() == (anchor is not None)
    loss, grads = loss_and_gradients(approx, *rows)
    want_loss, want = _row_loss_and_gradients(approx, *rows)
    assert abs(loss - want_loss) <= 1e-12 * want_loss
    for got, ref in zip(grads, want):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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


def test_fit_rejects_a_repeated_state_action_pair():
    # the state table holds one target per (state, action): a second would be lost
    ds = QDataset(features=np.array([[0.1, 0.2], [0.3, 0.4], [0.1, 0.2]]),
                  actions=np.array([1, 0, 1]), targets=np.array([0.5, 0.1, 0.7]))
    with pytest.raises(ValueError, match=r"action 1 at state features \[0\.1, 0\.2\]"):
        fit(ds, SMALL, action_count=4)


def _entries(x, table, mask, states):
    """The table's present entries at the given states as (features, actions,
    targets) rows, state by state in the given order."""
    s, a = np.nonzero(mask[states])
    return x[states[s]], a, table[states[s], a]


def _reference_fit(ds, cfg, action_count):
    """The fit loop written out with loss_and_gradients alone: a descent step
    on every entry, state by state in natural order, then the loss over every
    entry from a gradient pass.

    fit folds the learning rate into the output gradient; this loop scales the
    gradients instead.  Both round alike only for a power-of-two rate, which is
    why the cases below run at REF_LR."""
    x, table, mask, targets = _target_table(ds, action_count, cfg.absent_action_anchor)
    scale = float(targets.std())
    approx = QApproximator(
        weights=_init_weights(x.shape[1], action_count, cfg),
        feature_dim=x.shape[1], action_count=action_count, config=cfg,
        target_mean=float(targets.mean()), target_scale=scale if scale > 0 else 1.0)
    # the stop rule: every entry within half the smallest best-vs-runner-up gap
    std = (table - approx.target_mean) / approx.target_scale
    margin = 0.0
    if action_count > 1 and mask.all():
        margin = min(np.sort(row)[-1] - np.sort(row)[-2] for row in std) / 2
    velocity = [np.zeros_like(w) for w in approx.weights]
    entries = _entries(x, table, mask, np.arange(len(x)))
    history = []
    for _epoch in range(cfg.epochs):
        _loss, grads = loss_and_gradients(approx, *entries)
        for vel, w, g in zip(velocity, approx.weights, grads):
            vel *= reparam.MOMENTUM
            vel -= cfg.learning_rate * g
            w += vel
        loss, _grads = loss_and_gradients(approx, *entries)
        history.append(loss)
        if np.max(np.abs(_forward(approx.weights, x)[2] - std)) < margin:
            break
    return approx.weights, history


def _mixed_rows(rng):
    """12 states, each action present with probability 1/2."""
    states = rng.uniform(0, 1, size=(12, 2))
    rows = [(i, a) for i in range(12) for a in range(4) if rng.random() < 0.5]
    return QDataset(features=states[[i for i, _a in rows]],
                    actions=np.array([a for _i, a in rows], dtype=np.int64),
                    targets=rng.normal(size=len(rows)))


def _wide_margin_rows(rng):
    """12 states with all 4 actions scored: 1.0 on a seeded best action, 0.0
    on the rest, so every best-vs-runner-up gap is 1."""
    best = rng.integers(0, 4, size=12)
    return QDataset(features=np.repeat(rng.uniform(0, 1, size=(12, 2)), 4, axis=0),
                    actions=np.tile(np.arange(4), 12),
                    targets=(np.tile(np.arange(4), 12) == np.repeat(best, 4)).astype(float))


def _acceptance_shaped_rows(rng):
    """21 states with 1-4 scored actions each: 84 rows once anchored, the shape
    of the maze 5x5 distillation dataset."""
    states = rng.uniform(0, 1, size=(21, 2))
    rows = [(i, a) for i in range(21)
            for a in np.sort(rng.choice(4, size=rng.integers(1, 5), replace=False))]
    return QDataset(features=states[[i for i, _a in rows]],
                    actions=np.array([a for _i, a in rows], dtype=np.int64),
                    targets=rng.normal(size=len(rows)))


def _odd_rows(rng):
    """85 rows at distinct states."""
    return QDataset(features=rng.uniform(0, 1, size=(85, 2)),
                    actions=rng.integers(0, 4, size=85), targets=rng.normal(size=85))


def _one_row(_rng):
    return QDataset(features=np.array([[0.3, 0.7]]), actions=np.array([1]),
                    targets=np.array([0.5]))


REF_LR = 2.0 ** -5


@pytest.mark.parametrize("cfg, make_rows, states_fitted, entries_fitted", [
    (ApproxConfig(hidden_units=32, epochs=60, init_seed=2, learning_rate=REF_LR),
     _mixed_rows, 12, 48),
    (ApproxConfig(hidden_units=32, epochs=60, init_seed=2, absent_action_anchor=None,
                  learning_rate=REF_LR), _mixed_rows, 12, 30),
    (ApproxConfig(epochs=5, init_seed=2, learning_rate=REF_LR), _acceptance_shaped_rows, 21, 84),
    (ApproxConfig(epochs=5, init_seed=2, absent_action_anchor=None, learning_rate=REF_LR),
     _odd_rows, 85, 85),
    (ApproxConfig(epochs=5, init_seed=2, absent_action_anchor=None, learning_rate=REF_LR),
     _one_row, 1, 1),
    (ApproxConfig(hidden_units=32, epochs=2000, init_seed=2, learning_rate=REF_LR),
     _wide_margin_rows, 12, 48),
], ids=["full-batch", "no-anchor", "512-units-21-states", "512-units-85-states",
        "512-units-1-state", "wide-margin"])
def test_fit_matches_reference_loop(cfg, make_rows, states_fitted, entries_fitted):
    ds = make_rows(np.random.default_rng(8))
    approx = fit(ds, cfg, action_count=4)
    weights, history = _reference_fit(ds, cfg, 4)
    x, _table, mask, _targets = _target_table(ds, 4, cfg.absent_action_anchor)
    assert (len(x), mask.sum()) == (states_fitted, entries_fitted)
    assert (len(history) < cfg.epochs) == (make_rows is _wide_margin_rows)
    for ours, ref in zip(approx.weights, weights):
        assert np.array_equal(ours, ref)
    assert approx.loss_history == history


@pytest.mark.parametrize("anchor", ["below-best", None])
def test_fit_stops_once_the_table_argmax_is_certified(anchor):
    ds = _wide_margin_rows(np.random.default_rng(8))
    cfg = ApproxConfig(hidden_units=32, epochs=2000, init_seed=2, learning_rate=REF_LR,
                       absent_action_anchor=anchor)
    approx = fit(ds, cfg, action_count=4)
    x, table, _mask, _targets = _target_table(ds, 4, anchor)
    pred = approx.predict(x)
    # every gap is 1 in target units, so the margin is 1/2 there
    assert len(approx.loss_history) < cfg.epochs
    assert np.max(np.abs(pred - table)) < 0.5
    assert np.array_equal(pred.argmax(axis=1), table.argmax(axis=1))


def _unscored_rows(rng):
    ds = _wide_margin_rows(rng)
    # drop one losing action per state; unanchored, its head is unsupervised
    keep = ds.actions != np.repeat((ds.targets.reshape(12, 4).argmax(axis=1) + 1) % 4, 4)
    return QDataset(ds.features[keep], ds.actions[keep], ds.targets[keep])


def _tied_rows(rng):
    ds = _wide_margin_rows(rng)
    targets = ds.targets.copy()
    targets[(np.argmax(targets[:4]) + 1) % 4] = 1.0   # the first state's runner-up ties its best
    return QDataset(ds.features, ds.actions, targets)


def _one_action_rows(rng):
    ds = _wide_margin_rows(rng)
    return QDataset(ds.features[::4], np.zeros(12, dtype=np.int64), ds.targets[::4])


@pytest.mark.parametrize("make_rows, anchor, action_count", [
    (_unscored_rows, None, 4), (_tied_rows, "below-best", 4), (_one_action_rows, "below-best", 1),
], ids=["unsupervised-entries", "exact-tie", "one-action"])
def test_fit_runs_every_epoch_without_a_certificate(make_rows, anchor, action_count):
    cfg = ApproxConfig(hidden_units=32, epochs=2000, init_seed=2, learning_rate=REF_LR,
                       absent_action_anchor=anchor)
    approx = fit(make_rows(np.random.default_rng(8)), cfg, action_count=action_count)
    assert len(approx.loss_history) == cfg.epochs


def test_fit_runs_one_full_set_forward_per_epoch(monkeypatch):
    calls = []

    def counting_forward(weights, x):
        calls.append(len(x))
        return _forward(weights, x)

    monkeypatch.setattr(reparam, "_forward", counting_forward)
    ds = _odd_rows(np.random.default_rng(3))
    ds = QDataset(ds.features[:25], ds.actions[:25], ds.targets[:25])
    epochs = 6
    fit(ds, ApproxConfig(hidden_units=8, epochs=epochs, absent_action_anchor=None),
        action_count=4)
    assert calls == [25] * (epochs + 1)

    # 84 anchored entries at 21 states: every forward runs one row per state
    calls.clear()
    fit(_acceptance_shaped_rows(np.random.default_rng(3)),
        ApproxConfig(hidden_units=8, epochs=epochs), action_count=4)
    assert calls == [21] * (epochs + 1)


@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_non_positive_epochs(value):
    with pytest.raises(ValueError, match="epochs"):
        ApproxConfig(epochs=value)


@pytest.mark.parametrize("name, value", [
    ("learning_rate", 0.0), ("learning_rate", -0.01), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("hidden_units", 0), ("hidden_units", -3)])
def test_config_rejects_out_of_range_numbers(name, value):
    with pytest.raises(ValueError, match=name):
        ApproxConfig(**{name: value})


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
    tables = value_update_loop(g, delta=1e-12)
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
