"""Artifact round-trips and run-directory manifests."""

import json
import math
import random
import re
import struct

import numpy as np
import pytest

from conftest import highway_steps, mk_traj, random_highway_graph
from highway_rl.errors import MissingArtifact
from highway_rl.highway_graph import HighwayGraph
from highway_rl.reparam import ApproxConfig, QDataset, fit
from highway_rl.serialize import (load_approximator, load_highway_graph, load_value_tables,
                                  read_manifest, save_approximator, save_highway_graph,
                                  save_value_tables, verify_manifest, write_manifest)
from highway_rl.value_iteration import ValueTables, value_update_loop


def test_highway_graph_round_trip(tmp_path):
    g = random_highway_graph(random.Random(3), max_intersections=15)
    g.assemble([mk_traj((900, 0, 901, 0.25), (901, 1, 902, -0.5))])
    path = tmp_path / "graph.npz"
    save_highway_graph(path, g)
    loaded = load_highway_graph(path)
    assert loaded.gamma == g.gamma
    assert loaded.intersections == g.intersections
    assert loaded.membership.keys() == g.membership.keys()
    assert sorted(highway_steps(loaded)) == sorted(highway_steps(g))
    assert loaded.observed == g.observed
    spans = lambda gr: sorted((h.from_state, h.first_action, h.to_state, h.actions,
                               h.step_rewards, h.step_states)
                              for h in gr.highways.values())
    assert spans(loaded) == spans(g)


def test_highway_graph_round_trip_keeps_the_topology(tmp_path):
    # loading renumbers intersection indices and highway ids; the edge
    # columns, the interior states and the intersections read neither
    g = HighwayGraph(gamma=0.9)
    g.add_highway(5, 1, [0, 1, 0], [0.5, -1.0, 0.25], interior=[7, 3])
    g.add_highway(1, 5, [2], [1.0])
    g.split_highway(0, 3)
    g.make_intersection(9)
    path = tmp_path / "graph.npz"
    save_highway_graph(path, g)
    loaded = load_highway_graph(path)
    assert list(loaded._index) != list(g._index)
    assert sorted(loaded.highways) != sorted(g.highways)
    columns = lambda gr: [col.tolist() for col in gr.edge_columns()]
    assert columns(loaded) == columns(g)
    assert sorted(loaded.membership) == sorted(g.membership)
    assert loaded.intersections == g.intersections


def test_value_tables_round_trip(tmp_path):
    g = random_highway_graph(random.Random(8), max_intersections=10)
    tables = value_update_loop(g, delta=1e-12)
    path = tmp_path / "tables.npz"
    save_value_tables(path, tables)
    loaded = load_value_tables(path)
    assert loaded.v == tables.v
    assert loaded.q == tables.q
    assert loaded.iterations_run == tables.iterations_run
    assert loaded.final_delta == tables.final_delta


def test_value_tables_load_python_scalars_in_key_order(tmp_path):
    big = 2 ** 64 - 1
    tables = ValueTables.from_dicts({big: -0.0, 3: math.inf, 1: math.nan},
                                    {(big, 2): 5e-324, (3, 0): -1.5, (1, 1): math.nan,
                                     (1, 0): 0.0},
                                    iterations_run=7, final_delta=0.25)
    path = tmp_path / "tables.npz"
    save_value_tables(path, tables)
    loaded = load_value_tables(path)
    bits = lambda x: struct.pack("<d", x)
    for want, got in ((tables.v, loaded.v), (tables.q, loaded.q)):
        assert list(got) == sorted(want)
        assert all(type(x) is float for x in got.values())
        assert [bits(got[k]) for k in got] == [bits(want[k]) for k in got]
    assert all(type(s) is int for s in loaded.v)
    assert all(type(s) is int and type(a) is int for s, a in loaded.q)

def test_approximator_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ds = QDataset(features=rng.uniform(size=(6, 2)), actions=rng.integers(0, 3, 6),
                  targets=rng.normal(size=6))
    approx = fit(ds, ApproxConfig(hidden_units=8, epochs=5), action_count=3)
    path = tmp_path / "approx.npz"
    save_approximator(path, approx)
    loaded = load_approximator(path)
    x = rng.uniform(size=2)
    assert np.array_equal(approx.predict(x), loaded.predict(x))
    assert loaded.config == approx.config


def test_approximator_with_the_retired_batch_and_momentum_fields_loads(tmp_path):
    # files written when ApproxConfig still had batch_size and momentum keep
    # those arrays; the loader reads arrays by name and passes them over
    rng = np.random.default_rng(0)
    ds = QDataset(features=rng.uniform(size=(6, 2)), actions=rng.integers(0, 3, 6),
                  targets=rng.normal(size=6))
    approx = fit(ds, ApproxConfig(hidden_units=8, epochs=5), action_count=3)
    path = tmp_path / "approx.npz"
    save_approximator(path, approx)
    with np.load(path) as npz:
        data = {name: npz[name] for name in npz.files}
    data["cfg_batch_size"] = np.array(-1, dtype=np.int64)
    data["cfg_momentum"] = np.array(0.9, dtype=np.float64)
    np.savez_compressed(path, **data)
    loaded = load_approximator(path)
    for ours, theirs in zip(approx.weights, loaded.weights):
        assert np.array_equal(ours, theirs)
    x = rng.uniform(size=(4, 2))
    assert np.array_equal(approx.predict(x), loaded.predict(x))
    assert loaded.config == approx.config
    assert loaded.loss_history == approx.loss_history


@pytest.mark.parametrize("change, message", [
    (lambda data: data.pop("w5"), "the weight array w5 is missing"),
    (lambda data: data.update(w2=data["w2"][:3]), r"w2 has shape \(3, 4\), expected \(4, 4\)"),
    (lambda data: data.update(w3=data["w3"][:3]), r"w3 has shape \(3,\), expected \(4,\)"),
    (lambda data: data.update(w0=data["w0"].T), r"w0 has shape \(4, 2\), expected \(2, 4\)"),
    (lambda data: data.pop("feature_dim"), "the array feature_dim is missing"),
    (lambda data: data.update(target_mean=np.zeros(2)), r"target_mean has shape \(2,\), not \(\)"),
    (lambda data: data.update(cfg_epochs=np.array([1, 1])), r"cfg_epochs has shape \(2,\)"),
    (lambda data: data.update(loss_history=np.array(0.5)),
     r"loss_history has shape \(\), not 1-d"),
], ids=["no-w5", "w2-does-not-chain", "short-bias", "transposed-w0", "no-feature_dim",
        "vector-target_mean", "vector-cfg_epochs", "0-d-loss_history"])
def test_a_malformed_approximator_file_is_refused(tmp_path, change, message):
    rng = np.random.default_rng(0)
    ds = QDataset(features=rng.uniform(size=(6, 2)), actions=rng.integers(0, 3, 6),
                  targets=rng.normal(size=6))
    path = tmp_path / "approx.npz"
    save_approximator(path, fit(ds, ApproxConfig(hidden_units=4, epochs=1), action_count=3))
    with np.load(path) as npz:
        data = {name: npz[name] for name in npz.files}
    change(data)
    np.savez_compressed(path, **data)
    with pytest.raises(ValueError, match=message) as err:
        load_approximator(path)
    assert str(err.value).startswith(f"{path}: ")


def test_missing_artifact_raises(tmp_path):
    with pytest.raises(MissingArtifact):
        load_highway_graph(tmp_path / "nope.npz")


def test_kind_mismatch_raises(tmp_path):
    g = random_highway_graph(random.Random(8), max_intersections=4)
    path = tmp_path / "tables.npz"
    save_value_tables(path, value_update_loop(g, delta=1e-6))
    with pytest.raises(MissingArtifact):
        load_highway_graph(path)


def test_highway_off_an_interior_state_is_rejected(tmp_path):
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 3, [0, 0, 0], [0.0, 0.0, 0.0], interior=[1, 2])
    path = tmp_path / "graph.npz"
    save_highway_graph(path, g)
    with np.load(path) as npz:
        data = {name: npz[name] for name in npz.files}
    # a second highway 1 -> 3 hangs off state 1, which lies inside 0 -> 3;
    # its one step is observed
    data["h_from"] = np.append(data["h_from"], np.uint64(1))
    data["h_ptr"] = np.append(data["h_ptr"], data["h_ptr"][-1] + 1)
    data["flat_actions"] = np.append(data["flat_actions"], 1)
    data["obs_state"] = np.append(data["obs_state"], np.uint64(1))
    data["obs_action"] = np.append(data["obs_action"], 1)
    data["obs_next"] = np.append(data["obs_next"], np.uint64(3))
    data["obs_reward"] = np.append(data["obs_reward"], 0.5)
    np.savez_compressed(path, **data)
    with pytest.raises(ValueError, match="not an intersection"):
        load_highway_graph(path)


def _craft(tmp_path, **changes):
    """A saved 0 -> 3 highway graph file with some arrays replaced (None: dropped)."""
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 3, [0, 0, 0], [0.0, 0.0, 0.0], interior=[1, 2])
    g.add_highway(3, 0, [1], [0.5])
    path = tmp_path / "graph.npz"
    save_highway_graph(path, g)
    with np.load(path) as npz:
        data = {name: npz[name] for name in npz.files}
    for name, change in changes.items():
        data[name] = change(data[name])
    np.savez_compressed(path, **{name: a for name, a in data.items() if a is not None})
    return path


def _observe(state, action, nxt, reward):
    """Changes that append one observed pair to the four observed columns."""
    return {"obs_state": lambda a: np.append(a, np.uint64(state)),
            "obs_action": lambda a: np.append(a, action),
            "obs_next": lambda a: np.append(a, np.uint64(nxt)),
            "obs_reward": lambda a: np.append(a, reward)}


@pytest.mark.parametrize("changes, message", [
    ({"h_from": lambda a: a[:1]}, "disagree"),
    ({"h_from": lambda a: np.append(a, np.uint64(0))}, "disagree"),
    ({"h_ptr": lambda a: a[:-1]}, "disagree"),
    ({"h_ptr": lambda a: a + 1}, "disagree"),
    ({"flat_actions": lambda a: a[:-1]}, "disagree"),
    ({"obs_next": lambda a: a[:-1]}, "disagree"),
    ({"gamma": lambda a: np.array(1.0)}, r"gamma must be in \[0, 1\)"),
    ({name: lambda a: a[:0] for name in ("obs_state", "obs_action", "obs_next", "obs_reward")},
     r"step \(0x0, 0\) is missing from observed"),
    (_observe(0, 0, 5, 0.0), r"repeat a \(state, action\) pair"),
    ({**_observe(3, 2, 1, 0.25), "flat_actions": lambda a: np.where(a == 1, 2, a)},
     "an end of 0x3 -> 0x1 is not an intersection"),
    (_observe(1, 1, 5, 0.0), "1 observed pair.* no self-loop and lie on no highway"),
    # the 3 -> 0 highway runs on through 0 -> 1 -> 2 -> 3
    ({"flat_actions": lambda a: np.append(a, [0, 0, 0]), "h_ptr": lambda a: a + [0, 0, 3]},
     "0x0 is already placed"),
    ({"gamma": lambda a: np.array([0.9, 0.9])}, r"gamma has shape \(2,\), not \(\)"),
    ({"h_ptr": lambda a: None}, "the array h_ptr is missing"),
    ({"intersections": lambda a: None}, "the array intersections is missing"),
    ({"h_ptr": lambda a: np.array(3)}, r"h_ptr has shape \(\), not 1-d"),
    ({"h_from": lambda a: a[0]}, r"h_from has shape \(\), not 1-d"),
    ({"obs_state": lambda a: a[0]}, r"obs_state has shape \(\), not 1-d"),
    ({"intersections": lambda a: a.reshape(1, -1)}, r"intersections has shape \(1, 2\), not 1-d"),
], ids=["short-h_from", "long-h_from", "short-h_ptr", "h_ptr-not-from-0", "short-flat_actions",
        "short-obs_next", "gamma-out-of-range", "no-observed-pairs", "repeated-observed-pair",
        "action-leads-off-the-intersections", "observed-step-off-the-highways",
        "state-placed-twice", "vector-gamma", "no-h_ptr", "no-intersections", "0-d-h_ptr",
        "0-d-h_from", "0-d-obs_state", "2-d-intersections"])
def test_a_malformed_graph_file_is_refused(tmp_path, changes, message):
    assert len(load_highway_graph(_craft(tmp_path)).highways) == 2
    with pytest.raises(ValueError, match=message) as err:
        load_highway_graph(_craft(tmp_path, **changes))
    assert str(err.value).startswith(f"{tmp_path / 'graph.npz'}: ")


def test_a_graph_file_holds_each_step_once(tmp_path):
    g = random_highway_graph(random.Random(3), max_intersections=15)
    save_highway_graph(tmp_path / "graph.npz", g)
    with np.load(tmp_path / "graph.npz") as npz:
        assert sorted(npz.files) == sorted([
            "artifact_kind", "format_version", "gamma", "intersections", "h_from", "h_ptr",
            "flat_actions", "obs_state", "obs_action", "obs_next", "obs_reward"])


def test_a_graph_file_with_the_step_columns_loads_to_the_same_graph(tmp_path):
    # files written before the steps were stored once also hold each
    # highway's end and its step states and rewards; the loader passes over them
    g = random_highway_graph(random.Random(3), max_intersections=15)
    g.assemble([mk_traj((900, 0, 901, 0.25), (901, 1, 902, -0.5))])
    save_highway_graph(tmp_path / "graph.npz", g)
    with np.load(tmp_path / "graph.npz") as npz:
        data = {name: npz[name] for name in npz.files}
    highways = [g.highways[h] for h in sorted(g.highways)]
    data["h_to"] = np.array([h.to_state for h in highways], dtype=np.uint64)
    data["flat_states"] = np.array([s for h in highways for s in h.step_states], dtype=np.uint64)
    data["flat_rewards"] = np.array([r for h in highways for r in h.step_rewards])
    np.savez_compressed(tmp_path / "old.npz", **data)
    new, old = load_highway_graph(tmp_path / "graph.npz"), load_highway_graph(tmp_path / "old.npz")
    assert old.intersections == new.intersections == g.intersections
    assert old.highways == new.highways
    assert old.membership == new.membership
    assert old.observed == new.observed == g.observed


def test_a_file_without_its_markers_is_a_missing_artifact(tmp_path):
    path = tmp_path / "graph.npz"
    np.savez(path, gamma=np.array(0.9))
    with pytest.raises(MissingArtifact, match="no artifact_kind or format_version marker") as err:
        load_highway_graph(path)
    assert str(path) in str(err.value)
    np.savez(path, artifact_kind=np.array("highway_graph"))
    with pytest.raises(MissingArtifact, match="no format_version marker"):
        load_highway_graph(path)
    np.savez(path, artifact_kind=np.array("highway_graph"), format_version=np.array([1, 1]))
    with pytest.raises(MissingArtifact, match=r"format version \[1 1\], expected 1"):
        load_highway_graph(path)


def _craft_tables(tmp_path, **changes):
    """A saved file of tables over states 1, 2 and 5 with some arrays replaced
    (None: dropped)."""
    tables = ValueTables.from_dicts({1: 0.5, 2: 0.25, 5: -1.0},
                                    {(1, 0): 0.5, (1, 3): 0.0, (2, 1): 0.25})
    path = tmp_path / "tables.npz"
    save_value_tables(path, tables)
    with np.load(path) as npz:
        data = {name: npz[name] for name in npz.files}
    for name, change in changes.items():
        data[name] = change(data[name])
    np.savez_compressed(path, **{name: a for name, a in data.items() if a is not None})
    return path


@pytest.mark.parametrize("changes, message", [
    ({"v_value": lambda a: a[:1]}, "differ in length"),
    ({"v_state": lambda a: np.append(a, np.uint64(9))}, "differ in length"),
    ({"q_action": lambda a: a[:-1]}, "differ in length"),
    ({"q_value": lambda a: np.append(a, 1.0)}, "differ in length"),
    ({"v_state": lambda a: np.where(a == 5, np.uint64(2), a)}, "repeat a key"),
    ({"q_action": lambda a: np.where(a == 3, 0, a)}, "repeat a key"),
    ({"q_state": lambda a: np.where(a == 2, np.uint64(7), a)}, "state 7 has no V entry"),
    ({"iterations_run": lambda a: np.array([7, 7])}, r"iterations_run has shape \(2,\)"),
    ({"final_delta": lambda a: np.zeros(2)}, r"final_delta has shape \(2,\)"),
    ({"v_value": lambda a: None}, "the array v_value is missing"),
    ({"v_state": lambda a: a[0]}, r"v_state has shape \(\), not 1-d"),
    ({"q_value": lambda a: a[0]}, r"q_value has shape \(\), not 1-d"),
    ({"v_state": lambda a: a.reshape(1, -1)}, r"v_state has shape \(1, 3\), not 1-d"),
], ids=["short-v_value", "long-v_state", "short-q_action", "long-q_value", "repeated-v-state",
        "repeated-q-key", "q-state-without-v", "vector-iterations_run", "vector-final_delta",
        "no-v_value", "0-d-v_state", "0-d-q_value", "2-d-v_state"])
def test_a_malformed_tables_file_is_refused(tmp_path, changes, message):
    loaded = load_value_tables(_craft_tables(tmp_path))
    assert loaded.v == {1: 0.5, 2: 0.25, 5: -1.0} and len(loaded.q) == 3
    with pytest.raises(ValueError, match=message):
        load_value_tables(_craft_tables(tmp_path, **changes))


def test_saved_tables_hold_the_arrays_a_dict_sort_gives(tmp_path):
    # save_value_tables writes the key-order arrays directly: they equal, in
    # name, dtype, shape and bytes, the columns built by sorting the dicts
    g = random_highway_graph(random.Random(8), max_intersections=10)
    tables = value_update_loop(g, delta=1e-12)
    path = tmp_path / "tables.npz"
    save_value_tables(path, tables)
    v_keys, q_keys = sorted(tables.v), sorted(tables.q)
    want = {
        "v_state": np.array(v_keys, dtype=np.uint64),
        "v_value": np.array([tables.v[k] for k in v_keys], dtype=np.float64),
        "q_state": np.array([k[0] for k in q_keys], dtype=np.uint64),
        "q_action": np.array([k[1] for k in q_keys], dtype=np.int64),
        "q_value": np.array([tables.q[k] for k in q_keys], dtype=np.float64),
    }
    with np.load(path) as npz:
        for name, arr in want.items():
            got = npz[name]
            assert (got.dtype, got.shape, got.tobytes()) == (arr.dtype, arr.shape, arr.tobytes())


def test_manifest_digests(tmp_path):
    (tmp_path / "a.txt").write_text("hello")
    (tmp_path / "b.txt").write_text("world")
    write_manifest(tmp_path, {"k": 1})
    manifest = read_manifest(tmp_path)
    assert set(manifest["files"]) == {"a.txt", "b.txt"}
    assert verify_manifest(tmp_path)
    (tmp_path / "a.txt").write_text("tampered")
    assert not verify_manifest(tmp_path)


def test_manifest_extra_cannot_replace_the_core_fields(tmp_path):
    save_highway_graph(tmp_path / "graph.npz", random_highway_graph(random.Random(3), 15))
    manifest = write_manifest(tmp_path, {"k": 1},
                              extra={"files": {}, "config": {}, "note": "kept"})
    assert read_manifest(tmp_path) == manifest
    assert manifest["config"] == {"k": 1} and manifest["note"] == "kept"
    assert set(manifest["files"]) == {"graph.npz"}
    with open(tmp_path / "graph.npz", "ab") as f:
        f.write(b"\0")
    assert not verify_manifest(tmp_path)


@pytest.mark.parametrize("manifest", [[], {"files": [], "config": {}},
                                      {"files": {}, "config": []}, {"config": {}}],
                         ids=["top-level-list", "files-list", "config-list", "no-files"])
def test_a_manifest_that_is_no_object_of_objects_is_a_missing_artifact(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    for read in (read_manifest, verify_manifest):
        with pytest.raises(MissingArtifact, match=re.escape(f"{tmp_path}: manifest.json")):
            read(tmp_path)
