"""Versioned binary artifacts (npz containers) and run manifests.

Every artifact is a compressed npz archive carrying a format marker, a
version number, and exact float64 / uint64 payload arrays, so highway
graphs, value tables and approximators round-trip bit-for-bit.  A graph
file holds each step once, in its observed columns; a highway is its start
state and its actions.  A run directory additionally gets a manifest.json
listing each file with its sha256 digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from operator import ne

import numpy as np

from .errors import MissingArtifact
from .highway_graph import HighwayGraph
from .reparam import ApproxConfig, QApproximator
from .value_iteration import ValueTables

FORMAT_VERSION = 1
TOOL_VERSION = "0.1.0"


def _save(path, kind: str, payload: dict):
    payload = dict(payload)
    payload["artifact_kind"] = np.array(kind)
    payload["format_version"] = np.array(FORMAT_VERSION, dtype=np.int64)
    np.savez_compressed(path, **payload)


class _Arrays(dict):
    """An artifact's arrays by name; reading one that is missing, a scalar
    that is not 0-d or a column that is not 1-d raises ValueError naming the
    path, the array and its shape."""

    def __missing__(self, name):
        raise ValueError(f"{self.path}: the array {name} is missing")

    def scalar(self, name) -> np.ndarray:
        if self[name].shape:
            raise ValueError(f"{self.path}: {name} has shape {self[name].shape}, not ()")
        return self[name]

    def column(self, name) -> list:
        """The 1-d array as a list."""
        if self[name].ndim != 1:
            raise ValueError(f"{self.path}: {name} has shape {self[name].shape}, not 1-d")
        return self[name].tolist()


def _load(path, kind: str) -> _Arrays:
    """Every array of the artifact, each decompressed once, by name.

    A missing file, one np.load cannot read (cut, damaged or no npz), or
    one without 0-d markers of `kind` at FORMAT_VERSION raises
    MissingArtifact naming the path.
    """
    if not os.path.exists(path):
        raise MissingArtifact(f"no artifact at {path}")
    try:
        with np.load(path, allow_pickle=False) as npz:
            data = _Arrays({name: npz[name] for name in npz.files})
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as err:
        # a cut or damaged archive, or a file that is no npz at all
        raise MissingArtifact(f"{path} cannot be read as an npz archive: {err}") from None
    data.path = path
    missing = sorted({"artifact_kind", "format_version"} - data.keys())
    if missing:
        raise MissingArtifact(f"{path} has no {' or '.join(missing)} marker")
    found = str(data["artifact_kind"])
    if found != kind:
        raise MissingArtifact(f"{path} holds a {found!r} artifact, expected {kind!r}")
    version = data["format_version"]
    if version.shape or int(version) != FORMAT_VERSION:
        raise MissingArtifact(f"{path} has format version {version}, expected {FORMAT_VERSION}")
    return data


# --------------------------------------------------------------- highway graph

def save_highway_graph(path, graph: HighwayGraph):
    highways = [graph.highways[h] for h in sorted(graph.highways)]
    ptr = np.zeros(len(highways) + 1, dtype=np.int64)
    np.cumsum([h.length for h in highways], out=ptr[1:])
    obs_keys = sorted(graph.observed)
    _save(path, "highway_graph", {
        "gamma": np.array(graph.gamma, dtype=np.float64),
        "intersections": np.array(sorted(graph.intersections), dtype=np.uint64),
        "h_from": np.array([h.from_state for h in highways], dtype=np.uint64),
        "h_ptr": ptr,
        "flat_actions": np.array([a for h in highways for a in h.actions], dtype=np.int64),
        "obs_state": np.array([k[0] for k in obs_keys], dtype=np.uint64),
        "obs_action": np.array([k[1] for k in obs_keys], dtype=np.int64),
        "obs_next": np.array([graph.observed[k][0] for k in obs_keys], dtype=np.uint64),
        "obs_reward": np.array([graph.observed[k][1] for k in obs_keys], dtype=np.float64),
    })


def load_highway_graph(path) -> HighwayGraph:
    """The saved graph, checked as ingestion relies on it.

    Each highway is replayed from its start state through `observed`, which
    gives every step's next state and reward; it ends where its last action
    leads.  Arrays beyond those `save_highway_graph` writes are passed over.
    A file raises ValueError, naming the path, when its column lengths
    disagree, gamma is not in [0, 1), an observed pair repeats, a highway
    step is not observed, a highway does not end at an intersection or
    places a state twice, or an observed pair that is no self-loop lies on
    no highway; also when an array is missing, gamma is not a scalar or a
    column is not 1-d.
    """
    data = _load(path, "highway_graph")
    gamma, intersections = float(data.scalar("gamma")), data.column("intersections")
    ptr, starts, actions = map(data.column, ("h_ptr", "h_from", "flat_actions"))
    obs = [data.column(name) for name in ("obs_state", "obs_action", "obs_next", "obs_reward")]
    if (ptr[:1] != [0] or len(starts) != len(ptr) - 1 or len(actions) != ptr[-1]
            or len(set(map(len, obs))) > 1):
        raise ValueError(f"{path}: h_ptr and the highway, step or observed columns disagree")
    loops = 0   # length-1 s -> s highways: their one step is a self-loop
    try:
        graph = HighwayGraph(gamma=gamma)
        observed = graph.observed
        observed.update(zip(zip(obs[0], obs[1]), zip(obs[2], obs[3])))
        if len(observed) != len(obs[0]):
            raise ValueError("the observed columns repeat a (state, action) pair")
        for s in intersections:
            graph.make_intersection(s)
        for lo, hi, start in zip(ptr, ptr[1:], starts):
            acts, s, rewards, states = tuple(actions[lo:hi]), start, [], []
            for a in acts:
                if (s, a) not in observed:
                    raise ValueError(f"highway step ({s:#x}, {a}) is missing from observed")
                s, r = observed[s, a]
                rewards.append(r)
                states.append(s)
            graph._insert_highway(start, acts, tuple(rewards), tuple(states))
            loops += len(acts) == 1 and start == s
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    # the graph places each state once and takes each first action of an
    # intersection once, so the highway steps are distinct observed pairs:
    # equal counts leave no other pair that is no self-loop
    off = sum(map(ne, obs[0], obs[2])) - (ptr[-1] - loops)
    if off:
        raise ValueError(f"{path}: {off} observed pair(s) are no self-loop "
                         "and lie on no highway")
    return graph


# -------------------------------------------------------------------- tables

def save_value_tables(path, tables: ValueTables):
    ids = tables.states.astype(np.uint64)
    _save(path, "value_tables", {
        "v_state": ids,
        "v_value": tables.v_values,
        "q_state": ids[tables.q_src],
        "q_action": tables.q_actions,
        "q_value": tables.q_values,
        "iterations_run": np.array(tables.iterations_run, dtype=np.int64),
        "final_delta": np.array(tables.final_delta, dtype=np.float64),
    })


def load_value_tables(path) -> ValueTables:
    """The saved tables; a file whose V or Q columns differ in length or are
    not 1-d, that repeats a key or gives Q for a state without V, or that
    lacks an array or holds a non-scalar iterations_run or final_delta,
    raises ValueError."""
    data = _load(path, "value_tables")
    v_cols = [data.column(name) for name in ("v_state", "v_value")]
    q_cols = [data.column(name) for name in ("q_state", "q_action", "q_value")]
    v = dict(zip(*v_cols))
    q = dict(zip(zip(*q_cols[:2]), q_cols[2]))
    if {len(v)} != set(map(len, v_cols)) or {len(q)} != set(map(len, q_cols)):
        raise ValueError(f"{path}: the V or Q columns differ in length or repeat a key")
    iterations_run = int(data.scalar("iterations_run"))
    final_delta = float(data.scalar("final_delta"))
    try:
        return ValueTables.from_dicts(v, q, iterations_run, final_delta)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# --------------------------------------------------------------- approximator

def save_approximator(path, approx: QApproximator):
    cfg = approx.config
    payload = {
        "feature_dim": np.array(approx.feature_dim, dtype=np.int64),
        "action_count": np.array(approx.action_count, dtype=np.int64),
        "target_mean": np.array(approx.target_mean, dtype=np.float64),
        "target_scale": np.array(approx.target_scale, dtype=np.float64),
        "loss_history": np.array(approx.loss_history, dtype=np.float64),
        "cfg_learning_rate": np.array(cfg.learning_rate, dtype=np.float64),
        "cfg_epochs": np.array(cfg.epochs, dtype=np.int64),
        "cfg_init_seed": np.array(cfg.init_seed, dtype=np.int64),
        "cfg_hidden_units": np.array(cfg.hidden_units, dtype=np.int64),
        "cfg_anchor": np.array(cfg.absent_action_anchor or ""),
    }
    for i, w in enumerate(approx.weights):
        payload[f"w{i}"] = w
    _save(path, "approximator", payload)


def load_approximator(path) -> QApproximator:
    """The saved approximator; a file that lacks one of the weight arrays
    w0-w5, or whose weights do not chain feature_dim -> hidden_units ->
    hidden_units -> action_count with matching biases, or that lacks another
    array or holds a non-scalar where a scalar belongs or a loss_history
    that is not 1-d, raises ValueError."""
    data = _load(path, "approximator")
    anchor = str(data.scalar("cfg_anchor"))
    cfg = ApproxConfig(
        learning_rate=float(data.scalar("cfg_learning_rate")),
        epochs=int(data.scalar("cfg_epochs")),
        init_seed=int(data.scalar("cfg_init_seed")),
        hidden_units=int(data.scalar("cfg_hidden_units")),
        absent_action_anchor=anchor or None,
    )
    feature_dim = int(data.scalar("feature_dim"))
    action_count = int(data.scalar("action_count"))
    dims = [feature_dim, cfg.hidden_units, cfg.hidden_units, action_count]
    shapes = [shape for fan_in, fan_out in zip(dims, dims[1:])
              for shape in ((fan_in, fan_out), (fan_out,))]
    weights = [data.get(f"w{i}") for i in range(6)]
    for i, (w, shape) in enumerate(zip(weights, shapes)):
        if w is None:
            raise ValueError(f"{path}: the weight array w{i} is missing")
        if w.shape != shape:
            raise ValueError(f"{path}: w{i} has shape {w.shape}, expected {shape}")
    return QApproximator(weights=weights, feature_dim=feature_dim,
                         action_count=action_count, config=cfg,
                         target_mean=float(data.scalar("target_mean")),
                         target_scale=float(data.scalar("target_scale")),
                         loss_history=data.column("loss_history"))


# ------------------------------------------------------------------- manifest

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(run_dir, config: dict, extra: dict | None = None):
    """List every artifact in the run directory with its digest; extra adds
    top-level fields but never replaces the four written here."""
    files = {}
    for name in sorted(os.listdir(run_dir)):
        if name == "manifest.json":
            continue
        full = os.path.join(run_dir, name)
        if os.path.isfile(full):
            files[name] = _sha256(full)
    manifest = {
        **(extra or {}),
        "tool_version": TOOL_VERSION,
        "format_version": FORMAT_VERSION,
        "config": config,
        "files": files,
    }
    with open(os.path.join(run_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def read_manifest(run_dir) -> dict:
    """The run's manifest; one that is missing, no JSON, or no JSON object
    whose files and config are objects raises MissingArtifact naming run_dir."""
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        raise MissingArtifact(f"no manifest.json under {run_dir}")
    try:
        with open(path) as f:
            manifest = json.load(f)
    except ValueError as err:       # no JSON, or no text at all
        raise MissingArtifact(f"{run_dir}: manifest.json is not JSON: {err}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("files"), dict)
            and isinstance(manifest.get("config"), dict)):
        raise MissingArtifact(f"{run_dir}: manifest.json is not an object "
                              "with files and config objects")
    return manifest


def verify_manifest(run_dir) -> bool:
    """True when every listed file still matches its recorded digest."""
    manifest = read_manifest(run_dir)
    for name, digest in manifest["files"].items():
        full = os.path.join(run_dir, name)
        if not os.path.exists(full) or _sha256(full) != digest:
            return False
    return True
