"""Deterministic, seedable environments plus exhaustive ground-truth oracles.

Three environments are bundled:

* Simple Maze: a procedurally generated perfect maze (recursive backtracker)
  on a width x height cell grid.  The agent starts top-left and must reach
  the goal bottom-right.  Reaching the goal pays +1.0; every move, blocked
  or not, costs a small penalty of 0.1 / (width * height).
* CliffWalking: the standard 4x12 grid.  Every move costs -1; stepping into
  a cliff cell costs -100 and teleports the agent back to the start without
  ending the episode; the goal cell is terminal.
* Taxi: the standard 5x5 grid with four marked locations.  -1 per step,
  +20 for a successful dropoff (terminal), -10 for illegal pickup/dropoff.

All transitions are deterministic and precomputed into one table of
per-state rows, `table[obs][action] -> StepResult`, so step() is a pure
function of (state, action) and costs one row lookup and one action lookup.
Terminal states have no row.  Ground-truth optimal values come from vanilla
value iteration (the same solver that checks the highway solve) over the
fully enumerated MDP, including blocked-move self-loops.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .encoder import encode_tabular
from .errors import HighwayRLError
from .transition_model import EmpiricalGraph, vanilla_value_iteration


class InvalidAction(HighwayRLError):
    """An action outside the environment's discrete action set."""


@dataclass(frozen=True)
class EnvSpec:
    """Which environment to build and how to seed it."""

    kind: str                 # "maze" | "cliffwalking" | "taxi"
    width: int = 0            # maze only
    height: int = 0           # maze only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("maze", "cliffwalking", "taxi"):
            raise ValueError(f"unknown environment kind: {self.kind!r}")
        if self.kind == "maze" and (self.width < 2 or self.height < 2):
            raise ValueError("maze needs width and height >= 2")

    @property
    def action_count(self) -> int:
        return 6 if self.kind == "taxi" else 4


@dataclass(frozen=True)
class StepResult:
    next_obs: object
    reward: float
    done: bool
    next_id: int              # state_id(next_obs)


class _TabularEnv:
    """Shared machinery: transition table, ids, BFS distances, ground truth."""

    spec: EnvSpec
    action_count: int

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self.action_count = spec.action_count
        self._table: dict = {}
        self._states: list = []
        self._terminal: set = set()
        self._build()
        ids = self._sid = {obs: encode_tabular(obs) for obs in self._states}
        # _build records (next_obs, reward, done) under (obs, action); each
        # record's next id is fixed, so it is looked up once here rather than
        # on every step, equal records share one result, and the results are
        # filed in one row per state, keyed by action
        results: dict[tuple, StepResult] = {}
        rows: dict[object, dict[int, StepResult]] = {}
        for (obs, action), rec in self._table.items():
            res = results.get(rec)
            if res is None:
                res = results[rec] = StepResult(*rec, ids[rec[0]])
            rows.setdefault(obs, {})[action] = res
        self._table = rows
        self._obs_of_id = {sid: obs for obs, sid in self._sid.items()}
        self._dist = self._bfs_steps()

    # subclasses fill _table[(obs, action)] with (next_obs, reward, done),
    # _states and _terminal
    def _build(self):
        raise NotImplementedError

    def reset(self, episode_seed: int | None = None):
        raise NotImplementedError

    def step(self, obs, action: int) -> StepResult:
        try:
            return self._table[obs][action]
        except (KeyError, TypeError):
            # only a bad call misses the table (rows are dicts, so a negative
            # action misses too); say why, as the checks did when they ran
            # before the lookup
            if not (0 <= action < self.action_count):
                raise InvalidAction(f"action {action} not in [0, {self.action_count})")
            if obs in self._terminal:
                raise ValueError("cannot step a terminal state")
            raise

    def is_terminal(self, obs) -> bool:
        return obs in self._terminal

    def enumerate_states(self) -> list:
        """All reachable states, terminals included."""
        return list(self._states)

    def state_id(self, obs) -> int:
        return self._sid[obs]

    def obs_of_id(self, sid: int):
        return self._obs_of_id[sid]

    def state_features(self, obs) -> np.ndarray:
        raise NotImplementedError

    def _bfs_steps(self) -> dict:
        """Minimum number of actions from each state to episode termination."""
        preds: dict = {obs: [] for obs in self._states}
        for obs, row in self._table.items():
            for res in row.values():
                preds[res.next_obs].append(obs)
        dist = {obs: 0 for obs in self._terminal}
        queue = deque(self._terminal)
        while queue:
            cur = queue.popleft()
            for p in preds[cur]:
                if p not in dist:
                    dist[p] = dist[cur] + 1
                    queue.append(p)
        return dist

    def min_steps_to_goal(self, obs) -> int:
        return self._dist[obs]

    def optimal_total_reward(self, obs) -> float:
        raise NotImplementedError

    def ground_truth_values(self, gamma: float) -> dict[int, float]:
        """Exact optimal V for every reachable state, keyed by state id, in a new dict."""
        return dict(_ground_truth(self.spec, gamma))


@functools.lru_cache(maxsize=64)
def _ground_truth(spec: EnvSpec, gamma: float) -> dict:
    # Every done step lands in a terminal state, and terminal states have no
    # row, so they keep V = 0 and a done backup r + gamma * 0 is r.
    env = make_env(spec)
    sid = env._sid
    graph = EmpiricalGraph(gamma, set(sid.values()), {
        (sid[obs], a): (res.next_id, res.reward)
        for obs, row in env._table.items() for a, res in row.items()})
    values = vanilla_value_iteration(graph, delta=1e-12).values
    return {s: values[s] for s in sid.values()}


# ---------------------------------------------------------------------- maze

# action order: north, south, east, west
_MAZE_DELTAS = {0: (0, -1), 1: (0, 1), 2: (1, 0), 3: (-1, 0)}
_MAZE_OPPOSITE = {0: 1, 1: 0, 2: 3, 3: 2}


def _generate_passages(width: int, height: int, seed: int) -> dict:
    """Depth-first recursive backtracker; returns open directions per cell."""
    rng = random.Random(seed)
    passages = {(x, y): set() for x in range(width) for y in range(height)}
    visited = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        x, y = stack[-1]
        options = []
        for a, (dx, dy) in _MAZE_DELTAS.items():
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height and (nx, ny) not in visited:
                options.append((a, nx, ny))
        if not options:
            stack.pop()
            continue
        a, nx, ny = options[rng.randrange(len(options))]
        passages[(x, y)].add(a)
        passages[(nx, ny)].add(_MAZE_OPPOSITE[a])
        visited.add((nx, ny))
        stack.append((nx, ny))
    return passages


class MazeEnv(_TabularEnv):
    """Perfect maze with start top-left at (0, 0) and goal bottom-right."""

    def _build(self):
        spec = self.spec
        w, h = spec.width, spec.height
        self.width, self.height = w, h
        self.start = (0, 0)
        self.goal = (w - 1, h - 1)
        self.move_penalty = 0.1 / (w * h)
        self.passages = _generate_passages(w, h, spec.seed)
        self._states = [(x, y) for y in range(h) for x in range(w)]
        self._terminal = {self.goal}
        for cell in self._states:
            if cell == self.goal:
                continue
            x, y = cell
            for a, (dx, dy) in _MAZE_DELTAS.items():
                nxt = (x + dx, y + dy) if a in self.passages[cell] else cell
                reward = -self.move_penalty + (1.0 if nxt == self.goal else 0.0)
                self._table[(cell, a)] = (nxt, reward, nxt == self.goal)

    def reset(self, episode_seed: int | None = None):
        return self.start

    def state_features(self, obs) -> np.ndarray:
        x, y = obs
        return np.array([x / (self.width - 1), y / (self.height - 1)], dtype=np.float64)

    def optimal_total_reward(self, obs) -> float:
        if obs in self._terminal:
            return 0.0
        return 1.0 - self.min_steps_to_goal(obs) * self.move_penalty

    def ascii_art(self) -> str:
        w, h = self.width, self.height
        rows = ["+" + "--+" * w]
        for y in range(h):
            mid = "|"
            bottom = "+"
            for x in range(w):
                cell = (x, y)
                mark = "S " if cell == self.start else ("G " if cell == self.goal else "  ")
                mid += mark + (" " if 2 in self.passages[cell] else "|")
                bottom += ("  " if 1 in self.passages[cell] else "--") + "+"
            rows.append(mid)
            rows.append(bottom)
        return "\n".join(rows)


# -------------------------------------------------------------- cliff walking

_CLIFF_ROWS, _CLIFF_COLS = 4, 12
# action order: up, right, down, left
_CLIFF_DELTAS = {0: (-1, 0), 1: (0, 1), 2: (1, 0), 3: (0, -1)}


class CliffWalkingEnv(_TabularEnv):
    """Standard 4x12 cliff grid; falling teleports to start at -100."""

    def _build(self):
        self.start = 3 * _CLIFF_COLS + 0
        self.goal = 3 * _CLIFF_COLS + 11
        cliff = {3 * _CLIFF_COLS + c for c in range(1, 11)}
        self.cliff = cliff
        self._states = [r * _CLIFF_COLS + c
                        for r in range(_CLIFF_ROWS) for c in range(_CLIFF_COLS)
                        if r * _CLIFF_COLS + c not in cliff]
        self._terminal = {self.goal}
        for obs in self._states:
            if obs == self.goal:
                continue
            r, c = divmod(obs, _CLIFF_COLS)
            for a, (dr, dc) in _CLIFF_DELTAS.items():
                nr = min(max(r + dr, 0), _CLIFF_ROWS - 1)
                nc = min(max(c + dc, 0), _CLIFF_COLS - 1)
                target = nr * _CLIFF_COLS + nc
                if target in cliff:
                    self._table[(obs, a)] = (self.start, -100.0, False)
                else:
                    self._table[(obs, a)] = (target, -1.0, target == self.goal)

    def reset(self, episode_seed: int | None = None):
        return self.start

    def state_features(self, obs) -> np.ndarray:
        r, c = divmod(obs, _CLIFF_COLS)
        return np.array([r / (_CLIFF_ROWS - 1), c / (_CLIFF_COLS - 1)], dtype=np.float64)

    def optimal_total_reward(self, obs) -> float:
        if obs in self._terminal:
            return 0.0
        return -float(self.min_steps_to_goal(obs))


# ----------------------------------------------------------------------- taxi

_TAXI_LOCS = [(0, 0), (0, 4), (4, 0), (4, 3)]   # R, G, Y, B
# east blocked from these (row, col) cells (and west from the cell just east)
_TAXI_WALLS = {(0, 1), (1, 1), (3, 0), (4, 0), (3, 2), (4, 2)}
# action order: south, north, east, west, pickup, dropoff
_TAXI_MOVES = {0: (1, 0), 1: (-1, 0), 2: (0, 1), 3: (0, -1)}


def _taxi_encode(row: int, col: int, pas: int, dest: int) -> int:
    return ((row * 5 + col) * 5 + pas) * 4 + dest


def _taxi_decode(obs: int) -> tuple[int, int, int, int]:
    dest = obs % 4
    obs //= 4
    pas = obs % 5
    obs //= 5
    col = obs % 5
    return obs // 5, col, pas, dest


class TaxiEnv(_TabularEnv):
    """Standard 5x5 taxi: pick the passenger up and drop them at the destination."""

    def _build(self):
        initial = [_taxi_encode(row, col, pas, dest) for row in range(5) for col in range(5)
                   for pas in range(4) for dest in range(4) if pas != dest]
        # breadth-first closure over the dynamics
        seen = set(initial)
        queue = deque(initial)
        while queue:
            obs = queue.popleft()
            row, col, pas, dest = _taxi_decode(obs)
            if pas == dest:
                self._terminal.add(obs)
                continue
            for a in range(6):
                res = self._table[(obs, a)] = self._taxi_step(row, col, pas, dest, a)
                if res[0] not in seen:
                    seen.add(res[0])
                    queue.append(res[0])
        self._states = sorted(seen)

    def _taxi_step(self, row, col, pas, dest, action) -> tuple[int, float, bool]:
        reward = -1.0
        done = False
        if action < 4:
            dr, dc = _TAXI_MOVES[action]
            nr, nc = row + dr, col + dc
            if action == 2 and (row, col) in _TAXI_WALLS:
                nr, nc = row, col
            elif action == 3 and (row, col - 1) in _TAXI_WALLS:
                nr, nc = row, col
            elif not (0 <= nr < 5 and 0 <= nc < 5):
                nr, nc = row, col
            row, col = nr, nc
        elif action == 4:  # pickup
            if pas < 4 and (row, col) == _TAXI_LOCS[pas]:
                pas = 4
            else:
                reward = -10.0
        else:  # dropoff
            if pas == 4 and (row, col) == _TAXI_LOCS[dest]:
                pas = dest
                reward = 20.0
                done = True
            elif pas == 4 and (row, col) in _TAXI_LOCS:
                pas = _TAXI_LOCS.index((row, col))
            else:
                reward = -10.0
        return _taxi_encode(row, col, pas, dest), reward, done

    def reset(self, episode_seed: int | None = None):
        mix = (self.spec.seed * 1_000_003) ^ (0 if episode_seed is None else episode_seed)
        rng = random.Random(mix)
        row, col = rng.randrange(5), rng.randrange(5)
        pas = rng.randrange(4)
        dest = [d for d in range(4) if d != pas][rng.randrange(3)]
        return _taxi_encode(row, col, pas, dest)

    def state_features(self, obs) -> np.ndarray:
        row, col, pas, dest = _taxi_decode(obs)
        return np.array([row / 4, col / 4, pas / 4, dest / 3], dtype=np.float64)

    def optimal_total_reward(self, obs) -> float:
        if obs in self._terminal:
            return 0.0
        # d - 1 unit-cost actions followed by the +20 dropoff
        return 21.0 - float(self.min_steps_to_goal(obs))


# ------------------------------------------------------------------- factory

_ENV_CLASSES = {"maze": MazeEnv, "cliffwalking": CliffWalkingEnv, "taxi": TaxiEnv}

DEFAULT_EPISODES_PER_UPDATE = {"maze": 10, "cliffwalking": 20, "taxi": 20}
# every episode, training and greedy evaluation alike, stops at this cap: a
# greedy table that cycles would otherwise never end one
DEFAULT_STEP_CAP = {"maze": 50_000, "cliffwalking": 12_000, "taxi": 20_000}


@functools.lru_cache(maxsize=32)
def make_env(spec: EnvSpec) -> _TabularEnv:
    return _ENV_CLASSES[spec.kind](spec)
