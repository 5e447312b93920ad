"""Maze, CliffWalking, and Taxi dynamics plus the ground-truth oracles."""

import pytest

from highway_rl.environments import (EnvSpec, InvalidAction, MazeEnv, StepResult, make_env,
                                     _taxi_decode, _taxi_encode)


# ---------------------------------------------------------------------- resets

def test_maze_reset_deterministic():
    spec = EnvSpec(kind="maze", width=3, height=3, seed=7)
    env = make_env(spec)
    assert env.reset() == env.reset() == (0, 0)
    env1 = MazeEnv(spec)
    env2 = MazeEnv(spec)
    assert env1.passages == env2.passages


def test_cliff_reset_is_bottom_left():
    spec = EnvSpec(kind="cliffwalking", seed=0)
    assert make_env(spec).reset() == 3 * 12 + 0


def test_taxi_reset_seeded():
    env = make_env(EnvSpec(kind="taxi", seed=5))
    first = env.reset(episode_seed=0)
    assert first == env.reset(episode_seed=0)
    row, col, pas, dest = _taxi_decode(first)
    assert 0 <= row < 5 and 0 <= col < 5
    assert pas < 4 and dest < 4 and pas != dest
    # different episode seeds eventually give different configurations
    assert len({env.reset(episode_seed=k) for k in range(20)}) > 1


def test_spec_validation():
    with pytest.raises(ValueError):
        EnvSpec(kind="maze", width=1, height=5, seed=0)
    with pytest.raises(ValueError):
        EnvSpec(kind="frozenlake", seed=0)


# ------------------------------------------------------------------------ maze

def test_maze_step_penalty():
    spec = EnvSpec(kind="maze", width=3, height=3, seed=7)
    env = make_env(spec)
    obs = env.reset()
    open_action = next(a for a in range(4) if a in env.passages[obs])
    res = env.step(obs, open_action)
    if not res.done:
        assert res.reward == pytest.approx(-0.1 / 9)


def test_maze_blocked_move_keeps_position_and_costs():
    spec = EnvSpec(kind="maze", width=3, height=3, seed=7)
    env = make_env(spec)
    obs = (0, 0)
    blocked = next(a for a in range(4) if a not in env.passages[obs])
    res = env.step(obs, blocked)
    assert res.next_obs == obs
    assert res.reward == pytest.approx(-0.1 / 9)
    assert not res.done


def test_maze_goal_step_reward_and_done():
    spec = EnvSpec(kind="maze", width=3, height=3, seed=7)
    env = make_env(spec)
    goal = env.goal
    for obs in env.enumerate_states():
        if env.is_terminal(obs):
            continue
        for a in range(4):
            res = env.step(obs, a)
            if res.next_obs == goal:
                assert res.done
                assert res.reward == pytest.approx(1.0 - env.move_penalty)


def test_maze_is_perfect():
    # a perfect maze is a spanning tree: edge count n-1 and full connectivity,
    # which together force a unique simple path between any two cells
    for seed in range(8):
        env = make_env(EnvSpec(kind="maze", width=7, height=5, seed=seed))
        cells = env.enumerate_states()
        half_edges = sum(len(v) for v in env.passages.values())
        assert half_edges == 2 * (len(cells) - 1)
        assert all(env.min_steps_to_goal(c) >= 0 for c in cells)  # all connected


def test_maze_invalid_action():
    env = make_env(EnvSpec(kind="maze", width=3, height=3, seed=0))
    with pytest.raises(InvalidAction):
        env.step((0, 0), 4)


@pytest.mark.parametrize("kind", ["maze", "cliffwalking", "taxi"])
def test_step_errors_keep_their_precedence(kind):
    env = make_env(EnvSpec(kind=kind, width=3, height=3, seed=0))
    goal = next(obs for obs in env.enumerate_states() if env.is_terminal(obs))
    live = env.reset(0)
    assert env.step(live, 0) is env._table[live][0]
    # a bad action is named before a terminal or unknown state
    for obs in (live, goal, "nowhere", ["unhashable"]):
        for action in (-1, env.action_count):
            with pytest.raises(InvalidAction):
                env.step(obs, action)
    with pytest.raises(ValueError, match="terminal"):
        env.step(goal, 0)
    with pytest.raises(KeyError):
        env.step("nowhere", 0)
    with pytest.raises(TypeError):
        env.step(["unhashable"], 0)
    with pytest.raises(TypeError):
        env.step(live, "up")


def test_maze_ascii_art():
    env = make_env(EnvSpec(kind="maze", width=4, height=3, seed=1))
    art = env.ascii_art()
    assert "S" in art and "G" in art
    assert art.count("\n") == 2 * 3  # one wall row per cell row plus borders


# ----------------------------------------------------------------------- cliff

def test_cliff_optimal_path_totals_minus_13():
    env = make_env(EnvSpec(kind="cliffwalking", seed=0))
    obs = env.reset()
    total = 0.0
    for action in [0] + [1] * 11 + [2]:  # up, 11 x right, down
        res = env.step(obs, action)
        total += res.reward
        obs = res.next_obs
    assert res.done
    assert total == -13.0
    assert env.optimal_total_reward(env.reset()) == -13.0


def test_cliff_fall_teleports_to_start():
    env = make_env(EnvSpec(kind="cliffwalking", seed=0))
    res = env.step(env.reset(), 1)  # step right into the cliff
    assert res.next_obs == env.start
    assert res.reward == -100.0
    assert not res.done


def test_cliff_edge_bump_stays():
    env = make_env(EnvSpec(kind="cliffwalking", seed=0))
    res = env.step(env.reset(), 3)  # left off the grid
    assert res.next_obs == env.start
    assert res.reward == -1.0


def test_cliff_states_exclude_cliff_cells():
    env = make_env(EnvSpec(kind="cliffwalking", seed=0))
    assert len(env.enumerate_states()) == 38


# ------------------------------------------------------------------------ taxi

def test_taxi_encoding_round_trip():
    for obs in range(500):
        assert _taxi_encode(*_taxi_decode(obs)) == obs


def test_taxi_pickup_rules():
    env = make_env(EnvSpec(kind="taxi", seed=0))
    at_r = _taxi_encode(0, 0, 0, 1)   # taxi at R, passenger at R
    res = env.step(at_r, 4)
    assert _taxi_decode(res.next_obs)[2] == 4
    assert res.reward == -1.0
    wrong = _taxi_encode(2, 2, 0, 1)  # taxi in the middle, passenger at R
    res = env.step(wrong, 4)
    assert res.next_obs == wrong
    assert res.reward == -10.0


def test_taxi_dropoff_rules():
    env = make_env(EnvSpec(kind="taxi", seed=0))
    ready = _taxi_encode(0, 4, 4, 1)  # at G with passenger aboard, dest G
    res = env.step(ready, 5)
    assert res.done
    assert res.reward == 20.0
    assert _taxi_decode(res.next_obs)[2] == 1
    wrong_cell = _taxi_encode(2, 2, 4, 1)
    res = env.step(wrong_cell, 5)
    assert res.reward == -10.0
    assert not res.done
    other_loc = _taxi_encode(0, 0, 4, 1)  # dropoff at R while dest is G
    res = env.step(other_loc, 5)
    assert res.reward == -1.0
    assert _taxi_decode(res.next_obs)[2] == 0
    assert not res.done


def test_taxi_wall_blocks_east():
    env = make_env(EnvSpec(kind="taxi", seed=0))
    obs = _taxi_encode(0, 1, 0, 1)
    res = env.step(obs, 2)  # east through the wall between (0,1) and (0,2)
    assert _taxi_decode(res.next_obs)[:2] == (0, 1)
    res = env.step(obs, 3)  # west is open
    assert _taxi_decode(res.next_obs)[:2] == (0, 0)


def test_taxi_optimal_total_example():
    env = make_env(EnvSpec(kind="taxi", seed=0))
    # taxi at R, passenger at R, destination Y: pickup + 4 moves south + dropoff
    obs = _taxi_encode(0, 0, 0, 2)
    assert env.min_steps_to_goal(obs) == 6
    # reward accounting: pickup -1, four moves -4, successful dropoff +20
    assert env.optimal_total_reward(obs) == 15.0
    # replaying that exact action sequence must realize the oracle total
    total = 0.0
    for a in [4, 0, 0, 0, 0, 5]:
        res = env.step(obs, a)
        total += res.reward
        obs = res.next_obs
    assert res.done
    assert total == 15.0


# ---------------------------------------------------------------- ground truth

def test_ground_truth_terminal_is_zero():
    spec = EnvSpec(kind="maze", width=3, height=3, seed=7)
    env = make_env(spec)
    truth = env.ground_truth_values(0.99)
    assert truth[env.state_id(env.goal)] == 0.0


def test_ground_truth_goal_adjacent_one_step():
    spec = EnvSpec(kind="maze", width=3, height=3, seed=7)
    env = make_env(spec)
    truth = env.ground_truth_values(0.99)
    for obs in env.enumerate_states():
        if env.min_steps_to_goal(obs) == 1:
            assert truth[env.state_id(obs)] == pytest.approx(1.0 - env.move_penalty,
                                                             abs=1e-12)


def test_ground_truth_values_is_a_fresh_dict_each_call():
    # the oracle is cached per (spec, gamma); a caller's write must not reach
    # the cache
    env = make_env(EnvSpec(kind="maze", width=3, height=3, seed=7))
    first = env.ground_truth_values(0.99)
    sid, value = next(iter(first.items()))
    first[sid] = value + 123.0
    second = env.ground_truth_values(0.99)
    assert second is not first and second[sid] == value


def test_ground_truth_matches_rollout_of_optimal_path():
    spec = EnvSpec(kind="maze", width=5, height=5, seed=3)
    env = make_env(spec)
    truth = env.ground_truth_values(0.99)
    # follow the greedy-on-truth policy from the start; its discounted return
    # must equal the start state's oracle value
    obs = env.reset()
    disc, g = 0.0, 1.0
    for _ in range(1000):
        best = max(range(4), key=lambda a: env.step(obs, a).reward
                   + (0.0 if env.step(obs, a).done
                      else 0.99 * truth[env.state_id(env.step(obs, a).next_obs)]))
        res = env.step(obs, best)
        disc += g * res.reward
        g *= 0.99
        obs = res.next_obs
        if res.done:
            break
    assert disc == pytest.approx(truth[env.state_id(env.reset())], abs=1e-9)


def test_step_is_pure():
    for spec in (EnvSpec(kind="maze", width=4, height=4, seed=2),
                 EnvSpec(kind="cliffwalking", seed=0),
                 EnvSpec(kind="taxi", seed=0)):
        env = make_env(spec)
        twin = type(env)(spec)      # built apart from the cached instance
        for obs in env.enumerate_states()[:20]:
            if env.is_terminal(obs):
                continue
            for a in range(env.action_count):
                assert env.step(obs, a) == env.step(obs, a) == twin.step(obs, a)


@pytest.mark.parametrize("spec", [EnvSpec(kind="maze", width=5, height=5, seed=s)
                                  for s in range(3)]
                         + [EnvSpec(kind="maze", width=15, height=15, seed=0),
                            EnvSpec(kind="cliffwalking"), EnvSpec(kind="taxi")],
                         ids=lambda spec: f"{spec.kind}-{spec.width}x{spec.height}-{spec.seed}")
def test_done_steps_end_in_terminals_that_have_no_steps(spec):
    # the oracle relies on this: terminals keep V = 0, so a done backup is r
    env = make_env(spec)
    for obs, row in env._table.items():
        assert obs not in env._terminal
        for res in row.values():
            if res.done:
                assert res.next_obs in env._terminal


def _step_results(env):
    return [res for row in env._table.values() for res in row.values()]


# every bundled environment, up to the 41x41 maze
all_specs = pytest.mark.parametrize(
    "spec", [EnvSpec(kind="maze", width=w, height=h, seed=s)
             for w, h, s in [(2, 2, 0), (3, 7, 1), (5, 5, 2), (15, 15, 0), (41, 41, 3)]]
    + [EnvSpec(kind="cliffwalking"), EnvSpec(kind="taxi")],
    ids=lambda spec: f"{spec.kind}-{spec.width}x{spec.height}-{spec.seed}")


@all_specs
def test_every_step_result_carries_its_next_state_id(spec):
    env = make_env(spec)
    for res in _step_results(env):
        assert res.next_id == env.state_id(res.next_obs)
    if spec.kind == "cliffwalking":
        # a step into the cliff teleports to the start, and its id is the start's
        falls = [res for res in _step_results(env) if res.reward == -100.0]
        assert len(falls) == 11   # down from the ten cells above it, right from the start
        assert {res.next_id for res in falls} == {env.state_id(env.start)}


@all_specs
def test_each_live_state_has_one_row_of_every_action(spec):
    env = make_env(spec)
    live = [obs for obs in env.enumerate_states() if not env.is_terminal(obs)]
    assert env._table.keys() == set(live)
    for obs, row in env._table.items():
        assert list(row) == list(range(env.action_count))
        for a, res in row.items():
            assert env.step(obs, a) is res


@all_specs
def test_self_loops_are_strictly_suboptimal(spec):
    # highway_graph leaves single-step self-loops out of the graph; that keeps
    # optimal values only while r + gamma * V*(s) < V*(s), i.e. r < (1 - gamma) V*(s)
    gamma = 0.99
    env = make_env(spec)
    truth = env.ground_truth_values(gamma)
    loops = [(obs, res) for obs, row in env._table.items()
             for res in row.values() if res.next_obs == obs]
    assert loops
    for obs, res in loops:
        assert not res.done
        assert res.reward < (1 - gamma) * truth[env.state_id(obs)]


def test_step_result_requires_next_id():
    with pytest.raises(TypeError):
        StepResult((0, 0), -1.0, False)
