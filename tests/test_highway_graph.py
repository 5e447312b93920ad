"""Highway graph construction, splitting, detection, and derived views."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (check_graph_invariants, mk_traj, random_deterministic_mdp,
                      random_highway_graph, random_mdp_walks, random_walk_trajectories)
from highway_rl.errors import DeterminismViolation, NotInterior
from highway_rl.highway_graph import (HighwayGraph, detect_intersections_against,
                                      detect_intersections_within, expand_to_empirical,
                                      graph_stats, highway_reward, locate, path_return,
                                      to_dot)
from highway_rl.trainer import _topology_signature
from highway_rl.transition_model import Trajectory, vanilla_value_iteration
from highway_rl.value_iteration import value_update_loop


# ------------------------------------------------------------ within detection

def test_within_straight_path_no_flags():
    traj = mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 3, 0.0))
    assert detect_intersections_within(traj) == set()


def test_within_revisit_flags_merge_target():
    traj = mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 1, 0.0))
    assert detect_intersections_within(traj) == {1}


def test_within_crossing_flags_both_endpoints():
    # diamond: 0->1->2->3 then 3->1 closes onto visited ground via a new edge
    traj = mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 3, 0.0),
                   (3, 0, 0, 0.0), (0, 1, 2, 0.0))
    flags = detect_intersections_within(traj)
    assert {0, 2} <= flags  # the new 0->2 edge crosses between visited states


def test_within_retraced_edge_adds_no_flags():
    # loop A->B->C->A then retrace A->B: the crossing set stays quiet because
    # the transition was already traversed within this trajectory
    traj = mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 0, 0.0), (0, 0, 1, 0.0))
    flags = detect_intersections_within(traj)
    assert flags == {0}  # only the loop-closure target is flagged


def test_within_fork_from_revisited_state():
    traj = mk_traj((0, 0, 1, 0.0), (1, 0, 0, 0.0), (0, 1, 5, 0.0))
    flags = detect_intersections_within(traj)
    assert 0 in flags  # leaves the revisited start toward a fresh state


# ----------------------------------------------------------- against detection

def _line_graph():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(10, 13, [0, 0, 0], [0.0, 0.0, 0.0], interior=[11, 12])
    return g


def test_against_disjoint_trajectory_no_flags():
    g = _line_graph()
    traj = mk_traj((100, 0, 101, 0.0), (101, 0, 102, 0.0))
    assert detect_intersections_against(traj, g) == set()


def test_against_exit_from_highway_interior():
    g = _line_graph()
    traj = mk_traj((11, 3, 200, 0.0))
    assert detect_intersections_against(traj, g) == {11}


def test_against_entry_at_highway_interior():
    g = _line_graph()
    traj = mk_traj((300, 1, 12, 0.0))
    assert detect_intersections_against(traj, g) == {12}


def test_against_on_graph_pair_with_missing_link():
    g = _line_graph()
    traj = mk_traj((11, 2, 13, 0.0))  # hop from interior to endpoint, edge absent
    assert detect_intersections_against(traj, g) == {11, 13}


def test_against_retraced_known_edge_no_flags():
    g = _line_graph()
    traj = mk_traj((10, 0, 11, 0.0), (11, 0, 12, 0.0))
    assert detect_intersections_against(traj, g) == set()


# ------------------------------------------------------------------- assemble

def test_assemble_single_episode():
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj((0, 0, 1, 0.0), (1, 1, 2, 0.0), (2, 0, 3, 1.0), terminal=True)])
    check_graph_invariants(g)
    assert g.intersections == {0, 3}
    assert len(g.highways) == 1
    (h,) = g.highways.values()
    assert h.length == 3
    assert h.interior == (1, 2)


def test_assemble_shared_prefix_fork():
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 3, 1.0))])
    g.assemble([mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 1, 9, 0.5))])
    check_graph_invariants(g)
    # the fork point becomes an intersection and the prefix is one highway
    assert 2 in g.intersections
    assert g.intersections == {0, 2, 3, 9}
    assert len(g.highways) == 3
    froms = sorted((h.from_state, h.to_state) for h in g.highways.values())
    assert froms == [(0, 2), (2, 3), (2, 9)]


def test_assemble_join_splits_existing_highway():
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 3, 0.0), (3, 0, 4, 1.0))])
    assert len(g.highways) == 1
    # a second episode lands on interior state 2 from outside
    g.assemble([mk_traj((7, 1, 2, 0.2))])
    check_graph_invariants(g)
    assert 2 in g.intersections
    spans = sorted((h.from_state, h.to_state) for h in g.highways.values())
    assert spans == [(0, 2), (2, 4), (7, 2)]
    assert locate(g, 1).kind == "on_highway"
    assert locate(g, 3).kind == "on_highway"


def test_assemble_self_loop_samples_are_not_embedded():
    # wall-bump style self-loops stay out of the topology but are remembered
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj((0, 0, 1, -0.1), (1, 2, 1, -0.1), (1, 0, 2, 1.0), terminal=True)])
    check_graph_invariants(g)
    assert g.intersections == {0, 2}
    (h,) = g.highways.values()
    assert h.interior == (1,)
    assert g.observed[(1, 2)] == (1, -0.1)
    assert (1, 2) not in g.edge_index


def test_assemble_cycle_produces_self_loop_highway():
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj((0, 0, 1, 0.0), (1, 0, 0, 0.0))])
    check_graph_invariants(g)
    assert 0 in g.intersections
    loops = [h for h in g.highways.values() if h.from_state == h.to_state == 0]
    assert len(loops) == 1
    assert loops[0].interior == (1,)


def test_assemble_repeated_cycle_does_not_duplicate():
    g = HighwayGraph(gamma=0.99)
    steps = [(0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 0, 0.0)] * 3
    g.assemble([mk_traj(*steps)])
    check_graph_invariants(g)
    before = graph_stats(g)
    g.assemble([mk_traj(*steps)])
    assert graph_stats(g) == before


def test_assemble_conflicting_stream_raises():
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj((0, 0, 1, 0.0))])
    with pytest.raises(DeterminismViolation):
        g.assemble([mk_traj((0, 0, 2, 0.0))])


def test_assemble_idempotent_against_detection():
    rng = random.Random(5)
    table = random_deterministic_mdp(rng, n_states=10, action_count=3)
    trajs = random_walk_trajectories(rng, table, 10, 3, episodes=8)
    g = HighwayGraph(gamma=0.99)
    g.assemble(trajs)
    check_graph_invariants(g)
    for traj in trajs:
        flags = detect_intersections_against(traj, g)
        assert flags <= g.intersections


# ---------------------------------------------------------------------- split

def test_split_even():
    g = HighwayGraph(gamma=0.99)
    hid = g.add_highway(0, 4, [0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4], interior=[1, 2, 3])
    h1, h2 = g.split_highway(hid, 2)
    check_graph_invariants(g)
    assert g.highways[h1].length == 2
    assert g.highways[h2].length == 2
    assert g.highways[h1].actions == (0, 1)
    assert g.highways[h2].actions == (2, 3)
    assert 2 in g.intersections
    assert hid not in g.highways


def test_split_at_first_interior():
    g = HighwayGraph(gamma=0.99)
    hid = g.add_highway(0, 4, [0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4], interior=[1, 2, 3])
    h1, h2 = g.split_highway(hid, 1)
    assert g.highways[h1].length == 1
    assert g.highways[h2].length == 3
    assert g.highways[h1].interior == ()


def test_split_preserves_expanded_transitions():
    g = HighwayGraph(gamma=0.99)
    hid = g.add_highway(0, 4, [0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4], interior=[1, 2, 3])
    before = dict(g.edge_index)
    g.split_highway(hid, 3)
    assert g.edge_index == before


def test_split_requires_interior():
    g = HighwayGraph(gamma=0.99)
    hid = g.add_highway(0, 2, [0, 1], [0.0, 0.0], interior=[1])
    with pytest.raises(NotInterior):
        g.split_highway(hid, 0)
    with pytest.raises(NotInterior):
        g.split_highway(hid, 99)


# -------------------------------------------------------------- highway_reward

def test_highway_reward_single_step():
    assert highway_reward([1.0], 0.99) == pytest.approx(0.99, abs=1e-15)


def test_highway_reward_zero():
    assert highway_reward([0.0, 0.0, 0.0], 0.99) == 0.0


def test_highway_reward_exponent_starts_at_one():
    assert highway_reward([0.0, 0.0, 1.0], 0.5) == pytest.approx(0.125, abs=1e-15)


def test_path_return_exponent_starts_at_zero():
    assert path_return([1.0], 0.99) == 1.0
    assert path_return([0.0, 0.0, 1.0], 0.5) == pytest.approx(0.25, abs=1e-15)


# --------------------------------------------------------------------- locate

def test_locate_all_cases():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 5, [4, 3, 2, 1, 0], [0.0] * 5, interior=[1, 2, 3, 4])
    assert locate(g, 0).kind == "intersection"
    loc = locate(g, 3)
    assert loc.kind == "on_highway"
    assert loc.offset == 3
    assert locate(g, 77).kind == "unknown"


# --------------------------------------------------------------------- expand

def test_expand_counts():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 3, [0, 0, 0], [0.0, 0.0, 1.0], interior=[1, 2])
    emp = expand_to_empirical(g)
    assert emp.num_nodes() == 4
    assert emp.num_edges() == 3


def test_expand_round_trip_reassembles_isomorphic_graph():
    g = HighwayGraph(gamma=0.99)
    trajs = [
        mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 3, 1.0)),
        mk_traj((0, 1, 4, 0.0), (4, 0, 2, 0.0), (2, 0, 3, 1.0)),
    ]
    g.assemble(trajs)
    g2 = HighwayGraph(gamma=0.99)
    g2.assemble(trajs)
    assert g2.intersections == g.intersections
    spans = sorted((h.from_state, h.first_action, h.to_state, h.actions, h.step_rewards)
                   for h in g.highways.values())
    spans2 = sorted((h.from_state, h.first_action, h.to_state, h.actions, h.step_rewards)
                    for h in g2.highways.values())
    assert spans == spans2
    assert expand_to_empirical(g).edges == expand_to_empirical(g2).edges


def test_compression_ratio_at_most_one(rng):
    for seed in range(10):
        g = random_highway_graph(random.Random(seed), max_intersections=12)
        stats = graph_stats(g)
        assert 0 < stats["z"] <= 1.0


# ---------------------------------------------------------------- graph_stats

def test_stats_single_episode():
    g = HighwayGraph(gamma=0.99)
    steps = [(i, 0, i + 1, 0.0) for i in range(10)]
    g.assemble([mk_traj(*steps)])
    stats = graph_stats(g)
    assert stats["intersections"] == 2
    assert stats["highways"] == 1
    assert stats["expanded_states"] == 11
    assert stats["z"] == pytest.approx(2 / 11)


def test_stats_fully_dense_graph():
    g = HighwayGraph(gamma=0.99)
    for s in range(4):
        for a, nxt in enumerate(x for x in range(4) if x != s):
            g.add_highway(s, nxt, [a], [0.0])
    stats = graph_stats(g)
    assert stats["z"] == 1.0
    assert stats["expanded_states"] == 4


# ------------------------------------------------------------------ invariants

def test_value_equivalence_on_random_graphs():
    for seed in range(15):
        g = random_highway_graph(random.Random(seed), max_intersections=20)
        tables = value_update_loop(g, max_iter=5000, delta=1e-13)
        oracle = vanilla_value_iteration(expand_to_empirical(g), max_iter=50_000,
                                         delta=1e-14)
        for s in g.intersections:
            assert tables.v[s] == pytest.approx(oracle.values[s], abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10), st.integers(4, 24))
def test_assemble_invariants_under_random_walks(seed, episodes, max_len):
    table, _action_count, trajs = random_mdp_walks(random.Random(seed), episodes, max_len)
    g = HighwayGraph(gamma=0.95)
    g.assemble(trajs)
    check_graph_invariants(g)
    # expanded edges agree with the source MDP table
    for (s, a), (nxt, r) in g.edge_index.items():
        assert table[(s - 10 ** 6, a)] == (nxt - 10 ** 6, r)


def _graph_state(g: HighwayGraph):
    return (set(g.intersections), dict(g.highways), dict(g.membership),
            {s: dict(slots) for s, slots in g.out_edges.items()}, dict(g.edge_index),
            dict(g.observed), g._next_hid, _topology_signature(g))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 24), st.integers(1, 5))
def test_nothing_new_skip_matches_full_ingest(seed, episodes, max_len, batch):
    rng = random.Random(seed)
    _table, _action_count, trajs = random_mdp_walks(rng, episodes, max_len)
    # each fresh episode is followed by a replay of one already ingested
    stream, replays = [], set()
    for i, traj in enumerate(trajs):
        stream.append(traj)
        replays.add(len(stream))
        stream.append(rng.choice(trajs[:i + 1]))
    fast = HighwayGraph(gamma=0.95)
    full = HighwayGraph(gamma=0.95)
    full._nothing_new = lambda traj: False      # ingest every episode in full
    skipped = []
    check = fast._nothing_new

    def recorded_check(traj):
        skipped.append(check(traj))
        return skipped[-1]

    fast._nothing_new = recorded_check
    for lo in range(0, len(stream), batch):
        fast.assemble(stream[lo:lo + batch])
        full.assemble(stream[lo:lo + batch])
        assert _graph_state(fast) == _graph_state(full)
    check_graph_invariants(fast)
    assert all(skipped[i] for i in replays)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 24), st.data())
def test_conflict_on_known_pair_still_raises(seed, episodes, max_len, data):
    _table, _action_count, trajs = random_mdp_walks(random.Random(seed), episodes, max_len)
    g = HighwayGraph(gamma=0.95).assemble(trajs)
    traj = data.draw(st.sampled_from(trajs))
    i = data.draw(st.integers(0, len(traj) - 1))
    froms, actions = traj.from_states[:i + 1], traj.actions[:i + 1]
    nexts, rewards = traj.next_states[:i + 1], traj.rewards[:i + 1]
    if data.draw(st.booleans()):
        rewards[i] += 1.0
    else:
        nexts[i] = 10 ** 9                       # a state the MDP never reaches
    with pytest.raises(DeterminismViolation) as err:
        g.assemble([Trajectory.from_columns(froms, actions, nexts, rewards)])
    assert (err.value.state, err.value.action) == (froms[i], actions[i])


def test_cached_reward_tracks_gamma_change():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 2, [0, 1], [0.5, 1.0], interior=[1])
    (h,) = g.highways.values()
    assert h.cached_reward == pytest.approx(0.5 * 0.99 + 1.0 * 0.99 ** 2)
    g.set_gamma(0.5)
    (h,) = g.highways.values()
    assert h.cached_reward == pytest.approx(0.5 * 0.5 + 1.0 * 0.25)
    check_graph_invariants(g)


def test_dot_export_shape():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 3, [1, 0, 0], [0.0, 0.0, 0.5], interior=[1, 2])
    dot = to_dot(g, values={0: 0.25, 3: 0.0})
    assert dot.startswith("digraph")
    assert "style=bold" in dot
    assert "1 | 3 |" in dot
    assert "V=0.25" in dot
