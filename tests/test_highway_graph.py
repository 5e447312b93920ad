"""Highway graph construction, splitting, detection, and derived views.

The detection rule tests exercise the step-by-step reference in conftest,
which the graph's own ingest is compared against below.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (check_graph_invariants, corridor_highway_graph, detect_against,
                      detect_within, graph_state, highway_steps, mk_traj,
                      random_deterministic_mdp, random_highway_graph, random_mdp_walks,
                      random_walk_trajectories, reference_assemble)
from highway_rl.errors import DeterminismViolation, NotInterior
from highway_rl.highway_graph import (HighwayGraph, expand_to_empirical, graph_stats,
                                      path_return, to_dot)
from highway_rl.serialize import load_highway_graph, save_highway_graph
from highway_rl.transition_model import Trajectory, vanilla_value_iteration
from highway_rl.value_iteration import value_update_loop


# ------------------------------------------------------------ within detection

def test_within_straight_path_no_flags():
    traj = mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 3, 0.0))
    assert detect_within(traj.transitions()) == set()


def test_within_revisit_flags_merge_target():
    traj = mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 1, 0.0))
    assert detect_within(traj.transitions()) == {1}


def test_within_crossing_flags_both_endpoints():
    # diamond: 0->1->2->3 then 3->1 closes onto visited ground via a new edge
    traj = mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 3, 0.0),
                   (3, 0, 0, 0.0), (0, 1, 2, 0.0))
    flags = detect_within(traj.transitions())
    assert {0, 2} <= flags  # the new 0->2 edge crosses between visited states


def test_within_retraced_edge_adds_no_flags():
    # loop A->B->C->A then retrace A->B: the crossing set stays quiet because
    # the transition was already traversed within this trajectory
    traj = mk_traj((0, 0, 1, 0.0), (1, 0, 2, 0.0), (2, 0, 0, 0.0), (0, 0, 1, 0.0))
    flags = detect_within(traj.transitions())
    assert flags == {0}  # only the loop-closure target is flagged


def test_within_fork_from_revisited_state():
    traj = mk_traj((0, 0, 1, 0.0), (1, 0, 0, 0.0), (0, 1, 5, 0.0))
    flags = detect_within(traj.transitions())
    assert 0 in flags  # leaves the revisited start toward a fresh state


# ----------------------------------------------------------- against detection

def _line_graph():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(10, 13, [0, 0, 0], [0.0, 0.0, 0.0], interior=[11, 12])
    return g


def test_against_disjoint_trajectory_no_flags():
    g = _line_graph()
    traj = mk_traj((100, 0, 101, 0.0), (101, 0, 102, 0.0))
    assert detect_against(traj.transitions(), g) == set()


def test_against_exit_from_highway_interior():
    g = _line_graph()
    traj = mk_traj((11, 3, 200, 0.0))
    assert detect_against(traj.transitions(), g) == {11}


def test_against_entry_at_highway_interior():
    g = _line_graph()
    traj = mk_traj((300, 1, 12, 0.0))
    assert detect_against(traj.transitions(), g) == {12}


def test_against_on_graph_pair_with_missing_link():
    g = _line_graph()
    traj = mk_traj((11, 2, 13, 0.0))  # hop from interior to endpoint, edge absent
    assert detect_against(traj.transitions(), g) == {11, 13}


def test_against_retraced_known_edge_no_flags():
    g = _line_graph()
    traj = mk_traj((10, 0, 11, 0.0), (11, 0, 12, 0.0))
    assert detect_against(traj.transitions(), g) == set()


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
    assert 1 in g.membership and 3 in g.membership


def test_assemble_self_loop_samples_are_not_embedded():
    # wall-bump style self-loops stay out of the topology but are remembered
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj((0, 0, 1, -0.1), (1, 2, 1, -0.1), (1, 0, 2, 1.0), terminal=True)])
    check_graph_invariants(g)
    assert g.intersections == {0, 2}
    (h,) = g.highways.values()
    assert h.interior == (1,)
    assert g.observed[(1, 2)] == (1, -0.1)
    assert all((s, a) != (1, 2) for s, a, _nxt, _r in highway_steps(g))


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
        flags = detect_against(traj.transitions(), g)
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
    before = sorted(highway_steps(g))
    assert before == [(0, 0, 1, 0.1), (1, 1, 2, 0.2), (2, 2, 3, 0.3), (3, 3, 4, 0.4)]
    up, _down = g.split_highway(hid, 3)
    assert sorted(highway_steps(g)) == before
    g.split_highway(up, 1)
    assert sorted(highway_steps(g)) == before


def test_split_requires_interior():
    g = HighwayGraph(gamma=0.99)
    hid = g.add_highway(0, 2, [0, 1], [0.0, 0.0], interior=[1])
    with pytest.raises(NotInterior):
        g.split_highway(hid, 0)
    with pytest.raises(NotInterior):
        g.split_highway(hid, 99)


# ---------------------------------------------------------------- path_return

def test_path_return_exponent_starts_at_zero():
    assert path_return([1.0], 0.99) == 1.0
    assert path_return([0.0, 0.0, 1.0], 0.5) == pytest.approx(0.25, abs=1e-15)


# --------------------------------------------------------------------- expand

def test_expand_counts():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 3, [0, 0, 0], [0.0, 0.0, 1.0], interior=[1, 2])
    emp = expand_to_empirical(g)
    assert emp.nodes == {0, 1, 2, 3}
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


@pytest.mark.parametrize("kind", ["random", "corridor", "wall-bumps"])
def test_expansion_is_every_highway_step_and_no_dropped_self_loop(kind):
    loop_steps = dropped_loops = 0
    for seed in range(40):
        rng = random.Random(seed)
        if kind == "random":
            g = random_highway_graph(rng, max_intersections=20)
        elif kind == "corridor":
            g = corridor_highway_graph(rng)
        else:
            g = HighwayGraph(gamma=0.95).assemble(_replayed_walks(rng, 6, 24, loop_share=0.3))
        steps = {(s, a): (nxt, r) for s, a, nxt, r in highway_steps(g)}
        emp = expand_to_empirical(g)
        assert emp.gamma == g.gamma and emp.nodes == g.states()
        assert emp.edges == steps
        # what the expansion leaves out of observed is self-loops, none of them a step
        dropped = g.observed.keys() - emp.edges.keys()
        assert all(g.observed[(s, a)][0] == s for s, a in dropped)
        loop_steps += sum(s == nxt for (s, _a), (nxt, _r) in steps.items())
        dropped_loops += len(dropped)
    # the fixtures hold what the rule tells apart
    if kind == "wall-bumps":
        assert dropped_loops > 0
    else:
        assert loop_steps > 0


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
        tables = value_update_loop(g, delta=1e-13)
        oracle = vanilla_value_iteration(expand_to_empirical(g), delta=1e-14)
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
    for s, a, nxt, r in highway_steps(g):
        assert table[(s - 10 ** 6, a)] == (nxt - 10 ** 6, r)


# ------------------------------------------------------------ topology signature

def _signature(g):
    """The topology as the patience rule reads it: the two size counts."""
    return len(g.intersections), len(g.highways)


def test_signature_moves_on_every_structural_edit():
    g = HighwayGraph(gamma=0.9)
    sigs = [_signature(g)]

    def moved():
        sigs.append(_signature(g))
        return sigs[-1] != sigs[-2]

    g.make_intersection(1)
    assert moved()
    g.make_intersection(1)
    assert not moved()
    hid = g.add_highway(1, 2, [0, 1, 0, 1], [0.0] * 4, interior=[10, 11, 12])
    assert moved()
    g.split_highway(hid, 10)
    assert moved()
    g.make_intersection(11)             # interior: splits its highway
    assert moved()
    g.add_highway(2, 1, [3], [1.0])     # both endpoints known: only a new highway
    assert moved()


def test_signature_stays_on_an_assemble_that_brings_nothing_new():
    g = HighwayGraph(gamma=0.9)
    walk = mk_traj((1, 0, 2, 0.0), (2, 0, 3, 0.0), (3, 1, 4, 1.0))
    g.assemble([walk])
    before = _signature(g)
    g.assemble([walk])
    g.assemble([mk_traj((1, 2, 1, -1.0))])     # a new self-loop is not embedded
    assert _signature(g) == before
    g.assemble([mk_traj((2, 1, 5, 0.0))])
    assert _signature(g) != before


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 10), st.integers(1, 24))
def test_signature_moves_exactly_when_the_topology_does(seed, episodes, max_len):
    _table, _action_count, trajs = random_mdp_walks(random.Random(seed), episodes, max_len)
    g = HighwayGraph(gamma=0.95)
    topology = lambda: (set(g.intersections), dict(g.highways), dict(g.membership))
    for traj in trajs + trajs:          # the replay brings nothing new
        sig, before = _signature(g), topology()
        g.assemble([traj])
        assert (_signature(g) != sig) == (topology() != before)


# ------------------------------------------------------------------ add_highway

@pytest.mark.parametrize("args, interior", [
    ((1, 2, [2, 2, 2], [0.0] * 3), [5, 1]),
    ((1, 2, [2, 2, 2], [0.0] * 3), [5, 5]),
    ((3, 4, [0, 0], [0.0] * 2), [10]),
    ((3, 4, [0, 0], [0.0] * 2), [2]),
    ((3, 4, [0], [math.inf]), []),
    ((3, 4, [0], [math.nan]), []),
    ((1, 4, [0], [0.0]), []),
    ((10, 3, [1], [0.0]), []),
], ids=["interior-is-an-endpoint", "repeated-interior", "interior-on-a-highway",
        "interior-is-an-intersection", "inf-reward", "nan-reward",
        "first-action-taken", "first-action-taken-on-the-highway"])
def test_add_highway_rejects_bad_input_before_writing(args, interior):
    g = HighwayGraph(gamma=0.9)
    g.add_highway(1, 2, [0, 1], [0.0, 0.5], interior=[10])     # leaves 10 by action 1
    before = graph_state(g)
    with pytest.raises(ValueError):
        g.add_highway(*args, interior=interior)
    assert graph_state(g) == before
    g.add_highway(10, 3, [0], [0.0])    # a new action off the interior state still splits
    assert 10 in g.intersections
    check_graph_invariants(g)


def test_add_highway_records_its_steps_so_an_episode_along_it_changes_nothing():
    g = HighwayGraph(gamma=0.9)
    g.add_highway(0, 2, [0, 1], [-1.0, -1.0], interior=[1])
    assert g.observed == {(0, 0): (1, -1.0), (1, 1): (2, -1.0)}
    before = graph_state(g)
    g.assemble([mk_traj((0, 0, 1, -1.0), (1, 1, 2, -1.0))])
    assert graph_state(g) == before
    check_graph_invariants(g)


def test_a_highway_record_is_immutable_and_derives_its_properties():
    g = HighwayGraph(gamma=0.9)
    h = g.highways[g.add_highway(0, 3, [2, 0, 1], [-1.0, 0.5, 1.0], interior=[1, 2])]
    for name in ("from_state", "actions", "step_states", "path_return", "length", "interior"):
        with pytest.raises(AttributeError):
            setattr(h, name, None)
    assert (h.length, h.first_action, h.interior) == (
        len(h.actions), h.actions[0], h.step_states[:-1])
    assert (h.length, h.first_action, h.interior) == (3, 2, (1, 2))


@pytest.mark.parametrize("steps", [
    ((1, 1, 2, 0.0),),                 # the self-loop 1 -1-> 1 is already observed
    ((7, 0, 8, 0.0), (8, 1, 9, 0.0)),  # 8 -1-> 2 is already observed
], ids=["first-step", "interior-step"])
def test_add_highway_refuses_a_conflicting_outcome_before_writing(steps):
    g = HighwayGraph(gamma=0.9)
    g.assemble([mk_traj((1, 1, 1, -0.5), (1, 0, 2, 0.0))])
    g.observed[(8, 1)] = (2, 0.0)
    before = graph_state(g)
    froms, actions, nexts, rewards = zip(*steps)
    with pytest.raises(DeterminismViolation):
        g.add_highway(froms[0], nexts[-1], actions, rewards, interior=nexts[:-1])
    assert graph_state(g) == before


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.integers(1, 10), st.integers(1, 24),
       st.data())
def test_promotions_keep_the_invariants_and_one_expanded_edge_per_step(seed, walks, episodes,
                                                                       max_len, data):
    rng = random.Random(seed)
    if walks:
        _table, _action_count, trajs = random_mdp_walks(rng, episodes, max_len)
        g = HighwayGraph(gamma=0.95).assemble(trajs)
    else:
        g = random_highway_graph(rng, max_intersections=8)
    if g.membership:
        promoted = st.lists(st.sampled_from(sorted(g.membership)), max_size=4, unique=True)
        for s in data.draw(promoted):
            g.make_intersection(s)           # splits the highway through s
    check_graph_invariants(g)
    steps = list(highway_steps(g))
    assert len(steps) == graph_stats(g)["expanded_edges"]


def _replayed_walks(rng: random.Random, episodes: int, max_len: int,
                    loop_share: float) -> list[Trajectory]:
    """Walks over a random MDP in which about loop_share of the pairs are
    self-loops, each followed by a replay of a whole earlier walk or of a
    slice of one (which may start and end inside a highway).

    Each state has a preferred action that the walker mostly takes, so the
    walks lay down long highways, and a later walk that strays from them
    promotes several interior states at once.
    """
    n_states = rng.randint(3, 40)
    action_count = rng.randint(1, 4)
    table = random_deterministic_mdp(rng, n_states=n_states, action_count=action_count)
    for (s, a), (_nxt, r) in table.items():
        if rng.random() < loop_share:
            table[(s, a)] = (s, r)
    prefer = [rng.randrange(action_count) for _ in range(n_states)]
    walks = []
    for _ in range(episodes):
        s = rng.randrange(n_states)
        froms, actions, nexts, rewards = [], [], [], []
        for _ in range(rng.randint(1, max_len)):
            a = prefer[s] if rng.random() < 0.8 else rng.randrange(action_count)
            nxt, r = table[(s, a)]
            froms.append(s + 10 ** 6)
            actions.append(a)
            nexts.append(nxt + 10 ** 6)
            rewards.append(r)
            s = nxt
        walks.append(Trajectory.from_columns(froms, actions, nexts, rewards))
    stream = []
    for i, walk in enumerate(walks):
        stream.append(walk)
        old = rng.choice(walks[:i + 1])
        lo = rng.randrange(len(old))
        hi = rng.randint(lo + 1, len(old))
        stream.append(Trajectory.from_columns(old.from_states[lo:hi], old.actions[lo:hi],
                                              old.next_states[lo:hi], old.rewards[lo:hi]))
    return stream


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 40), st.integers(1, 5),
       st.sampled_from([0.0, 0.25, 0.6]))
def test_ingest_matches_reference_on_replayed_walks(seed, episodes, max_len, batch,
                                                    loop_share):
    stream = _replayed_walks(random.Random(seed), episodes, max_len, loop_share)
    fast = HighwayGraph(gamma=0.95)
    ref = HighwayGraph(gamma=0.95)
    for lo in range(0, len(stream), batch):
        fast.assemble(stream[lo:lo + batch])
        reference_assemble(ref, stream[lo:lo + batch])
        assert graph_state(fast) == graph_state(ref)
    check_graph_invariants(fast)


def _check_columns(graph: HighwayGraph, seen_index: dict):
    """The columns agree with the Highway objects, retired ids are dead, and
    no intersection's index moved since seen_index recorded it."""
    states = sorted(graph.intersections)
    rank = {s: i for i, s in enumerate(states)}
    hws = sorted(graph.highways.values(), key=lambda h: (h.from_state, h.first_action))
    ids, src, dst, first, ret, disc = graph.edge_columns()
    assert ids.tolist() == states
    assert src.tolist() == [rank[h.from_state] for h in hws]
    assert dst.tolist() == [rank[h.to_state] for h in hws]
    assert first.tolist() == [h.first_action for h in hws]
    assert ret.tobytes() == np.array([h.path_return for h in hws]).tobytes()
    assert disc.tobytes() == np.array([h.gamma_pow_len for h in hws]).tobytes()
    alive = graph._edge_ints[:graph._next_hid, 3]
    assert np.flatnonzero(alive).tolist() == sorted(graph.highways)
    index = graph._index
    assert list(index.values()) == list(range(len(index)))
    assert all(index[s] == i for s, i in seen_index.items())
    seen_index.update(index)


@pytest.mark.parametrize("low", [0, -2])
def test_columns_keep_key_order_when_the_first_actions_are_sparse(low):
    # the order key is src * (action span + 1) + (action - lowest): with
    # actions low and 5 only, a key per distinct action would mix the
    # sources up, and a negative action would without the offset
    g = HighwayGraph(gamma=0.9)
    for s, a, to in [(7, 5, 3), (3, low, 7), (9, 5, 3), (7, low, 9), (3, 5, 9)]:
        g.add_highway(s, to, [a], [float(a)])
    ids, src, dst, first, ret, _disc = g.edge_columns()
    keys = [(3, low), (3, 5), (7, low), (7, 5), (9, 5)]
    assert list(zip(ids[src].tolist(), first.tolist())) == keys
    assert ids[dst].tolist() == [7, 9, 9, 3, 3]
    assert ret.tolist() == [float(a) for _s, a in keys]
    _check_columns(g, {})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 40), st.integers(1, 5),
       st.sampled_from([0.0, 0.25, 0.6]), st.data())
def test_columns_match_the_highways_through_ingest_splits_and_reload(
        tmp_path_factory, seed, episodes, max_len, batch, loop_share, data):
    stream = _replayed_walks(random.Random(seed), episodes, max_len, loop_share)
    g = HighwayGraph(gamma=0.95)
    seen: dict = {}
    for lo in range(0, len(stream), batch):
        g.assemble(stream[lo:lo + batch])
        _check_columns(g, seen)
    if g.membership:
        promoted = st.lists(st.sampled_from(sorted(g.membership)), max_size=4, unique=True)
        for s in data.draw(promoted):
            g.make_intersection(s)           # splits the highway through s
            _check_columns(g, seen)
    path = tmp_path_factory.mktemp("graph") / "graph.npz"
    save_highway_graph(path, g)
    loaded = load_highway_graph(path)
    _check_columns(loaded, {})
    (ids, *cols), (ids_before, *cols_before) = loaded.edge_columns(), g.edge_columns()
    assert ids.tolist() == ids_before.tolist()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(cols, cols_before))


def test_ingest_splits_in_first_departure_order():
    # one highway 0 -> ... -> 6; the second episode enters it at 4, leaves
    # at 6, re-enters at 2 and leaves at 3, so it splits at 4, 2 and 3 in
    # the order it first leaves them, not in the set's order (2, 3, 4)
    line = [(k, 0, k + 1, 0.0) for k in range(6)]
    tour = [(20, 0, 4, 0.1), (4, 0, 5, 0.0), (5, 0, 6, 0.0), (6, 1, 21, 0.2),
            (21, 0, 2, 0.3), (2, 0, 3, 0.0), (3, 1, 22, 0.4)]
    fast = HighwayGraph(gamma=0.9).assemble([mk_traj(*line), mk_traj(*tour)])
    ref = reference_assemble(HighwayGraph(gamma=0.9), [mk_traj(*line), mk_traj(*tour)])
    assert graph_state(fast) == graph_state(ref)
    spans = {hid: (h.from_state, h.to_state) for hid, h in fast.highways.items()}
    # 0 -> 6 splits at 4 into 1 and 2, then 1 at 2 into 3 and 4, then 4 at
    # 3 into 5 and 6; the episode's new segments follow
    assert spans == {2: (4, 6), 3: (0, 2), 5: (2, 3), 6: (3, 4), 7: (20, 4), 8: (6, 2),
                     9: (3, 22)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 24), st.data())
def test_conflict_on_known_pair_still_raises(seed, episodes, max_len, data):
    _table, _action_count, trajs = random_mdp_walks(random.Random(seed), episodes, max_len)
    g = HighwayGraph(gamma=0.95).assemble(trajs)
    ref = reference_assemble(HighwayGraph(gamma=0.95), trajs)
    traj = data.draw(st.sampled_from(trajs))
    i = data.draw(st.integers(0, len(traj) - 1))
    froms, actions = traj.from_states[:i + 1], traj.actions[:i + 1]
    nexts, rewards = traj.next_states[:i + 1], traj.rewards[:i + 1]
    if data.draw(st.booleans()):
        # states the graph has never seen, so every pair is new to it; the
        # episode returns to its start and repeats its first pair with
        # another outcome
        froms = [s + 10 ** 7 for s in froms]
        nexts = [s + 10 ** 7 for s in nexts]
        if nexts[-1] != froms[0]:
            froms.append(nexts[-1])
            actions.append(99)
            nexts.append(froms[0])
            rewards.append(0.0)
        froms.append(froms[0])
        actions.append(actions[0])
        nexts.append(10 ** 9)
        rewards.append(rewards[0])
        k = len(froms) - 1
    else:
        if data.draw(st.booleans()):
            rewards[i] += 1.0
        else:
            nexts[i] = 10 ** 9                   # a state the MDP never reaches
        k = i
    bad = Trajectory.from_columns(froms, actions, nexts, rewards)
    raised = []
    for graph, assemble in ((g, HighwayGraph.assemble), (ref, reference_assemble)):
        with pytest.raises(DeterminismViolation) as err:
            assemble(graph, [bad])
        e = err.value
        raised.append((e.state, e.action, e.first, e.second))
    assert raised[0] == raised[1]
    assert raised[0][:2] == (froms[k], actions[k])
    assert graph_state(g) == graph_state(ref)


def test_cached_reward_tracks_gamma_change():
    # the same highway under two discount factors caches each one's rewards
    for gamma, cached, ret in ((0.99, 0.5 * 0.99 + 1.0 * 0.99 ** 2, 0.5 + 1.0 * 0.99),
                               (0.5, 0.5 * 0.5 + 1.0 * 0.25, 0.5 + 1.0 * 0.5)):
        g = HighwayGraph(gamma=gamma)
        g.add_highway(0, 2, [0, 1], [0.5, 1.0], interior=[1])
        (h,) = g.highways.values()
        assert h.cached_reward == pytest.approx(cached)
        assert h.path_return == pytest.approx(ret)
        assert h.gamma_pow_len == gamma ** 2
        check_graph_invariants(g)


def test_violation_leaves_the_graph_unchanged():
    # the conflicting episode's new pairs are dropped with it, so a later
    # episode over the same steps embeds them
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj((0, 0, 1, 0.0))])
    before = graph_state(g)
    with pytest.raises(DeterminismViolation):
        g.assemble([mk_traj((5, 0, 6, 0.0), (6, 0, 0, 0.0), (0, 0, 2, 0.0))])
    assert graph_state(g) == before
    again = mk_traj((5, 0, 6, 0.0), (6, 0, 0, 0.0), (0, 0, 1, 0.0))
    g.assemble([again])
    fresh = HighwayGraph(gamma=0.99).assemble([mk_traj((0, 0, 1, 0.0)), again])
    assert graph_state(g) == graph_state(fresh)
    check_graph_invariants(g)


# ------------------------------------------------------------- closed graphs

def test_untried_pairs_count_a_truncated_end_but_not_a_terminal_one():
    # s=0 tries action 0 into a terminal (goal) and action 1 into a cell that
    # a truncated episode left behind: of 2 actions x 2 non-terminal states,
    # only state 2's are untried
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj((0, 0, 1, -5.0), terminal=True)])
    assert g.terminals == {1}
    assert g.untried_pairs(2) == 1                  # (0, 1)
    g.assemble([mk_traj((0, 1, 2, -1.0))])
    assert g.terminals == {1}
    assert g.untried_pairs(2) == 2                  # (2, 0) and (2, 1)
    g.assemble([mk_traj((2, 1, 2, 0.5), (2, 0, 1, 0.0), terminal=True)])
    assert g.untried_pairs(2) == 0
    assert g.untried_pairs(3) == 2                  # a third action at 0 and at 2


def test_untried_pairs_equal_a_count_over_the_held_states():
    _table, action_count, trajs = random_mdp_walks(random.Random(4), 12, 20)
    g = HighwayGraph(gamma=0.95)
    for traj in trajs:
        g.assemble([traj])
        held = g.states()
        assert g.untried_pairs(action_count) == sum(
            (s, a) not in g.observed for s in held for a in range(action_count))


def test_a_violation_leaves_the_terminals_and_the_count_unchanged():
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj((0, 0, 1, 0.0), terminal=True)])
    before = (set(g.terminals), g.untried_pairs(2))
    with pytest.raises(DeterminismViolation):
        g.assemble([mk_traj((5, 0, 6, 0.0), (6, 1, 0, 0.0), (0, 0, 7, 0.0), terminal=True)])
    assert (g.terminals, g.untried_pairs(2)) == before == ({1}, 1)


def test_a_graph_built_by_add_highway_or_loaded_never_reads_closed(tmp_path):
    # every action of every state but the sink 2 is tried; without recorded
    # terminals the sink counts as a state whose actions are all untried
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 2, [0, 1], [0.5, 1.0], interior=[1])
    g.add_highway(0, 2, [1], [0.25])
    g.add_highway(1, 1, [0], [-1.0])
    assert not g.terminals and g.untried_pairs(2) == 2
    trained = HighwayGraph(gamma=0.99).assemble(
        [mk_traj((0, 0, 1, 0.0), (1, 1, 0, 0.0), (0, 1, 1, 0.0), (1, 0, 2, 1.0), terminal=True)])
    assert trained.untried_pairs(2) == 0
    save_highway_graph(tmp_path / "graph.npz", trained)
    loaded = load_highway_graph(tmp_path / "graph.npz")
    assert loaded.observed == trained.observed and not loaded.terminals
    assert loaded.untried_pairs(2) == 2


def test_dot_export_shape():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 3, [1, 0, 0], [0.0, 0.0, 0.5], interior=[1, 2])
    dot = to_dot(g, values={0: 0.25, 3: 0.0})
    assert dot.startswith("digraph")
    assert "style=bold" in dot
    assert "1 | 3 |" in dot
    assert "V=0.25" in dot
