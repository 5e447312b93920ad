"""State-id hashing."""

from highway_rl.encoder import encode_tabular
from highway_rl.environments import EnvSpec, make_env


def test_equal_encodings_equal_ids():
    assert encode_tabular((2, 3)) == encode_tabular((2, 3))
    assert encode_tabular(17) == encode_tabular(17)


def test_order_matters():
    assert encode_tabular((2, 3)) != encode_tabular((3, 2))


def test_seed_isolates_id_spaces():
    assert encode_tabular((1, 1), seed=0) != encode_tabular((1, 1), seed=1)


def test_no_collisions_across_in_scope_state_spaces():
    maze = make_env(EnvSpec(kind="maze", width=15, height=15, seed=0))
    maze_ids = {maze.state_id(obs) for obs in maze.enumerate_states()}
    assert len(maze_ids) == 225
    cliff = make_env(EnvSpec(kind="cliffwalking", seed=0))
    cliff_ids = {cliff.state_id(obs) for obs in cliff.enumerate_states()}
    assert len(cliff_ids) == 38
    taxi_ids = {encode_tabular(obs) for obs in range(500)}  # full taxi space
    assert len(taxi_ids) == 500
    # tuples and ints hash into disjoint id sets
    assert not maze_ids & taxi_ids
