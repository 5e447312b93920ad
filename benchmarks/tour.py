"""Full-coverage highway graph of a perfect maze, built from outside.

The walk uses only the environment's own `reset`, `step` and `state_id`.  It
goes down every passage reachable from the start and back again, depth
first, then follows the passage path from the start into the goal.  It never
steps out of the goal, so cells that can only be reached through the goal
stay unseen, exactly as in training.  Folding that one trajectory in with
`HighwayGraph.assemble` gives the graph a fully converged training run
would build.
"""

from __future__ import annotations

from highway_rl.highway_graph import HighwayGraph
from highway_rl.transition_model import Trajectory, TransitionSample


def tour_trajectory(env) -> Trajectory:
    """One terminal episode that walks every reachable passage both ways."""
    start = env.reset(0)
    children: dict = {}
    parent: dict = {start: None}
    goal = None
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        kids = []
        for a in range(env.action_count):
            nxt = env.step(cur, a).next_obs
            if nxt == cur or nxt in parent:     # wall bump, or the way back
                continue
            parent[nxt] = (cur, a)
            if env.is_terminal(nxt):
                goal = nxt
            else:
                kids.append((a, nxt))
                frontier.append(nxt)
        children[cur] = kids
    if goal is None:
        raise ValueError("no terminal state is reachable from the start")

    samples: list[TransitionSample] = []

    def move(cur, a):
        res = env.step(cur, a)
        samples.append(TransitionSample(env.state_id(cur), a,
                                        env.state_id(res.next_obs), res.reward))
        return res.next_obs

    def move_back(cur, to):
        for b in range(env.action_count):
            if env.step(cur, b).next_obs == to:
                return move(cur, b)
        raise ValueError("passage has no way back: the maze is not two-way")

    stack = [(start, iter(children[start]))]
    while stack:
        cur, kids = stack[-1]
        nxt = next(kids, None)
        if nxt is None:
            stack.pop()
            if stack:
                move_back(cur, stack[-1][0])
            continue
        a, child = nxt
        move(cur, a)
        stack.append((child, iter(children[child])))

    path = []
    cell = goal
    while parent[cell] is not None:
        path.append(parent[cell])
        cell = parent[cell][0]
    for cur, a in reversed(path):
        move(cur, a)
    return Trajectory(samples, terminal=True)


def tour_graph(env, gamma: float = 0.99) -> HighwayGraph:
    """The full-coverage highway graph of the maze behind env."""
    return HighwayGraph(gamma=gamma).assemble([tour_trajectory(env)])
