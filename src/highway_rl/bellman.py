"""The Bellman sweep every solver runs, and the value loop they all share.

The highway solve sweeps its highways (path return, gamma^len), the
corridor pre-pass its composed chain edges, and vanilla value iteration and
the ground-truth oracle one edge per recorded pair (r, gamma), all in
`sweep_values`, which stops once no value moves by delta.  Every edge
discounts by at most gamma, so a sweep is a max-norm gamma-contraction and
every solver's values are within gamma / (1 - gamma) * final_delta of the
fixed point of the graph it solved (in exact arithmetic).
"""

from __future__ import annotations

import numpy as np


class _SweepEngine:
    """Edge arrays of one graph for repeated synchronous sweeps.

    The graph has states 0..n-1, and edge j runs from src[j] to dst[j] with
    path_return[j] and gamma_pow_len[j].  The edges come in key order: by
    source, and within a source in the order their Q are listed.
    Internally the states are laid out by out-degree, largest first, and by
    index among equal degrees, so those with no out-edge come last:
    `order[i]` is the state at place i, so v[order] lays out a V array and
    v[_v_perm] takes it back.  An edge's rank is its place among its
    source's out-edges.  The internal edge arrays list the rank-0 edges,
    then the rank-1 ones, and so on, each block in layout order of its
    source, so the rank-r block backs up the first c_r states, where c_r
    is its length; q[_q_perm] lists an internal Q array in key order.
    """

    def __init__(self, n: int, src, dst, path_return, gamma_pow_len):
        m = len(src)
        self.n = n
        out_degree = np.bincount(src, minlength=n)
        # lexsort is stable: equal degrees stay in index order
        self.order = np.lexsort((-out_degree,))
        self._v_perm = np.empty(n, np.intp)
        self._v_perm[self.order] = np.arange(n)
        rank = np.arange(m) - np.repeat(np.cumsum(out_degree) - out_degree, out_degree)
        # the rank-r block is as long as the number of rank-r edges
        heads = np.bincount(rank).tolist()
        offsets = np.cumsum([0] + heads)
        self._head = heads[0] if heads else 0
        self._blocks = [(c, slice(o, o + c)) for c, o in zip(heads[1:], offsets[1:].tolist())]
        self._q_perm = offsets[rank] + self._v_perm[src]
        self.dst = np.empty(m, np.intp)
        self.dst[self._q_perm] = self._v_perm[dst]
        self.gamma_pow_len = np.empty(m)
        self.gamma_pow_len[self._q_perm] = gamma_pow_len
        self.path_return = np.empty(m)
        self.path_return[self._q_perm] = path_return

    def sweep(self, v, v_out=None, q_out=None) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous sweep from v (laid out); returns (v_next, q).

        q, in internal edge order, is path_return + gamma^len * v[to] as two
        rounded operations, the same arithmetic as Python floats.  v_next
        is the max of q over each state's out-edges, taken rank by rank,
        and 0.0 where none starts.  The max is exact, and np.maximum
        returns its second operand when -0.0 and 0.0 tie, so on a tie the
        earlier edge in key order keeps its bits, as with a `>` scan.
        v_out and q_out are reused when given; v_out may be v, since q is
        complete before v_out is written.
        """
        if v_out is None:
            v_out = np.empty(self.n)
        if q_out is None:
            q_out = np.empty(len(self.dst))
        return self.sweep_into(v, self.views(v_out, q_out))

    def views(self, v_out, q_out):
        """The buffers a sweep writes and their slices, for `sweep_into`;
        a loop over the same buffers takes them once."""
        head = self._head
        return (v_out, q_out, v_out[:head], q_out[:head], v_out[head:],
                [(q_out[block], v_out[:c]) for c, block in self._blocks])

    def sweep_into(self, v, views) -> tuple[np.ndarray, np.ndarray]:
        """`sweep` from v into the buffers of `views`."""
        v_out, q_out, v_head, q_head, v_tail, blocks = views
        # the indices are valid; mode="raise" would copy through a buffer
        np.take(v, self.dst, out=q_out, mode="clip")
        np.multiply(self.gamma_pow_len, q_out, out=q_out)
        np.add(self.path_return, q_out, out=q_out)
        np.copyto(v_head, q_head)
        v_tail.fill(0.0)
        for q_block, v_block in blocks:
            np.maximum(q_block, v_block, out=v_block)
        return v_out, q_out


def check_delta(delta: float):
    """Reject delta <= 0 (or NaN): the loop would never stop on it."""
    if not delta > 0:
        raise ValueError("delta must be > 0")


def sweep_values(eng: _SweepEngine, delta: float, v0=None):
    """Sweep from v0 (key order, or zeros when None) until no value moves by
    delta, or for 2K sweeps: with d1 the first max |dV| and c the largest
    discount, exact arithmetic needs K = 1 + ceil(log(delta / d1) / log c)
    (2 when c = 0).  A NaN or infinite d1 stops the loop at once.

    Returns (v, q, sweeps, final_delta): V in key order, the last sweep's Q
    in the engine's internal order (q[eng._q_perm] is key order) and the
    last max |dV| (0.0, after no sweep, for a graph with no state).
    """
    v = np.zeros(eng.n) if v0 is None else v0[eng.order]
    buffers, q, diff = (v, np.empty(eng.n)), np.empty(len(eng.dst)), np.empty(eng.n)
    # views[k] sweeps into buffers[k], from the other buffer
    views = [eng.views(b, q) for b in buffers]
    sweeps, cap = 0, min(eng.n, 1)
    final_delta = 0.0
    while sweeps < cap:
        v_prev = buffers[sweeps % 2]
        sweeps += 1
        v, _q = eng.sweep_into(v_prev, views[sweeps % 2])
        np.subtract(v, v_prev, out=diff)
        final_delta = float(np.maximum.reduce(np.abs(diff, out=diff)))
        if final_delta < delta:
            break
        if sweeps == 1 and np.isfinite(final_delta):
            c = eng.gamma_pow_len.max(initial=0.0)
            k = 1 + np.ceil((np.log(delta) - np.log(final_delta)) / np.log(c)) if c else 2
            cap = 2 * int(k)
    return v[eng._v_perm], q, sweeps, final_delta
