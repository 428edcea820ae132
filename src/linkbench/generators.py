"""Synthetic graph generators: preferential attachment, power-law degree
sequences, configuration-model wiring and the LFR community benchmark.

All generators take an integer seed (or a numpy Generator) and are
deterministic per seed.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _is_number, build_graph


class GenerationError(RuntimeError):
    """A generator could not satisfy its constraints."""


# ----------------------------------------------------------------------
# preferential attachment
# ----------------------------------------------------------------------

# generate_price draws the first picks of _CLEAN_START to _MAX_WINDOW nodes
# at once, once _CLEAN_START nodes in a row drew theirs without a repeat.
# Windows from the first clean node on ran 1.3-1.9x slower than single
# nodes at m = 20 and 50, where almost every node repeats, and windows of
# 2 to 6 nodes left m = 20 5-10% slower: each costs more than the per-node
# calls it saves.
_MAX_WINDOW = 1 << 16
_CLEAN_START = 8


def generate_price(n: int, m_per_node: int, seed) -> Graph:
    """Undirected linear preferential attachment growth.

    Starts from a clique on m_per_node + 1 nodes, then adds nodes one at a
    time; each new node attaches m_per_node distinct edges to existing nodes
    chosen with probability proportional to current degree. Attachment uses
    a stub list (one entry per incident edge end), so selection weight
    tracks degree exactly. Degrees fall off with exponent 3 in the tail.

    n = m_per_node + 1 returns the bare clique. A bool, a fractional or
    non-finite float or any other non-integer size raises ValueError.

    The per-node loop draws m stub indices below 2e, e being the edges
    placed before the node, and redraws the missing ones while its targets
    repeat. This gives the same graph and leaves the generator in the same
    state, but draws the first picks of a window of nodes in one
    rng.integers call with an array of bounds, 2(e + m*k) for node k of the
    window: numpy draws such a call bound by bound, exactly as the per-node
    calls (tests/test_generators.py pins this). A pick of the window's own
    edges is the node that placed the edge (an even index) or that edge's
    target, an earlier pick of the window (odd). Up to the first node r
    whose picks repeat, every draw is the loop's, so the nodes before r are
    kept; the generator is rewound and redrawn through r's first picks,
    and r redraws its missing picks alone. Single nodes step until
    _CLEAN_START in a row draw clean; then a window of _CLEAN_START nodes
    doubles after each clean one, and restarts at 2r after a repeat, or at
    single nodes when 2r < _CLEAN_START; no window passes _MAX_WINDOW.

    Memory: O(n * m) for the edge array, as the loop, plus O(W * m) for one
    window's picks, W <= _MAX_WINDOW = 2**16.
    """
    for name, value in (("n", n), ("m_per_node", m_per_node)):
        if not _is_number(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    m = int(m_per_node)
    n = int(n)
    if m < 1:
        raise ValueError("m_per_node must be >= 1")
    if n < m + 1:
        raise ValueError("n must be at least m_per_node + 1")
    rng = np.random.default_rng(seed)

    num_edges = n * m - m * (m + 1) // 2
    edges = np.empty((num_edges, 2), dtype=np.int64)
    stubs = edges.reshape(-1)  # a view: stubs 2e and 2e + 1 are edges[e]
    e = m * (m + 1) // 2
    edges[:e] = np.column_stack(np.triu_indices(m + 1, 1))
    edges[e:, 0] = np.arange(m + 1, n).repeat(m)  # each node's m edges

    v, w, clean = m + 1, 1, 0
    while v < n:
        # r: how many of the window's nodes come before its first one whose
        # picks repeat; targets: that node's distinct first picks, in order
        w = min(w, n - v)
        if w == 1:
            picks = stubs[rng.integers(0, 2 * e, size=m)]
            targets = list(dict.fromkeys(picks.tolist()))
            r = int(len(targets) == m)
        else:
            state = rng.bit_generator.state
            highs = np.repeat(2 * (e + m * np.arange(w, dtype=np.int64)), m)
            picks = _window_picks(stubs, e, rng.integers(0, highs))
            rows = np.sort(picks.reshape(w, m), axis=1)
            repeats = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
            r = int(repeats[0]) if repeats.size else w
            if r < w - 1:  # rewind to just after node r's first picks
                rng.bit_generator.state = state
                rng.integers(0, highs[:(r + 1) * m])
            targets = list(dict.fromkeys(picks[r * m:(r + 1) * m].tolist()))
        if r:
            edges[e:e + r * m, 1] = picks[:r * m]
            e += r * m
            v += r
        if r == w:
            clean += w
            if clean >= _CLEAN_START:
                w = min(max(2 * w, _CLEAN_START), _MAX_WINDOW)
            continue
        while len(targets) < m:
            more = stubs[rng.integers(0, 2 * e, size=m - len(targets))]
            targets = list(dict.fromkeys(targets + more.tolist()))
        edges[e:e + m, 1] = targets
        e += m
        v += 1
        w = min(2 * r, _MAX_WINDOW) if 2 * r >= _CLEAN_START else 1
        clean = 0

    return build_graph(edges, num_nodes=n)


def _window_picks(stubs, e, idx) -> np.ndarray:
    """Node ids of a window's stub indices idx, the window starting with e
    edges placed. An index of 2e or more points into the window's own
    edges, whose sources are filled in; an odd one is the target of the
    window's edge (idx - 2e) // 2, which is the window's pick of that
    number. Only the picks of the window's clean prefix are read."""
    picks = stubs[idx]
    ptr = np.arange(idx.size)
    copies = np.flatnonzero((idx >= 2 * e) & (idx & 1 == 1))
    ptr[copies] = (idx[copies] - 2 * e) >> 1
    while True:  # each copy points to an earlier pick: jump to the root
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            return picks[ptr]
        ptr = nxt


# ----------------------------------------------------------------------
# power-law degree sequences
# ----------------------------------------------------------------------

def _truncated_powerlaw_means(tau: float, k_max: int) -> np.ndarray:
    """Analytic mean of p(k) ~ k^-tau on [k_min, k_max], for every k_min."""
    k = np.arange(1, k_max + 1, dtype=np.float64)
    w = k ** (-tau)
    s0 = np.cumsum(w[::-1])[::-1]        # sum of k^-tau from k_min up
    s1 = np.cumsum((k * w)[::-1])[::-1]  # sum of k^(1-tau) from k_min up
    return s1 / s0


def sample_powerlaw_degrees(n: int, tau: float, k_min=None, k_max: int = None,
                            target_mean=None, seed=None) -> np.ndarray:
    """Draw n degrees from a discrete truncated power law p(k) ~ k^-tau.

    If target_mean is given, the lower cutoff is tuned by integer search so
    that the analytic mean of the law lands as close to the target as the
    grid allows; a target outside the achievable range for every cutoff is
    a parameter error. Without a target, k_min is used as passed. The sum
    of the returned sequence is forced even by decrementing one entry when
    necessary.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tau <= 1:
        raise ValueError("tau must be > 1")
    if k_max is None or k_max < 1:
        raise ValueError("k_max must be >= 1")
    k_max = int(k_max)
    if target_mean is not None:
        means = _truncated_powerlaw_means(tau, k_max)
        if not means[0] <= target_mean <= k_max:
            raise ValueError(
                f"target mean {target_mean} is outside the achievable range "
                f"[{means[0]:.4g}, {k_max}] for tau={tau}, k_max={k_max}")
        k_min = int(np.argmin(np.abs(means - target_mean))) + 1
    elif k_min is None:
        raise ValueError("either k_min or target_mean must be given")
    else:
        k_min = int(k_min)
        if not 1 <= k_min <= k_max:
            raise ValueError("need 1 <= k_min <= k_max")

    support = np.arange(k_min, k_max + 1, dtype=np.int64)
    weights = support.astype(np.float64) ** (-tau)
    rng = np.random.default_rng(seed)
    degrees = rng.choice(support, size=n, p=weights / weights.sum())
    if degrees.sum() % 2 == 1:
        degrees[np.argmax(degrees)] -= 1
    return degrees


# ----------------------------------------------------------------------
# stub matching
# ----------------------------------------------------------------------

_MAX_SWEEPS = 100


def _match_stubs(stubs: np.ndarray, rng, labels=None):
    """Randomly pair stubs into simple edges.

    Each sweep shuffles the remaining stubs and pairs them consecutively.
    A pair is rejected when it would form a self-loop, repeat an edge
    already produced here, or (when labels are given) join two nodes with
    the same label. A rejected pair is then offered a degree-preserving
    rewire: break a random accepted edge (u, v) and place (a, u) and (b, v)
    instead, provided both are valid. Stubs that survive _MAX_SWEEPS are
    returned as leftover.

    Returns:
        (edges, leftover) with edges an (m, 2) int array.
    """
    remaining = np.asarray(stubs, dtype=np.int64)
    edges: list = []
    seen: set = set()

    def valid(x, y):
        if x == y:
            return False
        if labels is not None and labels[x] == labels[y]:
            return False
        return (min(x, y), max(x, y)) not in seen

    def try_rewire(a, b):
        for _ in range(10):
            e = int(rng.integers(len(edges)))
            u, v = edges[e]
            if rng.integers(2):
                u, v = v, u
            key1 = (min(a, u), max(a, u))
            key2 = (min(b, v), max(b, v))
            if key1 != key2 and valid(a, u) and valid(b, v):
                seen.discard(edges[e])
                edges[e] = edges[-1]
                edges.pop()
                seen.add(key1)
                seen.add(key2)
                edges.append(key1)
                edges.append(key2)
                return True
        return False

    for _ in range(_MAX_SWEEPS):
        if remaining.size < 2:
            break
        remaining = remaining[rng.permutation(remaining.size)]
        cut = remaining.size - (remaining.size % 2)
        carry = remaining[cut:]
        rejected: list = []
        made_progress = False
        for a, b in zip(remaining[0:cut:2], remaining[1:cut:2]):
            a = int(a)
            b = int(b)
            if valid(a, b):
                key = (min(a, b), max(a, b))
                seen.add(key)
                edges.append(key)
                made_progress = True
            elif edges and try_rewire(a, b):
                made_progress = True
            else:
                rejected.append(a)
                rejected.append(b)
        remaining = np.asarray(rejected + list(carry), dtype=np.int64)
        if not made_progress:
            break
    out = (np.asarray(edges, dtype=np.int64)
           if edges else np.zeros((0, 2), dtype=np.int64))
    return out, int(remaining.size)


def _warn_stub_loss(leftover: int, total: int) -> None:
    """Warn, at the generator's caller, when 1% or more of the stubs are lost."""
    if total and leftover / total >= 0.01:
        warnings.warn(f"discarded {leftover} of {total} stubs "
                      f"({leftover / total:.1%}); realized degrees run low",
                      stacklevel=3)


def degree_sequence_graph(degrees, seed) -> Graph:
    """Configuration-model graph for a target degree sequence.

    Stubs are matched uniformly at random; self-loops and repeated edges
    are rejected and rewired over up to 100 sweeps, and any stubs that
    still cannot be placed are dropped. Realized degrees can therefore sit
    slightly below the targets.
    """
    deg = np.asarray(degrees, dtype=np.int64)
    if deg.size == 0 or (deg < 0).any():
        raise ValueError("degrees must be a non-empty, non-negative sequence")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(deg.size, dtype=np.int64), deg)
    edges, leftover = _match_stubs(stubs, rng)
    _warn_stub_loss(leftover, stubs.size)
    return build_graph(edges, num_nodes=deg.size)


# ----------------------------------------------------------------------
# LFR community benchmark
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LfrParams:
    """Parameters of the LFR community benchmark.

    Degrees follow p(k) ~ k^-tau1 with the lower cutoff tuned to hit
    avg_degree; community sizes follow p(s) ~ s^-tau2 on
    [min_comm, max_comm]. Each node spends a (1 - mu) fraction of its
    degree inside its community and the rest across communities.
    """

    n: int
    tau1: float
    tau2: float
    mu: float
    avg_degree: float
    max_degree: int
    min_comm: int
    max_comm: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.tau1 <= 1 or self.tau2 <= 1:
            raise ValueError("tau1 and tau2 must be > 1")
        if not 0 <= self.mu <= 1:
            raise ValueError("mu must be in [0, 1]")
        if not 1 <= self.avg_degree <= self.max_degree:
            raise ValueError("need 1 <= avg_degree <= max_degree")
        if not 1 <= self.min_comm <= self.max_comm <= self.n:
            raise ValueError("need 1 <= min_comm <= max_comm <= n")
        if round((1 - self.mu) * self.max_degree) >= self.max_comm:
            raise ValueError(
                "largest allowed internal degree does not fit in the largest "
                "allowed community; raise max_comm or mu, or lower max_degree")


_SIZE_ATTEMPTS = 100


def _community_sizes(n, tau2, s_min, s_max, rng) -> np.ndarray:
    support = np.arange(s_min, s_max + 1, dtype=np.int64)
    weights = support.astype(np.float64) ** (-tau2)
    pmf = weights / weights.sum()
    for _ in range(_SIZE_ATTEMPTS):
        sizes: list = []
        total = 0
        while total < n:
            s = int(rng.choice(support, p=pmf))
            sizes.append(s)
            total += s
        excess = total - n
        if excess:
            truncated = sizes[-1] - excess
            if truncated < s_min:
                continue
            sizes[-1] = truncated
        return np.asarray(sizes, dtype=np.int64)
    raise GenerationError(
        f"could not draw community sizes in [{s_min}, {s_max}] summing to {n} "
        f"after {_SIZE_ATTEMPTS} attempts")


def _assign_communities(d_int, sizes, rng):
    """Place each node in a community that can hold its internal degree.

    Nodes are placed hardest-first; a node fits a community when the
    community still has a free slot and its size exceeds the node's
    internal degree. Returns None when some node cannot be placed.
    """
    order = np.argsort(-d_int, kind="stable")
    capacity = sizes.copy()
    labels = np.full(d_int.size, -1, dtype=np.int64)
    for v in order:
        feasible = np.flatnonzero((capacity > 0) & (sizes > d_int[v]))
        if feasible.size == 0:
            return None
        c = int(feasible[rng.integers(feasible.size)])
        labels[v] = c
        capacity[c] -= 1
    return labels


def generate_lfr(params: LfrParams, seed) -> tuple[Graph, np.ndarray]:
    """Generate an LFR benchmark graph and its community labels.

    Pipeline: draw degrees, stochastically round (1 - mu) * k_i into an
    internal degree per node, draw community sizes, place nodes into
    communities that can hold their internal degree, then stub-match
    internal edges within each community and external edges globally
    (external pairs must cross community lines). Stubs that cannot be
    placed after 100 sweeps are discarded; at benchmark scales this loses
    well under 1% of stubs.

    Returns:
        (graph, labels) with labels[v] the community index of node v.
    """
    rng = np.random.default_rng(seed)
    degrees = sample_powerlaw_degrees(
        params.n, params.tau1, k_max=params.max_degree,
        target_mean=params.avg_degree, seed=rng)

    internal_target = (1.0 - params.mu) * degrees
    base = np.floor(internal_target)
    d_int = (base + (rng.random(params.n) < internal_target - base)).astype(np.int64)
    d_int = np.minimum(d_int, degrees)

    labels = None
    for _ in range(100):
        sizes = _community_sizes(params.n, params.tau2, params.min_comm,
                                 params.max_comm, rng)
        labels = _assign_communities(d_int, sizes, rng)
        if labels is not None:
            break
    if labels is None:
        raise GenerationError(
            "no community assignment found in 100 attempts: some node's "
            "internal degree exceeds every drawable community size")

    edge_parts: list = []
    total_stubs = 0
    leftover = 0
    for c in range(sizes.size):
        members = np.flatnonzero(labels == c)
        stubs = np.repeat(members, d_int[members])
        total_stubs += stubs.size
        got, rest = _match_stubs(stubs, rng)
        leftover += rest
        if got.size:
            edge_parts.append(got)

    d_ext = degrees - d_int
    stubs = np.repeat(np.arange(params.n, dtype=np.int64), d_ext)
    total_stubs += stubs.size
    got, rest = _match_stubs(stubs, rng, labels=labels)
    leftover += rest
    if got.size:
        edge_parts.append(got)

    _warn_stub_loss(leftover, total_stubs)

    edges = (np.concatenate(edge_parts)
             if edge_parts else np.zeros((0, 2), dtype=np.int64))
    return build_graph(edges, num_nodes=params.n), labels


def mixing_fraction(g: Graph, labels) -> float:
    """Fraction of edges that cross community lines.

    labels holds one community label per node; any other length raises
    ValueError.
    """
    labels = np.asarray(labels)
    if labels.shape != (g.num_nodes,):
        raise ValueError(f"expected one label per node ({g.num_nodes}), "
                         f"got a label array of shape {labels.shape}")
    edges = g.edge_array()
    if edges.shape[0] == 0:
        raise ValueError("graph has no edges")
    crossing = np.count_nonzero(labels[edges[:, 0]] != labels[edges[:, 1]])
    return crossing / edges.shape[0]
