"""Network topologies.

A :class:`Topology` is a directed multigraph over node uids ``0 .. n-1``
together with a human-readable name.  Builders are provided for all the
shapes used in the paper and the experiments:

* :func:`unidirectional_ring` -- the topology of the ABE election algorithm
  (Section 3): every node has exactly one outgoing channel, to its successor.
* :func:`bidirectional_ring`, :func:`line_topology`, :func:`star_topology`,
  :func:`complete_graph`, :func:`tree_topology`, :func:`grid_topology` --
  standard shapes used by the synchronizer experiments and by the baseline
  algorithms.
* :func:`random_connected` -- Erdős–Rényi graphs conditioned on connectivity,
  used to measure synchronizer overhead on irregular topologies.

All builders return *directed* edge lists; an "undirected" link is represented
by the two directed edges, each of which becomes its own simulated channel.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Topology",
    "unidirectional_ring",
    "bidirectional_ring",
    "line_topology",
    "star_topology",
    "complete_graph",
    "tree_topology",
    "grid_topology",
    "random_connected",
]


@dataclass
class Topology:
    """A directed communication topology over nodes ``0 .. n-1``.

    Attributes
    ----------
    n:
        Number of nodes.
    edges:
        Directed edges ``(source, destination)`` in a fixed, reproducible
        order; the order determines port numbering in the network builder.
    name:
        Human-readable name used in experiment tables.
    """

    n: int
    edges: List[Tuple[int, int]]
    name: str = "topology"
    _out_map: Dict[int, List[int]] = field(default_factory=dict, repr=False)
    _in_map: Dict[int, List[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"topology must have at least one node, got n={self.n}")
        for source, destination in self.edges:
            if not (0 <= source < self.n) or not (0 <= destination < self.n):
                raise ValueError(
                    f"edge ({source}, {destination}) references a node outside 0..{self.n - 1}"
                )
            if source == destination:
                raise ValueError(f"self-loop ({source}, {destination}) is not allowed")
        self._out_map = {u: [] for u in range(self.n)}
        self._in_map = {u: [] for u in range(self.n)}
        for source, destination in self.edges:
            self._out_map[source].append(destination)
            self._in_map[destination].append(source)

    # ------------------------------------------------------------------ views

    def successors(self, node: int) -> List[int]:
        """Destinations of the node's outgoing edges, in port order."""
        return list(self._out_map[node])

    def predecessors(self, node: int) -> List[int]:
        """Sources of the node's incoming edges, in in-port order."""
        return list(self._in_map[node])

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges of ``node``."""
        return len(self._out_map[node])

    def in_degree(self, node: int) -> int:
        """Number of incoming edges of ``node``."""
        return len(self._in_map[node])

    @property
    def edge_count(self) -> int:
        """Total number of directed edges."""
        return len(self.edges)

    def is_strongly_connected(self) -> bool:
        """Whether every node can reach every other node along directed edges.

        True exactly when node 0 reaches every node and every node reaches
        node 0: a forward and a reverse search from node 0.
        """
        return _reaches_all(self._out_map) and _reaches_all(self._in_map)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(name={self.name!r}, n={self.n}, edges={self.edge_count})"


def _reaches_all(neighbours: Dict[int, List[int]]) -> bool:
    """Whether a graph search from node 0 along ``neighbours`` finds every node."""
    seen = {0}
    frontier = [0]
    while frontier:
        for node in neighbours[frontier.pop()]:
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return len(seen) == len(neighbours)


# --------------------------------------------------------------------- builders


def unidirectional_ring(n: int) -> Topology:
    """Ring ``0 -> 1 -> ... -> n-1 -> 0`` with one outgoing port per node.

    This is the topology the ABE election algorithm of Section 3 runs on.
    Rings of size 1 are allowed (a single node with no channels would not be a
    ring; we require ``n >= 2``).
    """
    if n < 2:
        raise ValueError(f"a unidirectional ring needs n >= 2, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Topology(n=n, edges=edges, name=f"uniring-{n}")


def bidirectional_ring(n: int) -> Topology:
    """Ring with channels in both directions (port 0 = clockwise, 1 = counter)."""
    if n < 2:
        raise ValueError(f"a bidirectional ring needs n >= 2, got {n}")
    edges: List[Tuple[int, int]] = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
    for i in range(n):
        edges.append((i, (i - 1) % n))
    return Topology(n=n, edges=edges, name=f"biring-{n}")


def line_topology(n: int) -> Topology:
    """A path ``0 - 1 - ... - n-1`` with bidirectional links."""
    if n < 2:
        raise ValueError(f"a line needs n >= 2, got {n}")
    edges: List[Tuple[int, int]] = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    return Topology(n=n, edges=edges, name=f"line-{n}")


def star_topology(n: int, centre: int = 0) -> Topology:
    """A star: the centre is linked bidirectionally to every other node."""
    if n < 2:
        raise ValueError(f"a star needs n >= 2, got {n}")
    if not (0 <= centre < n):
        raise ValueError(f"centre {centre} outside 0..{n - 1}")
    edges: List[Tuple[int, int]] = []
    for i in range(n):
        if i == centre:
            continue
        edges.append((centre, i))
        edges.append((i, centre))
    return Topology(n=n, edges=edges, name=f"star-{n}")


def complete_graph(n: int) -> Topology:
    """Every ordered pair of distinct nodes is connected."""
    if n < 2:
        raise ValueError(f"a complete graph needs n >= 2, got {n}")
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    return Topology(n=n, edges=edges, name=f"complete-{n}")


def tree_topology(n: int, branching: int = 2) -> Topology:
    """A complete ``branching``-ary tree with bidirectional links."""
    if n < 2:
        raise ValueError(f"a tree needs n >= 2, got {n}")
    if branching < 1:
        raise ValueError("branching must be >= 1")
    edges: List[Tuple[int, int]] = []
    for child in range(1, n):
        parent = (child - 1) // branching
        edges.append((parent, child))
        edges.append((child, parent))
    return Topology(n=n, edges=edges, name=f"tree-{n}-b{branching}")


def grid_topology(rows: int, cols: int, wrap: bool = False) -> Topology:
    """A ``rows x cols`` grid (torus when ``wrap``) with bidirectional links."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid must contain at least two nodes")
    n = rows * cols

    def uid(r: int, c: int) -> int:
        return r * cols + c

    undirected: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                undirected.append((uid(r, c), uid(r, c + 1)))
            elif wrap and cols > 2:
                undirected.append((uid(r, c), uid(r, 0)))
            if r + 1 < rows:
                undirected.append((uid(r, c), uid(r + 1, c)))
            elif wrap and rows > 2:
                undirected.append((uid(r, c), uid(0, c)))
    edges: List[Tuple[int, int]] = []
    for u, v in undirected:
        edges.append((u, v))
        edges.append((v, u))
    kind = "torus" if wrap else "grid"
    return Topology(n=n, edges=edges, name=f"{kind}-{rows}x{cols}")


def _gnp_links(n: int, edge_probability: float, seed: int) -> List[Tuple[int, int]]:
    """One G(n, p) sample: the pairs ``u < v`` in lexicographic order.

    Each pair of :func:`itertools.combinations` is kept when a fresh
    ``random.Random(seed)`` draws below ``p``, which is the classic G(n, p)
    generator (and networkx 3's ``gnp_random_graph``) draw for draw.
    """
    if edge_probability >= 1.0:
        return list(combinations(range(n), 2))
    if edge_probability <= 0.0:
        return []
    draw = random.Random(seed).random
    return [pair for pair in combinations(range(n), 2) if draw() < edge_probability]


def _undirected(n: int, links: Iterable[Tuple[int, int]], name: str) -> Topology:
    """Both directions of every link, each link's pair of edges in a row."""
    edges: List[Tuple[int, int]] = []
    for u, v in links:
        edges.append((u, v))
        edges.append((v, u))
    return Topology(n=n, edges=edges, name=name)


def random_connected(n: int, edge_probability: float, seed: int) -> Topology:
    """A connected Erdős–Rényi graph, links bidirectional.

    The generator draws G(n, p) samples with seeds ``seed``, ``seed + 1``,
    ... until one is connected, then adds both directions of every link.
    After 50 disconnected samples the path ``0 - 1 - ... - n-1`` joined to
    the first sample guarantees termination even for very small
    ``edge_probability``.
    """
    if n < 2:
        raise ValueError(f"a random graph needs n >= 2, got {n}")
    if not (0.0 <= edge_probability <= 1.0):
        raise ValueError("edge_probability must be in [0, 1]")
    name = f"gnp-{n}-p{edge_probability:g}"
    for attempt in range(50):
        topology = _undirected(n, _gnp_links(n, edge_probability, seed + attempt), name)
        if topology.is_strongly_connected():
            return topology
    links = set(_gnp_links(n, edge_probability, seed))
    links.update((i - 1, i) for i in range(1, n))
    return _undirected(n, sorted(links), name)
