"""Unit tests for topology builders."""

from __future__ import annotations

import hashlib

import pytest

from repro.network.topology import (
    Topology,
    bidirectional_ring,
    complete_graph,
    grid_topology,
    line_topology,
    random_connected,
    star_topology,
    tree_topology,
    unidirectional_ring,
)


class TestTopologyCore:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Topology(n=2, edges=[(0, 2)])
        with pytest.raises(ValueError):
            Topology(n=2, edges=[(0, 0)])
        with pytest.raises(ValueError):
            Topology(n=0, edges=[])

    def test_successor_and_predecessor_maps(self):
        topo = Topology(n=3, edges=[(0, 1), (1, 2), (2, 0)])
        assert topo.successors(0) == [1]
        assert topo.predecessors(0) == [2]
        assert topo.out_degree(1) == 1
        assert topo.in_degree(1) == 1
        assert topo.edge_count == 3

    def test_strong_connectivity_needs_both_directions(self):
        # Node 0 reaches every node, but nothing reaches node 0.
        assert not Topology(n=3, edges=[(0, 1), (1, 2)]).is_strongly_connected()
        assert not Topology(n=3, edges=[(1, 0), (2, 1)]).is_strongly_connected()
        assert not Topology(n=2, edges=[]).is_strongly_connected()
        assert Topology(n=1, edges=[]).is_strongly_connected()


class TestRings:
    def test_unidirectional_ring_structure(self):
        topo = unidirectional_ring(6)
        assert topo.n == 6
        assert topo.edge_count == 6
        for node in range(6):
            assert topo.out_degree(node) == 1
            assert topo.in_degree(node) == 1
            assert topo.successors(node) == [(node + 1) % 6]
        assert topo.is_strongly_connected()

    def test_unidirectional_ring_minimum_size(self):
        with pytest.raises(ValueError):
            unidirectional_ring(1)

    def test_bidirectional_ring_structure(self):
        topo = bidirectional_ring(5)
        assert topo.edge_count == 10
        for node in range(5):
            assert set(topo.successors(node)) == {(node + 1) % 5, (node - 1) % 5}
        assert topo.is_strongly_connected()

    def test_bidirectional_ring_port_convention(self):
        # Franklin's algorithm relies on port 0 = clockwise, port 1 = counter.
        topo = bidirectional_ring(4)
        for node in range(4):
            assert topo.successors(node)[0] == (node + 1) % 4
            assert topo.successors(node)[1] == (node - 1) % 4


class TestOtherShapes:
    def test_line_topology(self):
        topo = line_topology(4)
        assert topo.edge_count == 6
        assert topo.out_degree(0) == 1
        assert topo.out_degree(1) == 2
        assert topo.is_strongly_connected()

    def test_star_topology(self):
        topo = star_topology(5, centre=0)
        assert topo.out_degree(0) == 4
        assert all(topo.out_degree(i) == 1 for i in range(1, 5))
        assert topo.is_strongly_connected()
        with pytest.raises(ValueError):
            star_topology(5, centre=9)

    def test_complete_graph(self):
        topo = complete_graph(4)
        assert topo.edge_count == 12
        assert all(topo.out_degree(i) == 3 for i in range(4))

    def test_tree_topology(self):
        topo = tree_topology(7, branching=2)
        assert topo.edge_count == 12  # 6 undirected links
        assert topo.is_strongly_connected()
        assert set(topo.successors(0)) == {1, 2}

    def test_grid_topology(self):
        topo = grid_topology(2, 3)
        assert topo.n == 6
        assert topo.is_strongly_connected()
        # Corner has 2 neighbours, middle edge nodes have 3.
        assert topo.out_degree(0) == 2
        assert topo.out_degree(1) == 3

    def test_torus_wraps(self):
        torus = grid_topology(3, 3, wrap=True)
        assert all(torus.out_degree(i) == 4 for i in range(9))

    def test_invalid_sizes(self):
        for builder in (line_topology, star_topology, complete_graph, tree_topology):
            with pytest.raises(ValueError):
                builder(1)
        with pytest.raises(ValueError):
            grid_topology(1, 1)


def _edge_digest(topologies):
    return hashlib.sha256(repr([topo.edges for topo in topologies]).encode()).hexdigest()


# SHA-256 of repr([edges for seeds 0, 9, 17]) per (n, edge_probability),
# recorded from the networkx 3.6 implementation (``gnp_random_graph`` plus
# ``is_connected``) that random_connected replaced; p = 0 is the fallback.
GNP_DIGESTS = {
    (2, 0): "ced5450b7d3b004c2bfb7e98746c6a0c098da20118884b8031dd931ae614865e",
    (2, 0.05): "ced5450b7d3b004c2bfb7e98746c6a0c098da20118884b8031dd931ae614865e",
    (2, 0.3): "ced5450b7d3b004c2bfb7e98746c6a0c098da20118884b8031dd931ae614865e",
    (2, 1): "ced5450b7d3b004c2bfb7e98746c6a0c098da20118884b8031dd931ae614865e",
    (5, 0): "b53a2b12ed157568e0f9d6fdef9204c936d1b14b08c394c4348320323257a29c",
    (5, 0.05): "6db66917c0ee340bcd2246aeace9a00c294e9a16fd51763b25d0bdcc1f0202dc",
    (5, 0.3): "ff53a1f8c3326db4554105bdd4875ac23b322ea5b3fc74f799eb8ef61478b86c",
    (5, 1): "aabd13c915536353f7744274f2fabf2054e8f4455d653eaa350cf8837acb5973",
    (10, 0): "361546c8459d2e486fc3e8a0646c21dbf7cf8aded7b9e6f190f419001f380a3b",
    (10, 0.05): "dc6509b5c1da07c9f7090223f6e670ade55bfe46f492a20127e20950aaa47f6c",
    (10, 0.3): "5243e24c254e5c926e01b49768edf42ed63512a799aa0307970067af1282dde5",
    (10, 1): "ba7ac7f4bc6d304501829372f61c6a5753b85206a00571f44c2f59f0d5ab632d",
    (16, 0): "33bb66d8f382fbf2600ef1594293273e6ffc88024f1de1bac18769826b11a99f",
    (16, 0.05): "b60ccf56dc0c021a007166d172c530d010f88a55f63a6dda4281be6a98c23b1d",
    (16, 0.3): "1e72366954dccfa12cc2f5dcf70e96303be7cc039b12fc747dd1bd99b5a22295",
    (16, 1): "3b5d182fdfe8fda2478b5611d8d08eeeadbb74caeb51b2cec92405cea9a2bc0e",
    (24, 0): "f18896c6bd72df88c1790b51aa904715f957f217052891ff2ff839a8a1a1ff01",
    (24, 0.05): "35f16fe4476284e1f6f6a507ac83abf931e14a74edd2d1f50509227462843a92",
    (24, 0.3): "7ae0eb8abd81da02d236829f85a5fadbf44be2a143d747f0275483a5741b09ef",
    (24, 1): "c3843d495d6d23d01441e47546f5757e8319a84612a3595ba87ae4fb5f23c970",
}

# The random graphs of E5's default battery: random_connected(n, 0.3, 55 + n).
E5_GNP_DIGESTS = {
    8: "e892dde0919c64bc738692cdb69994b6e980d4df8e533230744e5bb861d08301",
    16: "ba04191f72a81e965c9bc3622c84730b635253fdfe3b270736b0b3608347915b",
    32: "2d3e5c3f2ac4cbbfea4f1a567babb3773e0d68f1d4bf507a3172335ecdce51c8",
}


class TestRandomGraphs:
    @pytest.mark.parametrize("n_and_p", sorted(GNP_DIGESTS))
    def test_edges_match_the_recorded_samples(self, n_and_p):
        n, p = n_and_p
        samples = [random_connected(n, p, seed) for seed in (0, 9, 17)]
        assert _edge_digest(samples) == GNP_DIGESTS[n_and_p]
        assert all(topo.is_strongly_connected() for topo in samples)

    @pytest.mark.parametrize("n", sorted(E5_GNP_DIGESTS))
    def test_e5_graphs_match_the_recorded_samples(self, n):
        assert _edge_digest([random_connected(n, 0.3, 55 + n)]) == E5_GNP_DIGESTS[n]

    def test_complete_and_fallback_edge_sets(self):
        assert sorted(random_connected(4, 1.0, seed=3).edges) == sorted(complete_graph(4).edges)
        # p = 0 never connects, so the fallback path 0 - 1 - 2 - 3 is all there is.
        assert random_connected(4, 0.0, seed=3).edges == [
            (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2),
        ]

    def test_random_connected_is_connected_and_bidirectional(self):
        topo = random_connected(12, edge_probability=0.3, seed=5)
        assert topo.n == 12
        assert topo.is_strongly_connected()
        edge_set = set(topo.edges)
        assert all((v, u) in edge_set for (u, v) in edge_set)

    def test_random_connected_reproducible(self):
        a = random_connected(10, 0.3, seed=7)
        b = random_connected(10, 0.3, seed=7)
        assert a.edges == b.edges

    def test_random_connected_sparse_fallback_still_connected(self):
        topo = random_connected(10, edge_probability=0.01, seed=3)
        assert topo.is_strongly_connected()

    def test_random_connected_validation(self):
        with pytest.raises(ValueError):
            random_connected(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            random_connected(5, 1.5, seed=0)
