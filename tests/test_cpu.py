"""Unit tests for CPU topology."""

import pytest

from repro.sim.cpu import Topology


class TestBasics:
    def test_logical_count_no_smt(self):
        assert Topology(n_physical=8).n_logical == 8

    def test_logical_count_smt2(self):
        assert Topology(n_physical=16, smt=2).n_logical == 32

    def test_all_cpus(self):
        assert Topology(n_physical=2, smt=2).all_cpus() == (0, 1, 2, 3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            Topology(n_physical=0)
        with pytest.raises(ValueError):
            Topology(n_physical=4, smt=3)
        with pytest.raises(ValueError):
            Topology(n_physical=4, numa_nodes=3)

    def test_rejects_out_of_range_reserved(self):
        with pytest.raises(ValueError):
            Topology(n_physical=4, reserved_cpus=frozenset({9}))


class TestSiblings:
    def test_no_smt_has_no_sibling(self):
        topo = Topology(n_physical=4)
        assert topo.sibling(0) is None

    def test_smt_sibling_pairs(self):
        topo = Topology(n_physical=4, smt=2)
        assert topo.sibling(0) == 4
        assert topo.sibling(4) == 0
        assert topo.sibling(3) == 7

    def test_physical_core_mapping(self):
        topo = Topology(n_physical=4, smt=2)
        assert topo.physical_core(0) == 0
        assert topo.physical_core(5) == 1

    def test_primary_cpus(self):
        topo = Topology(n_physical=4, smt=2)
        assert topo.primary_cpus() == (0, 1, 2, 3)

    def test_cpu_range_checked(self):
        topo = Topology(n_physical=4)
        with pytest.raises(ValueError):
            topo.sibling(4)


class TestReserved:
    def test_user_cpus_excludes_reserved(self):
        topo = Topology(n_physical=6, reserved_cpus=frozenset({4, 5}))
        assert topo.user_cpus() == (0, 1, 2, 3)

    def test_all_cpus_includes_reserved(self):
        topo = Topology(n_physical=6, reserved_cpus=frozenset({4, 5}))
        assert len(topo.all_cpus()) == 6


class TestNuma:
    def test_node_of_cpu(self):
        topo = Topology(n_physical=8, numa_nodes=2)
        assert topo.numa_node(0) == 0
        assert topo.numa_node(4) == 1

    def test_numa_with_smt(self):
        topo = Topology(n_physical=4, smt=2, numa_nodes=2)
        # sibling lives in the same node as its physical core
        assert topo.numa_node(4) == topo.numa_node(0)
