"""Unit tests for the shared-memory model."""

import pytest

from repro.errors import SimMemoryError
from repro.sim.memory import SharedMemory, region_of


class TestBasicAccess:
    def test_load_initial_value(self):
        mem = SharedMemory({"x": 7})
        assert mem.load("x") == 7

    def test_store_then_load(self):
        mem = SharedMemory()
        mem.store("x", 1)
        assert mem.load("x") == 1

    def test_store_overwrites(self):
        mem = SharedMemory({"x": 1})
        mem.store("x", 2)
        assert mem.load("x") == 2

    def test_load_missing_address_raises(self):
        mem = SharedMemory()
        with pytest.raises(SimMemoryError, match="never allocated"):
            mem.load("ghost")

    def test_tuple_addresses(self):
        mem = SharedMemory()
        mem.store(("buf", 0), "a")
        mem.store(("buf", 1), "b")
        assert mem.load(("buf", 1)) == "b"
        assert len(mem) == 2

    def test_contains(self):
        mem = SharedMemory({"x": 1})
        assert "x" in mem
        assert "y" not in mem

    def test_addresses_iterates_in_insertion_order(self):
        mem = SharedMemory()
        mem.store("b", 1)
        mem.store("a", 2)
        assert list(mem.addresses()) == ["b", "a"]


class TestAtomics:
    def test_rmw_returns_old_value(self):
        mem = SharedMemory({"n": 5})
        old = mem.rmw("n", lambda v: v + 1)
        assert old == 5
        assert mem.load("n") == 6

    def test_rmw_on_missing_address_raises(self):
        mem = SharedMemory()
        with pytest.raises(SimMemoryError):
            mem.rmw("n", lambda v: v + 1)

    def test_cas_success(self):
        mem = SharedMemory({"n": 5})
        assert mem.cas("n", 5, 9) is True
        assert mem.load("n") == 9

    def test_cas_failure_leaves_value(self):
        mem = SharedMemory({"n": 5})
        assert mem.cas("n", 4, 9) is False
        assert mem.load("n") == 5


class TestFree:
    def test_free_scalar(self):
        mem = SharedMemory({"x": 1})
        victims = mem.free("x")
        assert victims == ("x",)
        assert "x" not in mem

    def test_free_region_by_name(self):
        mem = SharedMemory({("buf", 0): "a", ("buf", 1): "b", "other": 1})
        victims = mem.free("buf")
        assert set(victims) == {("buf", 0), ("buf", 1)}
        assert "other" in mem

    def test_free_exact_tuple_only_frees_that_cell(self):
        mem = SharedMemory({("buf", 0): "a", ("buf", 1): "b"})
        mem.free(("buf", 0))
        assert ("buf", 1) in mem
        assert ("buf", 0) not in mem

    def test_use_after_free_diagnosed(self):
        mem = SharedMemory({"x": 1})
        mem.free("x")
        with pytest.raises(SimMemoryError, match="use after free"):
            mem.load("x")

    def test_use_after_region_free_diagnosed(self):
        mem = SharedMemory({("buf", 0): "a"})
        mem.free("buf")
        with pytest.raises(SimMemoryError, match="use after free"):
            mem.load(("buf", 0))

    def test_store_to_freed_address_crashes(self):
        mem = SharedMemory({"x": 1})
        mem.free("x")
        with pytest.raises(SimMemoryError, match="use after free"):
            mem.store("x", 2)

    def test_store_to_freed_region_cell_crashes(self):
        mem = SharedMemory({("buf", 0): "a"})
        mem.free("buf")
        with pytest.raises(SimMemoryError, match="use after free"):
            mem.store(("buf", 7), "new")

    def test_double_free_diagnosed(self):
        mem = SharedMemory({"x": 1})
        mem.free("x")
        with pytest.raises(SimMemoryError, match="double free"):
            mem.free("x")

    def test_free_unallocated_diagnosed(self):
        mem = SharedMemory()
        with pytest.raises(SimMemoryError, match="unallocated"):
            mem.free("never")

    def test_was_freed(self):
        mem = SharedMemory({("q", 1): "x"})
        assert not mem.was_freed(("q", 1))
        mem.free("q")
        assert mem.was_freed(("q", 1))
        assert mem.was_freed(("q", 99))  # whole region poisoned


class TestSnapshot:
    def test_snapshot_is_a_copy(self):
        mem = SharedMemory({"x": 1})
        snap = mem.snapshot()
        mem.store("x", 2)
        assert snap == {"x": 1}


class TestAddressHelpers:
    def test_region_of_tuple(self):
        assert region_of(("buf", 3)) == "buf"

    def test_region_of_scalar_is_itself(self):
        assert region_of("x") == "x"
