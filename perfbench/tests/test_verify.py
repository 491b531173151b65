"""The checker accepts true bisections and flags wrong cuts and bad balance."""

from perfbench.verify import Reference, min_imbalance

# A 6-cycle 0-1-2-3-4-5-0; {0, 1, 2} vs {3, 4, 5} cuts edges 2-3 and 5-0.
CYCLE = Reference([(i, (i + 1) % 6, 1) for i in range(6)], {i: 1 for i in range(6)})


def test_true_bisection_passes():
    assert CYCLE.check({0, 1, 2}, 2) is None


def test_corrupted_cut_is_flagged():
    assert "reported cut 1" in CYCLE.check({0, 1, 2}, 1)


def test_unbalanced_split_is_flagged():
    assert "imbalance 2" in CYCLE.check({0, 1}, 2)


def test_tolerance_follows_vertex_weights():
    assert min_imbalance([1, 1, 1]) == 1
    assert min_imbalance([2, 2, 1, 1]) == 0
    assert min_imbalance([3, 1]) == 2


def test_tokens_from_engine_and_service():
    assert CYCLE.check_tokens(["int:0", "int:1", "int:2"], 2) is None
    assert "unknown vertex token" in CYCLE.check_tokens(["str:0"], 2)
    assert CYCLE.check_tokens([], 0) == "no side-0 vertices returned"


def test_partition_file(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("# repro partition k=2\n0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n")
    assert CYCLE.check_partition_file(path, 2) is None
    assert "reported cut 3" in CYCLE.check_partition_file(path, 3)
    path.write_text("# repro partition k=2\n0 0\n1 0\n2 0\n3 1\n4 1\n")
    assert "covers 5 of 6" in CYCLE.check_partition_file(path, 2)
    path.write_text("0 0\n")
    assert "header" in CYCLE.check_partition_file(path, 0)
