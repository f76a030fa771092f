"""Seeded inputs: the same seed gives byte-identical files."""

import pytest

from perfbench import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_bytes(name, tmp_path):
    first = workloads.build(name, 7, tmp_path / "a")
    second = workloads.build(name, 7, tmp_path / "b")
    assert sorted(first.files) == sorted(second.files)
    for fname in first.files:
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
    assert [r.label for r in first.requests] == [r.label for r in second.requests]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_inputs(name, tmp_path):
    a = workloads.build(name, 7, tmp_path / "a")
    b = workloads.build(name, 8, tmp_path / "b")
    assert (a.files, [r.label for r in a.requests]) != (b.files, [r.label for r in b.requests])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_at_least_100_requests_per_pass(name, tmp_path):
    assert len(workloads.build(name, 7, tmp_path).requests) >= 100
