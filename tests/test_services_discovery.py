"""Unit tests for hierarchy-walking resource discovery."""

import numpy as np
import pytest

from repro import Cluster, TreePConfig
from repro.services.discovery import Aggregate, Constraint, ResourceDirectory
from repro.workloads import grid_cluster_mix


@pytest.fixture(scope="module")
def grid():
    return _grid(13, 256, server_fraction=0.15)


def _grid(seed, n, server_fraction):
    """A grid-mix overlay and its directory, attached through `Cluster`."""
    rng = np.random.default_rng(seed)
    cluster = (Cluster(config=TreePConfig.paper_case2(), seed=seed)
               .build(n, capacities=grid_cluster_mix(
                   n, rng, server_fraction=server_fraction))
               .with_discovery())
    return cluster.net, cluster.directory


def test_requires_built_network():
    cluster = Cluster(seed=0)
    with pytest.raises(RuntimeError):
        cluster.with_discovery()
    with pytest.raises(RuntimeError):  # the service's own guard
        cluster.add_service(ResourceDirectory())


def test_constraint_admits():
    from repro.core.capacity import NodeCapacity
    cap = NodeCapacity(cpu=8, memory_gb=16, bandwidth_mbps=100, cpu_load=0.2)
    assert Constraint(min_cpu=4, min_memory_gb=8).admits(cap)
    assert not Constraint(min_cpu=16).admits(cap)
    assert not Constraint(max_cpu_load=0.1).admits(cap)


def test_aggregate_fold():
    from repro.core.capacity import NodeCapacity
    agg = Aggregate()
    agg.fold(NodeCapacity(cpu=4, cpu_load=0.5))
    agg.fold(NodeCapacity(cpu=16, cpu_load=0.9))
    assert agg.max_cpu == 16
    assert agg.min_cpu_load == 0.5
    assert agg.might_admit(Constraint(min_cpu=10))
    assert not agg.might_admit(Constraint(min_cpu=32))


def test_matches_satisfy_constraint(grid):
    net, directory = grid
    c = Constraint(min_cpu=16, min_memory_gb=32)
    res = directory.query(c, max_results=8)
    assert res.matches, "grid mix must contain servers"
    for m in res.matches:
        assert c.admits(net.capacities[m])


def test_max_results_respected(grid):
    net, directory = grid
    res = directory.query(Constraint(min_cpu=2), max_results=3)
    assert len(res.matches) <= 3


def test_max_results_validation(grid):
    _, directory = grid
    with pytest.raises(ValueError):
        directory.query(Constraint(), max_results=0)


def test_impossible_constraint_empty(grid):
    net, directory = grid
    res = directory.query(Constraint(min_cpu=10_000))
    assert res.matches == ()
    assert res.subtrees_pruned > 0  # aggregates pruned everything


def test_hops_logarithmic(grid):
    net, directory = grid
    res = directory.query(Constraint(min_cpu=16), max_results=2)
    assert res.hops <= 6 * (net.height + 1)


def test_query_from_any_origin(grid):
    net, directory = grid
    c = Constraint(min_cpu=16)
    for origin in (net.ids[0], net.ids[-1]):
        res = directory.query(c, origin=origin, max_results=2)
        assert res.matches


def test_refresh_after_failures(grid):
    net, directory = _grid(14, 128, server_fraction=0.2)
    c = Constraint(min_cpu=16)
    before = directory.query(c, max_results=32).matches
    net.fail_nodes(before)  # kill every matching server
    directory.refresh()
    after = directory.query(c, max_results=32).matches
    assert set(after).isdisjoint(before)
    for m in after:
        assert net.network.is_up(m)


def test_aggregate_of_accessor(grid):
    net, directory = grid
    layout = net.layout
    p = layout.levels[1][0]
    agg = directory.aggregate_of(p, 1)
    assert agg is not None and agg.max_cpu >= net.capacities[p].cpu * 0 + 1
