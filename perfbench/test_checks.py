"""Each independent check accepts the program's real output and rejects a
deliberately corrupted copy of it.

Run with ``python3 -m pytest perfbench -q`` from the root of the checkout.
"""

from __future__ import annotations

import asyncio
import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.scenarios import perturbed_grid_scenario  # noqa: E402
from repro.service import InstanceRegistry, RoutingService, ServiceClient  # noqa: E402
from tracing import Tracer  # noqa: E402

PAIRS = [(0, 60), (5, 140), (33, 101), (77, 12)]


@pytest.fixture(scope="module")
def topo():
    sc = perturbed_grid_scenario(width=8.0, height=8.0, hole_count=1, hole_scale=2.0, seed=2)
    return workloads.construct(sc.points, Tracer(enabled=False))


@pytest.fixture(scope="module")
def ref(topo):
    return checks.ReferenceGraph.build(topo.points)


@pytest.fixture(scope="module")
def payloads(topo):
    engine = workloads.bind_engine(topo, Tracer(enabled=False))
    return [workloads.answer(engine, s, t, Tracer(enabled=False), i) for i, (s, t) in enumerate(PAIRS)]


def test_real_topology_passes(ref, topo):
    assert checks.check_topology(ref, topo.graph, topo.abstraction) == []


def test_real_queries_pass(ref, topo, payloads):
    assert checks.check_queries(ref, topo.graph.adjacency, payloads) == [[]] * len(PAIRS)


def test_hop_off_ldel_is_rejected(ref, topo, payloads):
    bad = copy.deepcopy(payloads[0])
    s, t = bad["source"], bad["target"]
    ldel = checks.adjacency_edges(topo.graph.adjacency)
    detour = next(
        v for v in range(len(topo.points))
        if v not in (s, t) and checks._edge(s, v) not in ldel
    )
    bad["path"] = [s, detour] + bad["path"][1:]
    (problems,) = checks.check_queries(ref, topo.graph.adjacency, [bad])
    assert any("off LDel2" in p for p in problems)


def test_optimal_off_by_1e6_is_rejected(ref, topo, payloads):
    bad = copy.deepcopy(payloads[1])
    bad["optimal"] += 1e-6
    (problems,) = checks.check_queries(ref, topo.graph.adjacency, [bad])
    assert any("csgraph" in p for p in problems)


def test_undelivered_connected_pair_is_rejected(ref, topo, payloads):
    bad = copy.deepcopy(payloads[2])
    bad["delivered"] = False
    (problems,) = checks.check_queries(ref, topo.graph.adjacency, [bad])
    assert any("not delivered" in p for p in problems)


def test_hull_missing_a_corner_is_rejected(topo):
    holes = copy.deepcopy(topo.abstraction.holes)
    victim = next(h for h in holes if len(h.hull) > 3)
    victim.hull = victim.hull[:-1]
    problems = checks.check_hulls(topo.points, holes)
    assert len(problems) == 1 and f"hole {victim.hole_id}" in problems[0]


def test_udg_missing_an_edge_is_rejected(ref, topo):
    udg = copy.deepcopy(topo.udg)
    u = next(u for u, nbrs in udg.items() if nbrs)
    v = udg[u].pop()
    udg[v].remove(u)
    assert checks.check_udg(ref, udg)


def _served_body(topo, pair):
    async def serve():
        registry = InstanceRegistry()
        registry.register(topo.abstraction, udg=topo.udg)
        service = RoutingService(registry)
        await service.start(port=0)
        try:
            async with ServiceClient("127.0.0.1", service.port) as client:
                status, _, raw = await client.post(
                    "/v1/route", {"source": pair[0], "target": pair[1]}
                )
        finally:
            await service.shutdown()
        return status, raw

    return asyncio.run(serve())


def test_served_body_matches_and_one_changed_byte_is_rejected(topo):
    status, raw = _served_body(topo, PAIRS[3])
    expected = workloads.Oracle(topo).body(*PAIRS[3])
    assert status == 200
    assert checks.check_body(raw, expected) == []
    at = len(raw) // 2
    corrupted = raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:]
    problems = checks.check_body(corrupted, expected)
    assert problems and f"byte {at}" in problems[0]
    assert json.loads(expected)["results"][0]["delivered"]


def test_in_process_front_serves_the_transport_bytes(topo):
    """The benchmark's in-process service calls see the HTTP body's bytes,
    and ``check_bodies`` fails a changed byte."""
    status, raw = _served_body(topo, PAIRS[3])
    ledger = workloads.Ledger(topologies=[topo])
    front = workloads.ServiceFront(topo, ledger, Tracer(enabled=False))
    try:
        front.ask(*PAIRS[3], 0, 0)
    finally:
        front.close()
    assert ledger.bodies == [(0, PAIRS[3], status, raw)]
    workloads.check_bodies(ledger)
    assert ledger.failed == 0 and len(ledger.answers[0]) == 1
    index, pair, status, raw = ledger.bodies[0]
    ledger.bodies[0] = (index, pair, status, raw.replace(b'"mode": "hull"', b'"mode": "hulL"'))
    workloads.check_bodies(ledger)
    assert ledger.failed == 1
