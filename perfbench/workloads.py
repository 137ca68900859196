"""The two benchmark workloads.

Every workload runs the same three phases through the program's public
entry points:

1. **set-up**, repeated ``SETUP_REPS`` times: generate node positions,
   build the network (centrally or with the distributed §5 pipeline),
   start the engine or the routing service and warm it up, up to the
   first answered query;
2. **timed phase**: whole rounds, each a movement step and a batch of
   queries, until ``--seconds`` have passed;
3. **movement steps**: from moved node positions to an engine that answers
   on the new topology.

Outputs are kept and checked with :mod:`checks` after the timed phase; time
spent checking is outside every metric.  With tracing on, spans are taken
around each call into a layer, and a layer probe after the timed phase
times the routing layers one by one on a sample of the workload's pairs.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import resource
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.spatial import cKDTree

from repro import (
    QueryEngine,
    build_abstraction,
    build_ldel,
    chew_route,
    find_holes,
    perturbed_grid_scenario,
    run_distributed_setup,
    unit_disk_graph,
)
from repro.graphs import is_connected
from repro.protocols.incremental import run_incremental_update
from repro.protocols.verification import verify_setup
from repro.routing.engine import abstraction_digest
from repro.scenarios import MobilityModel
from repro.scenarios.generators import InfeasibleScenario
from repro.service import (
    InstanceRegistry,
    RoutingService,
    outcome_payload,
)
from repro.simulation.tracing import TraceRecorder

import checks
from tracing import Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Share of nodes that move in one step, and their top speed.
MOVE_FRACTION = 0.15
MOVE_SPEED = 0.04
#: On distributed-setup only the nodes this close to the centre of the
#: instance's last carved hole move, so the other rings stay clean and the
#: incremental update reuses them.
LOCAL_RADIUS = 2.0
#: Incremental-update tolerance: the documented exact mode, in which a ring
#: is reused only if none of its members moved, so every hull stays the
#: convex hull of its boundary.
EXACT = 0.0
#: Pairs the layer probe times one by one in the traced run.
PROBE_PAIRS = 8

#: Scenario seed of every workload's instance (E1 uses seed 1 too).
INSTANCE_SEED = 1
#: The E1 instance: n=449, 2 carved holes.
E1 = dict(width=12.0, height=12.0, hole_count=2, hole_scale=2.0)
#: n≈3×10³ with 6 carved holes.
MEDIUM = dict(width=31.0, height=31.0, hole_count=6, hole_scale=2.2)

#: Stages of the distributed set-up, in pipeline order.
SETUP_STAGES = (
    "ldel",
    "boundary",
    "ring_doubling",
    "ring_ranking",
    "ring_hulls",
    "outer_doubling",
    "outer_ranking",
    "outer_hulls",
    "tree",
    "hull_distribution",
    "dominating_set",
)

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("update_ms", "ms"),
    ("stretch_mean", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("scenarios.generate_ms", "ms"),
    ("graphs.udg_ms", "ms"),
    ("graphs.ldel_ms", "ms"),
    ("graphs.faces_ms", "ms"),
    ("core.abstraction_ms", "ms"),
    ("graphs.dijkstra_ms", "ms"),
    ("routing.locate_ms", "ms"),
    ("routing.chew_ms", "ms"),
    ("routing.route_cold_ms", "ms"),
    ("routing.chew_legs", "count"),
    ("routing.replans", "count"),
    ("routing.visible_ratio", "ratio"),
    ("routing.engine_bind_ms", "ms"),
    ("routing.route_warm_us", "us"),
    ("routing.result_hit_ratio", "ratio"),
    ("routing.dijkstra_hit_ratio", "ratio"),
    ("routing.rebind_ms", "ms"),
    ("routing.cache_survived", "count"),
    ("routing.cache_evicted", "count"),
    ("service.payload_ms", "ms"),
    ("service.request_ms", "ms"),
    ("service.server_p50_ms", "ms"),
    ("service.route_batches", "count"),
    ("service.mean_batch_pairs", "count"),
    ("service.queue_peak", "count"),
    ("service.fast_path_hits", "count"),
    *((f"protocols.stage_ms.{s}", "ms") for s in SETUP_STAGES),
    *((f"protocols.stage_rounds.{s}", "rounds") for s in SETUP_STAGES),
    ("protocols.setup_rounds", "rounds"),
    ("protocols.setup_messages", "messages"),
    ("protocols.incremental_ms", "ms"),
    ("protocols.rings_recomputed", "count"),
    ("protocols.rings_reused", "count"),
    ("simulation.adhoc_messages", "messages"),
    ("simulation.longrange_messages", "messages"),
    ("simulation.max_words_per_node", "words"),
)

# -- shared pieces -------------------------------------------------------------
@dataclass
class Topology:
    """One built network state and the engine-facing pieces of it."""

    points: np.ndarray
    udg: dict
    graph: Any
    abstraction: Any


@dataclass
class Ledger:
    """Operations attempted and failed, and the outputs kept for checking."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: topology index -> payloads answered on it (untimed checks read these)
    answers: dict[int, list[dict]] = field(default_factory=dict)
    #: served responses: (topology index, pair, status, raw body)
    bodies: list[tuple[int, tuple[int, int], int, bytes]] = field(default_factory=list)
    topologies: list[Topology] = field(default_factory=list)

    def keep(self, topo_index: int, payload: dict) -> None:
        self.answers.setdefault(topo_index, []).append(payload)

    def fail(self, count: int, messages: Sequence[str]) -> None:
        self.failed += count
        self.problems.extend(messages[: max(0, 20 - len(self.problems))])


@dataclass
class Run:
    """What one workload run measured."""

    ledger: Ledger
    metrics: dict[str, float]
    layers: dict[str, float]
    meta: dict[str, Any]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def pick_instance(params: dict) -> tuple[int, Any]:
    """First scenario seed from ``INSTANCE_SEED`` on whose UDG is connected,
    and its scenario.

    Each workload keeps one fixed instance; ``--seed`` draws the queries
    and the movement, so runs with different seeds measure the same
    network under different traffic.
    """
    for attempt in range(32):
        candidate = INSTANCE_SEED + attempt
        try:
            sc = perturbed_grid_scenario(**params, seed=candidate)
        except InfeasibleScenario:
            continue
        if is_connected(unit_disk_graph(sc.points)):
            return candidate, sc
    raise RuntimeError(f"no connected instance from scenario seed {INSTANCE_SEED}")


def motion_seed(seed: int) -> int:
    """Mobility seed drawn from the run's ``--seed``."""
    return int(np.random.default_rng([seed, 99]).integers(1 << 31))


def generate(params: dict, inst_seed: int, tracer: Tracer):
    with tracer.span("scenarios.generate"):
        return perturbed_grid_scenario(**params, seed=inst_seed)


def construct(points: np.ndarray, tracer: Tracer) -> Topology:
    """Centralised construction: UDG, LDel², holes, abstraction."""
    with tracer.span("graphs.udg"):
        udg = unit_disk_graph(points)
    with tracer.span("graphs.ldel"):
        graph = build_ldel(points, udg=udg)
    with tracer.span("graphs.faces"):
        holes = find_holes(graph)
    with tracer.span("core.abstraction"):
        abstraction = build_abstraction(graph, holes)
    return Topology(points, udg, graph, abstraction)


def bind_engine(topo: Topology, tracer: Tracer) -> QueryEngine:
    with tracer.span("routing.engine_bind"):
        return QueryEngine(topo.abstraction, "hull", udg=topo.udg)


def answer(engine: QueryEngine, s: int, t: int, tracer: Tracer, qid: int) -> dict:
    """One query: the route, its optimal distance and stretch."""
    with tracer.span("query", qid):
        with tracer.span("routing.route", qid):
            outcome = engine.route(s, t)
        with tracer.span("routing.optimal", qid):
            optimal = engine.optimal(s, t)
        with tracer.span("query.payload", qid):
            return outcome_payload(outcome, engine.abstraction.points, optimal)


class Pairs:
    """Query pairs drawn from the seed at a fixed spread of distances.

    A batch of ``count`` pairs puts its s–t distances at the ``count``
    midpoints of ``[0, reach]``, ``reach`` being 60% of the region's
    shorter side; sources and directions come from the seed.  Routing work
    grows with distance, so fixing the distance mix keeps the work per
    batch alike from seed to seed.
    """

    def __init__(
        self,
        sc: Any,
        rng: np.random.Generator,
        *,
        exclude: Sequence[tuple[int, int]] = (),
    ) -> None:
        self.points = sc.points
        self.box = np.array([sc.width, sc.height])
        self.reach = 0.6 * float(self.box.min())
        self.tree = cKDTree(self.points)
        self.rng = rng
        self.seen = set(exclude)

    def _target(self, s: int, distance: float) -> int:
        for _ in range(32):
            angle = self.rng.uniform(0.0, 2.0 * math.pi)
            spot = self.points[s] + distance * np.array([math.cos(angle), math.sin(angle)])
            if (spot >= 0).all() and (spot <= self.box).all():
                break
        spot = np.clip(spot, 0.0, self.box)
        _, (first, second) = self.tree.query(spot, k=2)
        return int(second if first == s else first)

    def batch(self, count: int) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for j in range(count):
            distance = (j + 0.5) / count * self.reach
            while True:
                s = int(self.rng.integers(len(self.points)))
                pair = (s, self._target(s, distance))
                if pair not in self.seen:
                    break
            self.seen.add(pair)
            out.append(pair)
        return out


def fixed_pair(sc: Any) -> tuple[int, int]:
    """The set-up's warm-up query: the same pair whatever the seed."""
    tree = cKDTree(sc.points)
    _, s = tree.query([0.25 * sc.width, 0.25 * sc.height])
    _, t = tree.query([0.75 * sc.width, 0.75 * sc.height])
    return int(s), int(t)


def quiet() -> None:
    """Collect garbage, then freeze what survives.

    Frozen objects are skipped by every later collection, so a collection
    that lands in a timed region scans only what that region allocated,
    not the whole instance built before it.
    """
    gc.collect()
    gc.freeze()


def latency_metrics(latencies: Sequence[float], busy: float, tail: float) -> dict:
    return {
        "throughput_qps": len(latencies) / busy,
        "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
        "latency_tail_ms": percentile(latencies, tail) * 1e3,
    }


def spread_of(latencies: Sequence[float]) -> dict[str, float]:
    """A few latency percentiles for the run metadata."""
    return {f"p{q:g}": percentile(latencies, q) * 1e3 for q in (75, 90, 95, 99)}


def stretch_mean(ledger: Ledger) -> float:
    values = [
        p["stretch"]
        for answers in ledger.answers.values()
        for p in answers
        if p["delivered"] and p["stretch"] is not None
    ]
    return statistics.fmean(values)


def check_ledger(ledger: Ledger) -> None:
    """Topology and per-query checks over everything the run kept.

    A topology that fails fails every query answered on it.
    """
    for index, topo in enumerate(ledger.topologies):
        ref = checks.ReferenceGraph.build(topo.points)
        answers = ledger.answers.get(index, [])
        topo_bad = checks.check_topology(ref, topo.graph, topo.abstraction)
        if topo_bad:
            ledger.fail(len(answers), [f"topology {index}: {m}" for m in topo_bad])
            continue
        for bad in checks.check_queries(ref, topo.graph.adjacency, answers):
            if bad:
                ledger.fail(1, bad)


class Oracle:
    """A cache-less engine on one topology and the bodies it gives."""

    def __init__(self, topo: Topology) -> None:
        self.engine = QueryEngine(topo.abstraction, "hull", udg=topo.udg, caching=False)
        self.digest = abstraction_digest(topo.abstraction)
        self.points = topo.points

    def body(self, s: int, t: int) -> bytes:
        """The ``/v1/route`` body for ``(s, t)``, encoded as the service does."""
        envelope = {
            "instance": self.digest,
            "mode": "hull",
            "results": [
                outcome_payload(
                    self.engine.route(s, t), self.points, self.engine.optimal(s, t)
                )
            ],
        }
        return json.dumps(envelope, sort_keys=True).encode("utf-8")


def check_bodies(ledger: Ledger) -> None:
    """Served bodies against a cache-less engine, byte for byte.

    Each body that passes hands its result row to the per-query checks.
    """
    oracles: dict[int, Oracle] = {}
    expected: dict[tuple[int, tuple[int, int]], bytes] = {}
    for index, pair, status, raw in ledger.bodies:
        key = (index, pair)
        if key not in expected:
            if index not in oracles:
                oracles[index] = Oracle(ledger.topologies[index])
            expected[key] = oracles[index].body(*pair)
        bad = [f"{pair}: status {status}"] if status != 200 else []
        bad = bad or checks.check_body(raw, expected[key])
        if bad:
            ledger.fail(1, bad)
        else:
            ledger.keep(index, json.loads(raw)["results"][0])


def probe_layers(
    topo: Topology, pairs: Sequence[tuple[int, int]], tracer: Tracer
) -> None:
    """Time the routing layers one call at a time (traced run only).

    ``PROBE_PAIRS`` pairs spread evenly over ``pairs`` are probed.

    Every call here goes to a cache-less engine, so each one pays the
    layer's full cost; the warm route is timed on a caching engine after
    one priming call.
    """
    if not tracer.enabled:
        return
    cold = QueryEngine(topo.abstraction, "hull", udg=topo.udg, caching=False)
    warm = bind_engine(topo, tracer)
    points = topo.points
    step = max(1, len(pairs) // PROBE_PAIRS)
    for s, t in list(pairs)[::step][:PROBE_PAIRS]:
        with tracer.span("routing.locate"):
            cold.locate(s)
        with tracer.span("routing.chew"):
            chew_route(topo.graph, s, t)
        with tracer.span("routing.route_cold"):
            outcome = cold.route(s, t)
        with tracer.span("graphs.dijkstra"):
            optimal = cold.optimal(s, t)
        with tracer.span("service.payload"):
            json.dumps(outcome_payload(outcome, points, optimal), sort_keys=True)
        warm.route(s, t)
        with tracer.span("routing.route_warm"):
            warm.route(s, t)
        tracer.count("probe.queries")
        tracer.count("probe.chew_legs", outcome.chew_legs)
        tracer.count("probe.replans", outcome.replans)
        tracer.count("probe.visible", outcome.case == "visible")


def engine_layers(snapshot: dict, rebinds: Sequence[dict]) -> dict[str, float]:
    """Cache ratios from an ``EngineStats`` snapshot and flush records."""

    def ratio(name: str) -> float:
        row = snapshot["cache"].get(name, {"hits": 0, "misses": 0})
        total = row["hits"] + row["misses"]
        return row["hits"] / total if total else 0.0

    survived = [
        sum(c["survived"] for c in r["caches"].values()) for r in rebinds if r
    ]
    evicted = [sum(c["evicted"] for c in r["caches"].values()) for r in rebinds if r]
    return {
        "routing.result_hit_ratio": ratio("route_result"),
        "routing.dijkstra_hit_ratio": ratio("dijkstra"),
        "routing.cache_survived": statistics.fmean(survived) if survived else 0.0,
        "routing.cache_evicted": statistics.fmean(evicted) if evicted else 0.0,
    }


def span_layers(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures read off the traced run's spans and counts."""
    selfs = tracer.self_times()

    def med(name: str, scale: float = 1e3) -> float:
        values = selfs.get(name)
        return statistics.median(values) * scale if values else 0.0

    queries = tracer.counts.get("probe.queries", 0)

    def per_query(key: str) -> float:
        return tracer.counts[key] / queries if queries else 0.0

    return {
        "scenarios.generate_ms": med("scenarios.generate"),
        "graphs.udg_ms": med("graphs.udg"),
        "graphs.ldel_ms": med("graphs.ldel"),
        "graphs.faces_ms": med("graphs.faces"),
        "core.abstraction_ms": med("core.abstraction"),
        "graphs.dijkstra_ms": med("graphs.dijkstra"),
        "routing.locate_ms": med("routing.locate"),
        "routing.chew_ms": med("routing.chew"),
        "routing.route_cold_ms": med("routing.route_cold"),
        "routing.chew_legs": per_query("probe.chew_legs"),
        "routing.replans": per_query("probe.replans"),
        "routing.visible_ratio": per_query("probe.visible"),
        "routing.engine_bind_ms": med("routing.engine_bind"),
        "routing.route_warm_us": med("routing.route_warm", 1e6),
        "routing.rebind_ms": med("routing.rebind"),
        "service.request_ms": med("service.request"),
        "service.payload_ms": med("service.payload"),
        "protocols.incremental_ms": med("protocols.incremental"),
    }


# -- query fronts --------------------------------------------------------------
class EngineFront:
    """Queries answered by one caching ``QueryEngine`` in this thread."""

    def __init__(self, topo: Topology, ledger: Ledger, tracer: Tracer) -> None:
        self.ledger = ledger
        self.tracer = tracer
        self.engine = bind_engine(topo, tracer)

    def ask(self, s: int, t: int, qid: int, topo_index: int) -> None:
        self.ledger.keep(topo_index, answer(self.engine, s, t, self.tracer, qid))

    def rebind(self, topo: Topology) -> dict:
        with self.tracer.span("routing.rebind"):
            self.engine.rebind(topo.abstraction, udg=topo.udg)
        return self.engine.stats.last_flush

    def snapshot(self) -> dict:
        return self.engine.stats.snapshot()

    @staticmethod
    def layers(snapshot: dict, rebinds: Sequence[dict]) -> dict[str, float]:
        return engine_layers(snapshot, rebinds)

    def close(self) -> None:
        pass


class ServiceFront:
    """Queries sent to a ``RoutingService`` in this process.

    Every request goes through ``RoutingService.handle`` (contracts,
    instance registry, batching worker) and its response is encoded as the
    HTTP transport encodes it; only the socket is left out.  Rebinds go
    through ``InstanceRegistry.rebind``, serialized with the queries.
    """

    def __init__(self, topo: Topology, ledger: Ledger, tracer: Tracer) -> None:
        self.ledger = ledger
        self.tracer = tracer
        self.loop = asyncio.Runner()
        self.registry = InstanceRegistry()
        with tracer.span("routing.engine_bind"):
            self.registry.register(topo.abstraction, udg=topo.udg)
        self.service = RoutingService(self.registry)

    def ask(self, s: int, t: int, qid: int, topo_index: int) -> None:
        request = {"source": s, "target": t}
        with self.tracer.span("service.request", qid):
            status, body = self.loop.run(self.service.handle("POST", "/v1/route", request))
            raw = json.dumps(body, sort_keys=True).encode("utf-8")
        self.ledger.bodies.append((topo_index, (s, t), status, raw))

    def rebind(self, topo: Topology) -> dict:
        with self.tracer.span("routing.rebind"):
            record = self.loop.run(self.registry.rebind(None, topo.abstraction, topo.udg))
        return record["flush"]

    def snapshot(self) -> dict:
        _, body = self.loop.run(self.service.handle("GET", "/metrics"))
        return body

    @staticmethod
    def layers(snapshot: dict, rebinds: Sequence[dict]) -> dict[str, float]:
        (row,) = snapshot["instances"].values()
        worker = row["worker"]
        return {
            **engine_layers(row["engine"], rebinds),
            "service.server_p50_ms": snapshot["service"]["latency"]["p50_ms"],
            "service.route_batches": worker["route_batches"],
            "service.mean_batch_pairs": worker["mean_batch_pairs"],
            "service.queue_peak": worker["queue_peak"],
            "service.fast_path_hits": worker["fast_path"],
        }

    def close(self) -> None:
        self.loop.run(self.service.shutdown())
        self.loop.close()


class LocalMobility(MobilityModel):
    """Bounded-speed drift of the nodes that start within ``LOCAL_RADIUS``
    of the centre of the instance's last carved hole; the rest stand still.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        centre = np.asarray(self.scenario.hole_polygons[-1], dtype=float).mean(axis=0)
        self.movable = np.hypot(*(self.scenario.points - centre).T) <= LOCAL_RADIUS

    def _propose(self, scale: float, mask: np.ndarray | None = None) -> np.ndarray:
        mask = self.movable if mask is None else mask & self.movable
        return super()._propose(scale, mask)


# -- workloads -----------------------------------------------------------------
@dataclass
class InProcess:
    """Shape of one workload."""

    params: dict
    #: queries per round of the timed phase
    round_queries: int
    #: rounds attempted at least, however long they take
    min_rounds: int
    #: percentile reported as ``latency_tail_ms``
    tail: float
    distributed: bool = False
    #: what answers the queries
    front: type = EngineFront
    mobility: type = MobilityModel


#: churn-move's latencies bend sharply upward between p70 and p80 (the
#: queries whose routes take several Chew legs), and p75 sits on that bend:
#: which side of it a run lands on swung p75 by a third between seeds.
CHURN_MOVE = InProcess(MEDIUM, round_queries=40, min_rounds=5, tail=70.0)
DISTRIBUTED = InProcess(
    E1,
    round_queries=48,
    min_rounds=6,
    tail=75.0,
    distributed=True,
    front=ServiceFront,
    mobility=LocalMobility,
)


def _in_process(
    shape: InProcess, seed: int, seconds: int, tracer: Tracer, tag: int
) -> Run:
    ledger = Ledger()
    inst_seed, sc = pick_instance(shape.params)
    rng = np.random.default_rng([seed, tag])
    warm = [fixed_pair(sc)]
    pairs_of = Pairs(sc, rng, exclude=warm)
    setup_times = []
    setup_result = None
    front = None
    qid = 0

    def build(points: np.ndarray) -> tuple[Topology, Any]:
        if not shape.distributed:
            return construct(points, tracer), None
        with tracer.span("protocols.setup"):
            result = run_distributed_setup(
                points, seed=inst_seed, trace=StageSpans() if tracer.enabled else None
            )
        graph = result.abstraction.graph
        return Topology(points, graph.udg, graph, result.abstraction), result

    asked: list[tuple[int, int]] = []
    for rep in range(SETUP_REPS):
        if front is not None:
            front.close()
        quiet()
        started = time.perf_counter()
        sc = generate(shape.params, inst_seed, tracer)
        topo, setup_result = build(sc.points)
        front = shape.front(topo, ledger, tracer)
        for s, t in warm:
            front.ask(s, t, -1, 0)
        setup_times.append(time.perf_counter() - started)
        ledger.attempted += len(warm)
    assert front is not None
    ledger.topologies.append(topo)
    asked.extend(warm)
    initial = setup_result

    model = shape.mobility(sc, speed=MOVE_SPEED, seed=motion_seed(seed))
    rebinds: list[dict] = []
    update_times: list[float] = []
    incremental: list[Any] = []

    def move() -> None:
        """One movement step: rebuild (or update), then rebind."""
        pts = model.step(MOVE_FRACTION).copy()
        started = time.perf_counter()
        if shape.distributed:
            with tracer.span("protocols.incremental"):
                result = run_incremental_update(
                    initial, pts, seed=inst_seed, tolerance=EXACT
                )
            graph = result.abstraction.graph
            moved = Topology(pts, graph.udg, graph, result.abstraction)
            incremental.append(result)
        else:
            moved = construct(pts, tracer)
        rebinds.append(front.rebind(moved))
        update_times.append(time.perf_counter() - started)
        ledger.topologies.append(moved)
        ledger.attempted += 1

    latencies: list[float] = []
    busy = 0.0
    rounds = 0
    quiet()
    phase_start = time.perf_counter()
    while rounds < shape.min_rounds or time.perf_counter() - phase_start < seconds:
        move()
        # A quarter of each batch repeats pairs of the previous batch.
        recent = asked[-shape.round_queries :]
        repeats = min(shape.round_queries // 4, len(recent))
        picks = rng.choice(len(recent), size=repeats, replace=False)
        pairs = [recent[i] for i in picks]
        fresh = pairs_of.batch(shape.round_queries - repeats)
        asked.extend(fresh)
        pairs += fresh
        topo_index = len(ledger.topologies) - 1
        for s, t in pairs:
            qid += 1
            started = time.perf_counter()
            front.ask(s, t, qid, topo_index)
            elapsed = time.perf_counter() - started
            latencies.append(elapsed)
            busy += elapsed
            ledger.attempted += 1
        rounds += 1
    rss = peak_rss_mb()
    snapshot = front.snapshot()
    front.close()

    # -- checks (untimed) ------------------------------------------------------
    if initial is not None:
        report = verify_setup(initial)
        if not report.ok:
            ledger.fail(SETUP_REPS, [f"verify_setup: {p}" for p in report.problems])
    check_bodies(ledger)
    check_ledger(ledger)

    metrics = {
        "setup_s": statistics.median(setup_times),
        **latency_metrics(latencies, busy, shape.tail),
        "update_ms": statistics.median(update_times) * 1e3,
        "stretch_mean": stretch_mean(ledger),
        "peak_rss_mb": rss,
    }
    layers = {}
    if tracer.enabled:
        probe_layers(ledger.topologies[0], asked, tracer)
        layers = {**span_layers(tracer), **shape.front.layers(snapshot, rebinds)}
        if initial is not None:
            layers.update(protocol_layers(initial, incremental))
    meta = {
        "instance_seed": inst_seed,
        "n": len(sc.points),
        "queries": len(latencies),
        "rounds": rounds,
        "movement_steps": len(update_times),
        "tail_percentile": shape.tail,
        "percentiles_ms": spread_of(latencies),
    }
    return Run(ledger, metrics, layers, meta)


class StageSpans(TraceRecorder):
    """Keeps the set-up's per-stage wall-clock spans and drops its events.

    Recording every protocol event costs several times the set-up itself;
    the stage spans are all the per-layer figures need.
    """

    def emit(self, etype, round_no=0, stage=None, **data):  # type: ignore[override]
        return None


def protocol_layers(setup: Any, incremental: Sequence[Any]) -> dict[str, float]:
    """Per-stage set-up figures plus simulator message counts."""
    out: dict[str, float] = {}
    spans = setup.trace.span_report() if setup.trace is not None else {}
    for stage in SETUP_STAGES:
        out[f"protocols.stage_ms.{stage}"] = spans.get(stage, {}).get("seconds", 0.0) * 1e3
        out[f"protocols.stage_rounds.{stage}"] = float(
            setup.stage_metrics.get(stage, {}).get("rounds", 0)
        )
    summary = setup.metrics.summary()
    out["protocols.setup_rounds"] = float(setup.total_rounds)
    out["protocols.setup_messages"] = float(
        summary["adhoc_messages"] + summary["long_range_messages"]
    )
    out["simulation.adhoc_messages"] = float(summary["adhoc_messages"])
    out["simulation.longrange_messages"] = float(summary["long_range_messages"])
    out["simulation.max_words_per_node"] = float(summary["max_words_per_node"])
    if incremental:
        out["protocols.rings_recomputed"] = statistics.fmean(
            r.rings_recomputed for r in incremental
        )
        out["protocols.rings_reused"] = statistics.fmean(r.rings_reused for r in incremental)
    return out


def churn_move(seed: int, seconds: int, tracer: Tracer, cpus: list[int]) -> Run:
    """n≈3×10³, 6 holes; each round is a movement step plus a query batch."""
    return _in_process(CHURN_MOVE, seed, seconds, tracer, tag=3)


def distributed_setup(seed: int, seconds: int, tracer: Tracer, cpus: list[int]) -> Run:
    """E1 built by the distributed §5 pipeline, updated incrementally."""
    return _in_process(DISTRIBUTED, seed, seconds, tracer, tag=4)


WORKLOADS: dict[str, Callable[[int, int, Tracer, list[int]], Run]] = {
    "churn-move": churn_move,
    "distributed-setup": distributed_setup,
}


def layer_metrics(layers: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``(value, unit)``; layers the workload never
    called read 0."""
    return {name: (float(layers.get(name, 0.0)), unit) for name, unit in PER_LAYER}


def guard(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value}")
    return value
