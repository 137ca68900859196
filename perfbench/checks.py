"""Independent correctness checks shared by every workload.

Each check is computed apart from the program (with scipy) or tests a
property the method must have.  Every check returns a list of violation
messages; an empty list means the output passed.  None of them compares
against a saved copy of earlier output.

* the UDG equals the one ``scipy.spatial.cKDTree`` finds;
* every ``scipy.spatial.Delaunay`` edge no longer than the radius is an
  LDel² edge, and every LDel² edge is a UDG edge;
* each hole's hull corners equal ``scipy.spatial.ConvexHull`` of its
  boundary points;
* every optimal distance equals ``scipy.sparse.csgraph.dijkstra`` on the
  independent UDG;
* every path starts at s, ends at t and steps only over LDel² edges;
* every UDG-connected pair is delivered;
* queries with both terminals outside every hull (cases ``visible`` and
  ``1``) keep stretch within the Overlay-Delaunay bound;
* every served body equals, byte for byte, a cache-less engine's payload.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra
from scipy.spatial import ConvexHull, Delaunay, cKDTree

#: The paper's competitive ratio with the Overlay Delaunay graph.
OVERLAY_DELAUNAY_BOUND = 35.37
#: Tolerance on optimal distances.
DISTANCE_TOL = 1e-9
#: Pairs whose distance is this close to the radius may fall either way
#: under the program's floating-point slack; the UDG check ignores them.
RADIUS_BAND = 1e-9
#: Cases the stretch bound applies to: both terminals outside every hull.
BOUNDED_CASES = ("visible", "1")

Edge = tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def adjacency_edges(adjacency: Mapping[int, Iterable[int]]) -> set[Edge]:
    """Undirected edge set of an adjacency dict."""
    return {_edge(int(u), int(v)) for u, nbrs in adjacency.items() for v in nbrs if u != v}


@dataclass
class ReferenceGraph:
    """The unit disk graph computed with scipy, apart from the program."""

    points: np.ndarray
    radius: float
    edges: set[Edge]
    #: pairs within ``RADIUS_BAND`` of the radius (either answer is right)
    ambiguous: set[Edge]
    matrix: Any

    @classmethod
    def build(cls, points: np.ndarray, radius: float = 1.0) -> "ReferenceGraph":
        pts = np.asarray(points, dtype=float)
        tree = cKDTree(pts)
        inner = {_edge(int(a), int(b)) for a, b in tree.query_pairs(radius - RADIUS_BAND)}
        outer = {_edge(int(a), int(b)) for a, b in tree.query_pairs(radius + RADIUS_BAND)}
        exact = {_edge(int(a), int(b)) for a, b in tree.query_pairs(radius)}
        n = len(pts)
        if exact:
            u, v = np.array(sorted(exact)).T
            w = np.hypot(*(pts[u] - pts[v]).T)
            matrix = csr_matrix((w, (u, v)), shape=(n, n))
        else:
            matrix = csr_matrix((n, n))
        return cls(pts, radius, exact, outer - inner, matrix)

    def distances(self, sources: Sequence[int]) -> dict[int, np.ndarray]:
        """Shortest-path distance rows from each source (inf if unreachable)."""
        unique = sorted({int(s) for s in sources})
        if not unique:
            return {}
        rows = csgraph_dijkstra(self.matrix, directed=False, indices=unique)
        return {s: rows[i] for i, s in enumerate(unique)}


def check_udg(ref: ReferenceGraph, udg: Mapping[int, Iterable[int]]) -> list[str]:
    """The program's UDG equals the cKDTree one (up to the radius band)."""
    got = adjacency_edges(udg)
    missing = ref.edges - got - ref.ambiguous
    extra = got - ref.edges - ref.ambiguous
    out = []
    if missing:
        out.append(f"UDG misses {len(missing)} edge(s), e.g. {sorted(missing)[:3]}")
    if extra:
        out.append(f"UDG has {len(extra)} extra edge(s), e.g. {sorted(extra)[:3]}")
    return out


def check_ldel(ref: ReferenceGraph, ldel: Mapping[int, Iterable[int]]) -> list[str]:
    """Short Delaunay edges are LDel² edges; LDel² edges are UDG edges."""
    pts = ref.points
    got = adjacency_edges(ldel)
    tri = Delaunay(pts)
    short: set[Edge] = set()
    for simplex in tri.simplices:
        for a, b in ((0, 1), (1, 2), (0, 2)):
            u, v = int(simplex[a]), int(simplex[b])
            if math.dist(pts[u], pts[v]) <= ref.radius - RADIUS_BAND:
                short.add(_edge(u, v))
    out = []
    missing = short - got
    if missing:
        out.append(
            f"{len(missing)} short Delaunay edge(s) missing from LDel2, "
            f"e.g. {sorted(missing)[:3]}"
        )
    not_udg = got - ref.edges - ref.ambiguous
    if not_udg:
        out.append(f"{len(not_udg)} LDel2 edge(s) are not UDG edges, e.g. {sorted(not_udg)[:3]}")
    return out


def check_hulls(points: np.ndarray, holes: Iterable[Any]) -> list[str]:
    """Each hole's hull corners equal scipy's convex hull of its boundary."""
    pts = np.asarray(points, dtype=float)
    out = []
    for hole in holes:
        ring = sorted(set(int(v) for v in hole.boundary))
        expected = {ring[i] for i in ConvexHull(pts[ring]).vertices}
        got = set(int(v) for v in hole.hull)
        if got != expected or len(hole.hull) != len(expected):
            out.append(
                f"hole {hole.hole_id}: hull corners {sorted(got)} != "
                f"ConvexHull {sorted(expected)}"
            )
    return out


def check_queries(
    ref: ReferenceGraph,
    ldel: Mapping[int, Iterable[int]],
    payloads: Sequence[Mapping[str, Any]],
) -> list[list[str]]:
    """Per-query violations for route payloads answered on one topology.

    A payload is the service's result row (``outcome_payload``): source,
    target, path, case, delivered and optimal.
    """
    edges = adjacency_edges(ldel)
    dist = ref.distances([p["source"] for p in payloads])
    pts = ref.points
    results = []
    for p in payloads:
        s, t, path = int(p["source"]), int(p["target"]), [int(v) for v in p["path"]]
        true = float(dist[s][t])
        bad = []
        reported = p["optimal"]
        if math.isinf(true):
            if reported is not None:
                bad.append(f"({s},{t}) optimal {reported} but t is unreachable")
        elif reported is None or abs(float(reported) - true) > DISTANCE_TOL:
            bad.append(f"({s},{t}) optimal {reported} != csgraph {true!r}")
        if not path or path[0] != s or path[-1] != t:
            bad.append(f"({s},{t}) path runs {path[:1]}..{path[-1:]}")
        hops = [_edge(a, b) for a, b in zip(path, path[1:]) if a != b]
        off = [e for e in hops if e not in edges]
        if off:
            bad.append(f"({s},{t}) {len(off)} hop(s) off LDel2, e.g. {off[0]}")
        if math.isfinite(true) and not p["delivered"]:
            bad.append(f"({s},{t}) connected pair not delivered")
        if p["case"] in BOUNDED_CASES and math.isfinite(true) and true > 0:
            length = sum(math.dist(pts[a], pts[b]) for a, b in zip(path, path[1:]))
            if length / true > OVERLAY_DELAUNAY_BOUND:
                bad.append(
                    f"({s},{t}) case {p['case']} stretch {length / true:.3f} "
                    f"> {OVERLAY_DELAUNAY_BOUND}"
                )
        results.append(bad)
    return results


def check_topology(ref: ReferenceGraph, graph: Any, abstraction: Any) -> list[str]:
    """UDG, LDel² and hull checks for one built topology."""
    return (
        check_udg(ref, graph.udg)
        + check_ldel(ref, graph.adjacency)
        + check_hulls(ref.points, abstraction.holes)
    )


def check_body(body: bytes, expected: bytes) -> list[str]:
    """A served 200 body equals the cache-less payload byte for byte."""
    if body == expected:
        return []
    at = next(
        (i for i, (a, b) in enumerate(zip(body, expected)) if a != b),
        min(len(body), len(expected)),
    )
    return [f"served body differs from the cache-less payload at byte {at}"]

