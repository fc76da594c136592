"""Hierarchical zone routing: a tree of NetZones with pluggable strategies.

Flat per-pair route tables are O(hosts²) once fully touched, which caps
platforms at a few thousand hosts.  This module provides SimGrid-style
nested *routing zones* instead: the platform is a tree of
:class:`NetZone` objects, each routing between its own *vertices* (the
hosts/routers declared directly in it, plus its child zones) with a
pluggable strategy:

* ``"Full"``     — every vertex pair needs an explicit route (an ordered
  list of link names), O(1) lookup, O(V²) declaration;
* ``"Dijkstra"`` — routes are computed on demand by Dijkstra over the
  zone's graph edges (explicit routes still win), O(E log V) per query,
  nothing precomputed (a route into a leaf stops at its neighbour);
* ``"Floyd"``    — the all-pairs next-hop table is precomputed lazily at
  first query (and invalidated if the zone is modified), O(1) amortized
  lookup.  The table is built by running the *same* deterministic
  Dijkstra from every source vertex, so ``"Floyd"`` and ``"Dijkstra"``
  produce bit-identical routes by construction.

An end-to-end route between two hosts is the concatenation of intra-zone
segments up and down the zone tree: the route climbs from the source to
the common-ancestor zone (crossing each zone's *gateway*), crosses the
ancestor zone between the two child-zone vertices, and descends to the
destination.  A zone represented as a vertex in its parent's graph is
entered and left through its gateway node, so transiting a zone
contributes only the links of the parent-level edges that reach it.

A flat platform is simply one root zone holding every host — the legacy
:class:`~repro.platform.platform.Platform` API (``add_host`` /
``connect`` / ``add_route`` without a zone) targets the root zone and
behaves exactly as before.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import NoRouteError, PlatformError

__all__ = ["LRUCache", "NetZone", "ROUTING_STRATEGIES"]


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Replaces the unbounded ``(src, dst)`` route memos: route resolution
    stays O(touched) in memory no matter how many pairs a long-running
    simulation eventually communicates across.  ``maxsize=None`` disables
    the bound (an ordinary dict with LRU bookkeeping).
    """

    __slots__ = ("maxsize", "_data", "hits", "misses", "evictions")

    def __init__(self, maxsize: Optional[int] = 16384) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("LRUCache maxsize must be >= 1 (or None)")
        self.maxsize = maxsize
        self._data: "OrderedDict" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        """Return the cached value or ``None``, refreshing recency."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if self.maxsize is not None and len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def stats(self) -> Dict[str, int]:
        """Cache counters (observable contract of the routing subsystem)."""
        return {"size": len(self._data), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}


# ----------------------------------------------------------------------------------
# intra-zone routing strategies
# ----------------------------------------------------------------------------------

def _dijkstra_prev(zone: "NetZone", src: str,
                   dst: Optional[str] = None) -> Dict[str, Tuple[str, str]]:
    """Deterministic Dijkstra over a zone's vertex graph.

    Returns the predecessor map ``vertex -> (parent_vertex, link_name)``.
    Weight is link latency plus a tiny epsilon so hop count breaks ties;
    vertices are settled in heap order with an insertion counter, and
    improvements must beat the incumbent by more than 1e-15 — the exact
    algorithm the flat platform has used since the seed, so moving it here
    changes no route.  When ``dst`` is given the search stops as soon as
    it is settled (the predecessor chain of a settled vertex is final).
    """
    links = zone.platform.links
    dist: Dict[str, float] = {src: 0.0}
    prev: Dict[str, Tuple[str, str]] = {}
    heap: List[Tuple[float, int, str]] = [(0.0, 0, src)]
    counter = 1
    visited = set()
    while heap:
        d, _, vertex = heapq.heappop(heap)
        if vertex in visited:
            continue
        visited.add(vertex)
        if dst is not None and vertex == dst:
            break
        for neighbour, link_name in zone.adjacency.get(vertex, []):
            weight = links[link_name].latency + 1e-9
            nd = d + weight
            if neighbour not in dist or nd < dist[neighbour] - 1e-15:
                dist[neighbour] = nd
                prev[neighbour] = (vertex, link_name)
                heapq.heappush(heap, (nd, counter, neighbour))
                counter += 1
    return prev


def _reconstruct(prev: Dict[str, Tuple[str, str]], src: str,
                 dst: str) -> Optional[List[str]]:
    """Link names along the predecessor chain, or None when unreachable."""
    if dst not in prev:
        return None
    path: List[str] = []
    vertex = dst
    while vertex != src:
        parent, link_name = prev[vertex]
        path.append(link_name)
        vertex = parent
    path.reverse()
    return path


class _Strategy:
    """Base intra-zone strategy: resolve a route between two zone vertices."""

    name = "abstract"

    def __init__(self, zone: "NetZone") -> None:
        self.zone = zone

    def route(self, src: str, dst: str) -> List[str]:
        raise NotImplementedError

    def _explicit(self, src: str, dst: str) -> Optional[List[str]]:
        spec = self.zone.routes.get((src, dst))
        if spec is not None:
            return list(spec.links)
        return None

    def _no_route(self, src: str, dst: str) -> NoRouteError:
        return NoRouteError(
            f"no route from {src!r} to {dst!r} in zone {self.zone.name!r}")


class FullRouting(_Strategy):
    """Every vertex pair must have an explicit route (SimGrid ``Full``)."""

    name = "Full"

    def route(self, src: str, dst: str) -> List[str]:
        links = self._explicit(src, dst)
        if links is None:
            raise self._no_route(src, dst)
        return links


class DijkstraRouting(_Strategy):
    """Shortest path on demand; explicit routes take precedence.

    This is the legacy flat-platform behaviour, so it is the default
    strategy of the root zone.

    Resolved ``(src, dst)`` pairs are memoized (and dropped when the zone
    is modified, same invalidation as Floyd's sealed trees): a zone vertex
    that many routes funnel through — a gateway in a star site — would
    otherwise re-run its Dijkstra, relaxing every adjacent edge, once per
    *end-to-end pair* instead of once per segment.  The memo holds paths,
    not trees, so memory stays O(distinct queried pairs), each O(path).

    A *leaf* destination (one adjacency entry ``(nbr, link)``) is peeled:
    its route is the search to ``nbr`` plus ``link``.  This is exact: the
    leaf's predecessor is written only when ``nbr`` settles, and a settled
    chain never changes (weights are > 0).  A host→host route in a star
    site then settles two vertices instead of relaxing the whole hub.
    """

    name = "Dijkstra"

    def __init__(self, zone: "NetZone") -> None:
        super().__init__(zone)
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}
        self._cached_version = -1

    def route(self, src: str, dst: str) -> List[str]:
        links = self._explicit(src, dst)
        if links is not None:
            return links
        if self._cached_version != self.zone.version:
            self._path_cache.clear()
            self._cached_version = self.zone.version
        # Only the search to the leaf's neighbour is memoized; an explicit
        # route on (src, nbr) is ignored, like on any inner segment.
        target, tail = dst, []
        edges = self.zone.adjacency.get(dst, ())
        if len(edges) == 1:
            target, link_name = edges[0]
            tail = [link_name]
            if target == src:
                return tail
        path = self._path_cache.get((src, target))
        if path is None:
            if src not in self.zone.adjacency:
                raise self._no_route(src, dst)
            path = _reconstruct(_dijkstra_prev(self.zone, src, target),
                                src, target)
            if path is None:
                raise self._no_route(src, dst)
            self._path_cache[(src, target)] = path
        return path + tail


class FloydRouting(_Strategy):
    """Precomputed all-pairs routing (SimGrid ``Floyd``).

    The predecessor map of each *source* is sealed at its first query (and
    dropped when the zone is modified) by running the shared deterministic
    Dijkstra — same weights, same tie-breaking — so the resolved routes
    are identical to :class:`DijkstraRouting` on the same zone, with
    O(path) lookups after the per-source O(E log V) seal.  Sealing source
    by source instead of all at once keeps a 10⁵-host platform O(touched):
    only the sources that actually route pay for their tree.
    """

    name = "Floyd"

    def __init__(self, zone: "NetZone") -> None:
        super().__init__(zone)
        self._prev_by_src: Dict[str, Dict[str, Tuple[str, str]]] = {}
        self._sealed_version = -1

    def route(self, src: str, dst: str) -> List[str]:
        links = self._explicit(src, dst)
        if links is not None:
            return links
        if self._sealed_version != self.zone.version:
            self._prev_by_src.clear()
            self._sealed_version = self.zone.version
        prev = self._prev_by_src.get(src)
        if prev is None:
            if src not in self.zone.adjacency:
                raise self._no_route(src, dst)
            prev = self._prev_by_src[src] = _dijkstra_prev(self.zone, src)
        path = _reconstruct(prev, src, dst)
        if path is None:
            raise self._no_route(src, dst)
        return path


ROUTING_STRATEGIES = {
    "Full": FullRouting,
    "Dijkstra": DijkstraRouting,
    "Floyd": FloydRouting,
}


# ----------------------------------------------------------------------------------
# the zone tree
# ----------------------------------------------------------------------------------

class NetZone:
    """One routing zone: a set of vertices routed by one strategy.

    A vertex is either a host/router declared directly in this zone or a
    child zone (represented in this zone's graph by its name; physically
    entered and left through its *gateway* node).  Zones are created via
    :meth:`repro.platform.platform.Platform.add_zone` (or
    :meth:`add_zone` on a parent zone) — the platform always has a root
    zone that the flat, zone-less API targets.
    """

    def __init__(self, platform, name: str, parent: Optional["NetZone"],
                 routing: str = "Dijkstra",
                 gateway: Optional[str] = None) -> None:
        try:
            strategy_cls = ROUTING_STRATEGIES[routing]
        except KeyError:
            raise PlatformError(
                f"unknown routing strategy {routing!r}; pick one of "
                f"{sorted(ROUTING_STRATEGIES)}") from None
        self.platform = platform
        self.name = name
        self.parent = parent
        self.children: Dict[str, "NetZone"] = {}
        #: Names of the hosts/routers declared directly in this zone.
        self.nodes: Dict[str, None] = {}
        #: Explicit vertex-pair routes (RouteSpec objects, like the flat API).
        self.routes: Dict[Tuple[str, str], object] = {}
        #: Graph edges: vertex -> list of (vertex, link name).
        self.adjacency: Dict[str, List[Tuple[str, str]]] = {}
        self.routing = routing
        self.strategy: _Strategy = strategy_cls(self)
        self._gateway = gateway
        #: Bumped on every mutation; lets precomputed strategies re-seal.
        self.version = 0
        if parent is not None:
            parent.children[name] = self

    # -- construction (delegates to the platform for global bookkeeping) ---------------
    def add_zone(self, name: str, routing: str = "Dijkstra",
                 gateway: Optional[str] = None) -> "NetZone":
        """Create a child zone."""
        return self.platform.add_zone(name, routing=routing, parent=self,
                                      gateway=gateway)

    def add_host(self, name: str, speed: float, **kwargs):
        """Declare a host inside this zone (see ``Platform.add_host``)."""
        return self.platform.add_host(name, speed, zone=self, **kwargs)

    def add_router(self, name: str) -> str:
        """Declare a router inside this zone."""
        return self.platform.add_router(name, zone=self)

    def add_link(self, name: str, bandwidth: float, latency: float = 0.0,
                 **kwargs):
        """Declare a link (links are platform-global; convenience alias)."""
        return self.platform.add_link(name, bandwidth, latency, **kwargs)

    def connect(self, vertex_a: str, vertex_b: str, link_name: str) -> None:
        """Declare a graph edge between two vertices of this zone.

        A vertex naming a child zone attaches the link at that zone's
        gateway; this is how inter-zone (gateway) links are wired.
        """
        self._check_vertex(vertex_a)
        self._check_vertex(vertex_b)
        if link_name not in self.platform.links:
            raise PlatformError(f"unknown link {link_name!r}")
        self.adjacency.setdefault(vertex_a, []).append((vertex_b, link_name))
        self.adjacency.setdefault(vertex_b, []).append((vertex_a, link_name))
        self.version += 1

    def add_route(self, src: str, dst: str, links: Sequence[str],
                  symmetric: bool = True):
        """Declare an explicit route between two vertices of this zone."""
        from repro.platform.platform import RouteSpec
        self._check_vertex(src)
        self._check_vertex(dst)
        for link in links:
            if link not in self.platform.links:
                raise PlatformError(
                    f"route {src}->{dst}: unknown link {link!r}")
        spec = RouteSpec(src, dst, list(links), symmetric)
        self.routes[(src, dst)] = spec
        if symmetric:
            self.routes.setdefault(
                (dst, src), RouteSpec(dst, src, list(reversed(links)),
                                      symmetric))
        self.version += 1
        return spec

    def set_gateway(self, node_name: str) -> None:
        """Name the node through which routes enter and leave this zone."""
        self._gateway = node_name
        self.version += 1

    # -- introspection -----------------------------------------------------------------
    def vertices(self) -> List[str]:
        """This zone's vertices: direct nodes then child zones, in order."""
        return list(self.nodes) + list(self.children)

    @property
    def gateway(self) -> str:
        """The gateway *node* of this zone, descending into child zones.

        Defaults to the first host/router of the zone subtree (in
        declaration order) when none was set explicitly.
        """
        if self._gateway is not None:
            # The gateway may itself name a child zone: descend to a node.
            child = self.children.get(self._gateway)
            if child is not None:
                return child.gateway
            return self._gateway
        if self.nodes:
            return next(iter(self.nodes))
        for child in self.children.values():
            try:
                return child.gateway
            except PlatformError:
                continue
        raise PlatformError(f"zone {self.name!r} has no gateway "
                            "(it contains no host or router)")

    def ancestry(self) -> List["NetZone"]:
        """Zones from the root down to (and including) this zone."""
        chain: List[NetZone] = []
        zone: Optional[NetZone] = self
        while zone is not None:
            chain.append(zone)
            zone = zone.parent
        chain.reverse()
        return chain

    def iter_subtree(self) -> Iterable["NetZone"]:
        """This zone and every descendant, depth-first."""
        yield self
        for child in self.children.values():
            yield from child.iter_subtree()

    def _check_vertex(self, name: str) -> None:
        if name not in self.nodes and name not in self.children:
            raise PlatformError(
                f"{name!r} is not a vertex of zone {self.name!r} "
                "(declare the node in this zone, or name a child zone)")

    def local_route(self, src: str, dst: str) -> List[str]:
        """Resolve a route between two *vertices* of this zone."""
        if src == dst:
            return []
        return self.strategy.route(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NetZone(name={self.name!r}, routing={self.routing!r}, "
                f"nodes={len(self.nodes)}, children={len(self.children)})")


def resolve_route(platform, src: str, dst: str) -> List[str]:
    """End-to-end route between two nodes across the zone tree.

    The route is the concatenation of intra-zone segments: climb from
    ``src`` to the lowest common ancestor zone (each crossed zone is
    entered/left through its gateway), cross the ancestor between the two
    child-side vertices, descend to ``dst``.  For a flat platform (every
    node in the root zone) this collapses to one ``local_route`` call —
    the legacy behaviour.
    """
    if src == dst:
        return []
    zone_src: NetZone = platform._node_zone[src]
    zone_dst: NetZone = platform._node_zone[dst]
    if zone_src is zone_dst:
        return zone_src.local_route(src, dst)

    chain_src = zone_src.ancestry()
    chain_dst = zone_dst.ancestry()
    depth = 0
    while (depth < len(chain_src) and depth < len(chain_dst)
           and chain_src[depth] is chain_dst[depth]):
        depth += 1
    if depth == 0:
        raise NoRouteError(f"no route from {src!r} to {dst!r}: "
                           "the nodes live in unrelated zone trees")
    ancestor = chain_src[depth - 1]
    # The vertex representing each endpoint inside the ancestor zone: the
    # node itself when declared directly there, else the child zone on its
    # side of the tree.
    if zone_src is ancestor:
        vertex_src, descend_src = src, None
    else:
        descend_src = chain_src[depth]
        vertex_src = descend_src.name
    if zone_dst is ancestor:
        vertex_dst, descend_dst = dst, None
    else:
        descend_dst = chain_dst[depth]
        vertex_dst = descend_dst.name

    route: List[str] = []
    if descend_src is not None:
        gateway = descend_src.gateway
        if gateway != src:
            route.extend(resolve_route(platform, src, gateway))
    route.extend(ancestor.local_route(vertex_src, vertex_dst))
    if descend_dst is not None:
        gateway = descend_dst.gateway
        if gateway != dst:
            route.extend(resolve_route(platform, gateway, dst))
    return route
