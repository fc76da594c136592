"""Tests for hierarchical routing zones (PR 6).

Three families of guarantees:

* **zone-vs-flat identity** — wrapping any flat topology inside a routing
  zone changes nothing: every pair of nodes resolves to the exact same
  ordered list of links.  Checked for every generator in
  :mod:`repro.platform.generators` and for the BRITE importers.
* **strategy equivalence** — ``Dijkstra`` and ``Floyd`` are two schedules
  of the same deterministic shortest-path computation, so they must
  return identical routes and produce bit-identical simulated dates.
  Cross-checked on derandomized hypothesis-generated random graphs, like
  Dijkstra's leaf peel against the plain full search.
* **bounded caches and lazy realization** — route resolution stays
  O(touched) in memory: LRU-bounded caches with observable counters, and
  ``realize(lazy=True)`` materializing only what a simulation touches.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import NoRouteError, PlatformError, TransferFailureError
from repro.platform import (
    Platform,
    load_platform,
    make_barabasi_albert_topology,
    make_client_server_lan,
    make_cluster,
    make_dumbbell,
    make_hierarchical_topology,
    make_star,
    make_two_site_grid,
    make_waxman_topology,
    make_zoned_grid,
)
from repro.platform.loader import platform_from_dict, platform_to_dict
from repro.platform import routing
from repro.platform.routing import (
    LRUCache, _dijkstra_prev, _reconstruct, resolve_route,
)
from repro.s4u import Engine, FailureInjector

FLAT_GENERATORS = [
    pytest.param(make_cluster, id="cluster"),
    pytest.param(make_star, id="star"),
    pytest.param(make_dumbbell, id="dumbbell"),
    pytest.param(make_two_site_grid, id="two-site-grid"),
    pytest.param(make_client_server_lan, id="client-server-lan"),
    pytest.param(make_waxman_topology, id="brite-waxman"),
    pytest.param(make_barabasi_albert_topology, id="brite-barabasi-albert"),
]


def all_nodes(platform):
    return list(platform.hosts) + list(platform.routers)


def wrap_in_zone(flat, routing="Dijkstra"):
    """Rebuild a flat platform with every node inside one child zone.

    Nodes, links, edges and explicit routes are replayed in their
    original declaration order, so the zone's deterministic Dijkstra sees
    the same graph in the same order as the flat root zone did.
    """
    zoned = Platform(flat.name + "-zoned")
    zone = zoned.add_zone("wrapped", routing=routing)
    for spec in flat.hosts.values():
        zone.add_host(spec.name, spec.speed, cores=spec.cores)
    for router in flat.routers:
        zone.add_router(router)
    for spec in flat.links.values():
        zoned.add_link(spec.name, spec.bandwidth, spec.latency,
                       shared=spec.shared)
    seen = set()
    for vertex, edges in flat.root_zone.adjacency.items():
        for other, link in edges:
            key = (frozenset((vertex, other)), link)
            if key not in seen:
                seen.add(key)
                zone.connect(vertex, other, link)
    for (src, dst), spec in flat.root_zone.routes.items():
        if (src, dst) == (spec.src, spec.dst):  # skip auto-added reverses
            zone.add_route(src, dst, spec.links, symmetric=False)
    return zoned


class TestZoneVsFlatIdentity:
    """Putting a topology inside a zone must not change any route."""

    @pytest.mark.parametrize("generator", FLAT_GENERATORS)
    def test_all_pairs_routes_survive_zone_wrapping(self, generator):
        flat = generator()
        zoned = wrap_in_zone(flat)
        nodes = all_nodes(flat)
        assert all_nodes(zoned) == nodes
        for src, dst in itertools.permutations(nodes, 2):
            assert zoned.route_links(src, dst) == flat.route_links(src, dst), \
                (src, dst)

    @pytest.mark.parametrize("generator", FLAT_GENERATORS)
    def test_flat_generators_stay_flat(self, generator):
        platform = generator()
        assert platform.zones == {}
        assert set(platform.root_zone.nodes) == set(all_nodes(platform))

    def test_flat_route_latency_matches_zoned(self):
        flat = make_dumbbell()
        zoned = wrap_in_zone(flat)
        for src, dst in itertools.permutations(all_nodes(flat), 2):
            assert (zoned.route_latency(src, dst)
                    == flat.route_latency(src, dst))


class TestStrategyEquivalence:
    """Dijkstra and Floyd resolve identical routes, on demand vs sealed."""

    @pytest.mark.parametrize("generator", FLAT_GENERATORS)
    def test_floyd_matches_dijkstra_on_generators(self, generator):
        flat = generator()
        dijkstra = wrap_in_zone(flat, routing="Dijkstra")
        floyd = wrap_in_zone(flat, routing="Floyd")
        for src, dst in itertools.permutations(all_nodes(flat), 2):
            assert (floyd.route_links(src, dst)
                    == dijkstra.route_links(src, dst)), (src, dst)

    def test_floyd_reseals_after_mutation(self):
        platform = Platform("reseal")
        zone = platform.add_zone("z", routing="Floyd")
        for name in ("a", "b", "c"):
            zone.add_host(name, 1e9)
        platform.add_link("ab", 1e6, 1e-3)
        platform.add_link("bc", 1e6, 1e-3)
        zone.connect("a", "b", "ab")
        zone.connect("b", "c", "bc")
        assert platform.route_links("a", "c") == ["ab", "bc"]
        # A shortcut added later must be picked up (the platform cache is
        # invalidated on mutation, and the sealed table must re-seal).
        platform.add_link("ac", 1e6, 1e-6)
        platform.connect("a", "c", "ac")
        assert platform.route_links("a", "c") == ["ac"]

    def test_full_strategy_requires_explicit_routes(self):
        platform = Platform("full")
        zone = platform.add_zone("z", routing="Full")
        zone.add_host("a", 1e9)
        zone.add_host("b", 1e9)
        zone.add_host("c", 1e9)
        platform.add_link("ab", 1e6, 1e-3)
        zone.add_route("a", "b", ["ab"])
        assert platform.route_links("a", "b") == ["ab"]
        assert platform.route_links("b", "a") == ["ab"]
        with pytest.raises(NoRouteError):
            platform.route_links("a", "c")

    def test_unknown_strategy_is_rejected(self):
        platform = Platform("bad")
        with pytest.raises(PlatformError, match="unknown routing strategy"):
            platform.add_zone("z", routing="Bellman-Ford")


def _random_graph_platform(edges, routing):
    """Platform with one zone of ``n`` hosts and the given weighted edges."""
    platform = Platform(f"fuzz-{routing}")
    zone = platform.add_zone("z", routing=routing)
    nodes = sorted({v for edge in edges for v in edge[:2]})
    for idx in nodes:
        zone.add_host(f"h{idx}", 1e9)
    for ename, (a, b, latency_us) in enumerate(edges):
        platform.add_link(f"l{ename}", 1e7, latency_us * 1e-6)
        zone.connect(f"h{a}", f"h{b}", f"l{ename}")
    return platform, [f"h{idx}" for idx in nodes]


_edge = st.tuples(st.integers(0, 7), st.integers(0, 7),
                  st.integers(1, 1000)).filter(lambda e: e[0] != e[1])


class TestDijkstraFloydFuzz:
    """Derandomized hypothesis cross-check on random weighted graphs."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(_edge, min_size=1, max_size=20))
    def test_routes_identical(self, edges):
        dijkstra, nodes = _random_graph_platform(edges, "Dijkstra")
        floyd, _ = _random_graph_platform(edges, "Floyd")
        for src, dst in itertools.permutations(nodes, 2):
            try:
                expected = dijkstra.route_links(src, dst)
            except NoRouteError:
                with pytest.raises(NoRouteError):
                    floyd.route_links(src, dst)
                continue
            assert floyd.route_links(src, dst) == expected, (src, dst)

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(st.lists(_edge, min_size=3, max_size=14))
    def test_simulated_dates_identical(self, edges):
        def run(routing):
            platform, nodes = _random_graph_platform(edges, routing)
            candidates = [(nodes[i], nodes[(i + len(nodes) // 2) % len(nodes)])
                          for i in range(min(3, len(nodes) - 1))]
            pairs = []
            for src, dst in candidates:
                try:
                    if src != dst and platform.route_links(src, dst):
                        pairs.append((src, dst))
                except NoRouteError:
                    pass            # disconnected in both variants alike
            engine = Engine(platform)

            def sender(actor, box):
                yield actor.engine.mailbox(box).put(box, size=1e6)

            def receiver(actor, box):
                yield actor.engine.mailbox(box).get()

            for idx, (src, dst) in enumerate(pairs):
                engine.add_actor(f"s{idx}", src, sender, f"f{idx}")
                engine.add_actor(f"r{idx}", dst, receiver, f"f{idx}")
            return engine.run()

        assert run("Dijkstra") == run("Floyd")


def _plain_route(zone, src, dst):
    """The unpeeled reference: explicit route, else one full early-stop
    search to ``dst`` itself."""
    spec = zone.routes.get((src, dst))
    if spec is not None:
        return list(spec.links)
    path = None
    if src in zone.adjacency:
        path = _reconstruct(_dijkstra_prev(zone, src, dst), src, dst)
    if path is None:
        raise NoRouteError(f"no route from {src!r} to {dst!r}")
    return path


def _leafy_root_zone(core_edges, leaves, explicit, children):
    """A root zone with a random core, many leaves and fixed corner cases.

    * ``core_edges`` — ``(a, b, latency_us)`` among ``c0..c5`` (latencies
      from a tiny range, so equal-latency ties are common);
    * ``leaves`` — ``(core, latency_us, parallel)``: leaf ``f<k>`` hangs
      off ``c<core>`` by one link, or by two when ``parallel`` (degree 2,
      so it is not peeled);
    * ``explicit`` — ``(src, leaf)`` pairs: an explicit route is declared
      on ``(vertex src, neighbour of leaf f<leaf>)``, which must not leak
      into ``route(src, f<leaf>)``;
    * ``children`` — a child zone per entry, a leaf of the root zone
      attached to ``c<core>``;
    * always a two-vertex component ``p0 — p1``.
    """
    platform = Platform("leafy")
    zone = platform.root_zone
    core = [f"c{i}" for i in range(6)]
    for name in core + ["p0", "p1"]:
        platform.add_host(name, 1e9)

    def wire(a, b, latency_us):
        name = f"l{len(platform.links)}"
        platform.add_link(name, 1e7, latency_us * 1e-6)
        zone.connect(a, b, name)

    for a, b, latency_us in core_edges:
        wire(core[a], core[b], latency_us)
    wire("p0", "p1", 1)
    attach = {}
    for k, (c, latency_us, parallel) in enumerate(leaves):
        leaf = f"f{k}"
        platform.add_host(leaf, 1e9)
        wire(core[c], leaf, latency_us)
        if parallel:
            wire(leaf, core[c], latency_us)
        attach[leaf] = core[c]
    for k, c in enumerate(children):
        child = platform.add_zone(f"z{k}")
        child.add_host(f"z{k}-h", 1e9)
        wire(core[c], f"z{k}", 2)
        attach[f"z{k}"] = core[c]
    vertices = zone.vertices()
    for src, leaf in explicit:
        leaf_name = f"f{leaf % len(leaves)}"
        src_name = vertices[src % len(vertices)]
        if src_name != attach[leaf_name]:
            zone.add_route(src_name, attach[leaf_name],
                           [zone.adjacency[leaf_name][0][1]],
                           symmetric=False)
    return platform, zone


_core_edge = st.tuples(st.integers(0, 5), st.integers(0, 5),
                       st.integers(1, 3)).filter(lambda e: e[0] != e[1])
_leaf = st.tuples(st.integers(0, 5), st.integers(1, 3), st.booleans())


class TestLeafPeel:
    """A route into a leaf vertex searches only up to the leaf's
    neighbour, and resolves exactly what the full search resolves."""

    @staticmethod
    def _check_all_pairs(zone):
        for src, dst in itertools.permutations(zone.vertices(), 2):
            try:
                expected = _plain_route(zone, src, dst)
            except NoRouteError:
                with pytest.raises(NoRouteError,
                                   match=f"from {src!r} to {dst!r}"):
                    zone.strategy.route(src, dst)
                continue
            assert zone.strategy.route(src, dst) == expected, (src, dst)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(_core_edge, min_size=1, max_size=10),
           st.lists(_leaf, min_size=1, max_size=8),
           st.lists(st.tuples(st.integers(0, 20), st.integers(0, 7)),
                    min_size=1, max_size=3),
           st.lists(st.integers(0, 5), min_size=1, max_size=2),
           st.tuples(st.integers(0, 30), st.integers(0, 30),
                     st.integers(1, 3)))
    def test_peeled_routes_equal_the_full_search(
            self, core_edges, leaves, explicit, children, extra_edge):
        platform, zone = _leafy_root_zone(core_edges, leaves, explicit,
                                          children)
        self._check_all_pairs(zone)
        # Mutate after the queries: the memo must be dropped (a new edge
        # can also turn a leaf into a degree-2 vertex).
        vertices = zone.vertices()
        a = vertices[extra_edge[0] % len(vertices)]
        b = vertices[extra_edge[1] % len(vertices)]
        if a != b:
            platform.add_link("extra", 1e7, extra_edge[2] * 1e-6)
            zone.connect(a, b, "extra")
            self._check_all_pairs(zone)

    def test_explicit_route_to_the_neighbour_does_not_leak(self):
        platform, zone = _leafy_root_zone(
            core_edges=[(0, 1, 1), (1, 2, 1)], leaves=[(2, 1, False)],
            explicit=[], children=[0])
        platform.add_link("detour", 1e7, 1e-3)
        zone.add_route("c0", "c2", ["detour"], symmetric=False)
        assert zone.strategy.route("c0", "c2") == ["detour"]
        assert zone.strategy.route("c0", "f0") == \
            _plain_route(zone, "c0", "f0") == ["l0", "l1", "l3"]

    def test_unreachable_leaf_names_the_original_pair(self):
        _, zone = _leafy_root_zone(core_edges=[(0, 1, 1)],
                                   leaves=[(0, 1, False)], explicit=[],
                                   children=[0])
        with pytest.raises(NoRouteError, match="from 'c0' to 'p1'"):
            zone.strategy.route("c0", "p1")
        assert zone.strategy.route("p0", "p1") == ["l1"]     # nbr == src

    def test_star_site_routes_expand_o1_vertices_per_route(self,
                                                           monkeypatch):
        """Work pin, no wall clock: count the vertices the search expands.

        Every leaf→leaf route of a 1000-host Dijkstra star site expands
        its source host and stops when the gateway settles; the search is
        memoized, so each source host is expanded once.  The full search
        to a leaf expands the gateway and then every host queued before
        the destination: up to 1000 vertices per route."""
        hosts = 1000
        platform = make_zoned_grid(num_sites=1, hosts_per_site=hosts,
                                   site_routing="Dijkstra")
        zone = platform.zone("site-0")
        expanded = [0]

        class CountingAdjacency(dict):
            def get(self, vertex, default=None):
                expanded[0] += 1
                return dict.get(self, vertex, default)

        class CountingZone:
            def __init__(self, zone):
                self.platform = zone.platform
                self.adjacency = CountingAdjacency(zone.adjacency)

        search = routing._dijkstra_prev
        monkeypatch.setattr(
            routing, "_dijkstra_prev",
            lambda zone, src, dst=None: search(CountingZone(zone), src, dst))
        names = [f"site-0-host-{i}" for i in range(hosts)]
        routes = 0
        for index, src in enumerate(names):
            for dst in names:
                if src != dst:
                    assert len(zone.strategy.route(src, dst)) == 2
                    routes += 1
            assert expanded[0] <= index + 1, src
        assert routes == hosts * (hosts - 1)
        # The (still wrapped) full search to a leaf does O(site) work.
        expanded[0] = 0
        routing._dijkstra_prev(zone, names[0], names[-1])
        assert expanded[0] >= hosts


class TestHierarchicalRoutes:
    """Route composition across the zone tree (gateway concatenation)."""

    def test_zoned_grid_route_is_lan_wan_wan_lan(self):
        platform = make_zoned_grid(num_sites=3, hosts_per_site=4)
        assert platform.route_links("site-0-host-1", "site-2-host-3") == \
            ["site-0-lan-1", "wan-0", "wan-2", "site-2-lan-3"]

    def test_intra_site_route_stays_inside_the_zone(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=4)
        assert platform.route_links("site-1-host-0", "site-1-host-2") == \
            ["site-1-lan-0", "site-1-lan-2"]

    def test_route_from_gateway_omits_the_lan_hop(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=2)
        assert platform.route_links("site-0-gw", "site-1-host-1") == \
            ["wan-0", "wan-1", "site-1-lan-1"]

    def test_loopback_is_empty(self):
        platform = make_zoned_grid(num_sites=1, hosts_per_site=2)
        assert platform.route_links("site-0-host-0", "site-0-host-0") == []

    def test_full_site_routing_variant_matches_default(self):
        floyd = make_zoned_grid(num_sites=2, hosts_per_site=3,
                                site_routing="Floyd")
        full = make_zoned_grid(num_sites=2, hosts_per_site=3,
                               site_routing="Full")
        for src, dst in itertools.permutations(all_nodes(floyd), 2):
            assert full.route_links(src, dst) == floyd.route_links(src, dst)

    def test_brite_hierarchical_sites_reach_each_other(self):
        platform = make_hierarchical_topology(num_sites=4, hosts_per_site=3)
        route = platform.route_links("as-0-host-0", "as-3-host-2")
        assert route[0] == "as-0-lan-0"
        assert route[-1] == "as-3-lan-2"
        assert any(name.startswith("wan-") for name in route)

    def test_brite_hierarchical_dijkstra_matches_floyd(self):
        floyd = make_hierarchical_topology(num_sites=4, hosts_per_site=2)
        dijkstra = make_hierarchical_topology(num_sites=4, hosts_per_site=2,
                                              site_routing="Dijkstra")
        for src, dst in itertools.permutations(all_nodes(floyd), 2):
            assert (dijkstra.route_links(src, dst)
                    == floyd.route_links(src, dst))

    def test_nested_zones_route_through_both_gateways(self):
        platform = Platform("nested")
        outer = platform.add_zone("outer")
        inner = outer.add_zone("inner")
        inner.add_router("inner-gw")
        inner.add_host("deep", 1e9)
        outer.add_router("outer-gw")
        platform.add_host("top", 1e9)
        platform.add_link("deep-lan", 1e6, 1e-3)
        inner.connect("deep", "inner-gw", "deep-lan")
        platform.add_link("inner-up", 1e6, 1e-3)
        outer.connect("inner", "outer-gw", "inner-up")
        platform.add_link("outer-up", 1e6, 1e-3)
        platform.connect("outer", "top", "outer-up")
        assert platform.route_links("deep", "top") == \
            ["deep-lan", "inner-up", "outer-up"]
        assert platform.route_links("top", "deep") == \
            ["outer-up", "inner-up", "deep-lan"]

    def test_unrelated_zone_trees_have_no_route(self):
        platform = Platform("split")
        left = platform.add_zone("left")
        right = platform.add_zone("right")
        left.add_host("a", 1e9)
        right.add_host("b", 1e9)
        with pytest.raises(NoRouteError):
            resolve_route(platform, "a", "b")

    def test_explicit_gateway_overrides_first_node(self):
        platform = Platform("gw")
        site = platform.add_zone("site")
        site.add_host("h0", 1e9)
        site.add_host("h1", 1e9)
        assert site.gateway == "h0"
        site.set_gateway("h1")
        assert site.gateway == "h1"

    def test_empty_zone_has_no_gateway(self):
        platform = Platform("empty")
        zone = platform.add_zone("void")
        with pytest.raises(PlatformError, match="no gateway"):
            zone.gateway

    def test_cross_zone_edge_must_be_declared_in_common_ancestor(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=1)
        platform2 = make_zoned_grid(num_sites=2, hosts_per_site=1)
        del platform2
        with pytest.raises(PlatformError, match="not vertices of the same"):
            platform.connect("site-0-host-0", "site-1-host-0", "wan-0")


class TestRouteCaches:
    """LRU-bounded caches: hit/miss/eviction counters, copy semantics."""

    def test_lru_cache_evicts_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes "a"
        cache.put("c", 3)                   # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.get("b") is None       # evicted: a miss
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_unbounded_cache_never_evicts(self):
        cache = LRUCache(maxsize=None)
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 100
        assert cache.stats()["evictions"] == 0

    def test_platform_route_cache_is_bounded(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=8,
                                   site_routing="Dijkstra")
        platform.route_cache_size = 4
        platform._route_cache = LRUCache(4)
        hosts = [f"site-{s}-host-{i}" for s in range(2) for i in range(8)]
        for src, dst in itertools.permutations(hosts, 2):
            platform.route_links(src, dst)
        stats = platform.route_cache_stats()["routes"]
        assert len(platform._route_cache) <= 4
        assert stats["evictions"] > 0

    def test_route_links_returns_a_fresh_copy(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=2)
        route = platform.route_links("site-0-host-0", "site-1-host-1")
        route.clear()
        assert platform.route_links("site-0-host-0", "site-1-host-1") != []

    def test_repeated_queries_hit_the_cache(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=2)
        platform.route_links("site-0-host-0", "site-1-host-0")
        before = platform.route_cache_stats()["routes"]["hits"]
        platform.route_links("site-0-host-0", "site-1-host-0")
        after = platform.route_cache_stats()["routes"]["hits"]
        assert after == before + 1

    def test_topology_mutation_invalidates_cached_routes(self):
        platform = Platform("mutate")
        for name in ("a", "b"):
            platform.add_host(name, 1e9)
        platform.add_link("slow", 1e6, 1e-2)
        platform.connect("a", "b", "slow")
        assert platform.route_links("a", "b") == ["slow"]
        platform.add_link("fast", 1e6, 1e-6)
        platform.connect("a", "b", "fast")
        assert platform.route_links("a", "b") == ["fast"]

    def test_kernel_stats_merges_solver_and_route_caches(self):
        platform = make_zoned_grid(num_sites=3, hosts_per_site=4)
        _, engine = run_zoned_exchange(platform)
        stats = engine.kernel_stats()
        assert stats["route_caches"] == platform.route_cache_stats()
        assert stats["solver"]["solve_calls"] > 0
        assert "models" in stats

    def test_kernel_stats_has_no_shard_block(self):
        platform = make_zoned_grid(num_sites=3, hosts_per_site=4)
        _, engine = run_zoned_exchange(platform)
        assert set(engine.kernel_stats()) == \
            {"solver", "models", "route_caches"}

    def test_route_resources_returns_tuple(self):
        platform = make_zoned_grid(num_sites=2, hosts_per_site=2)
        platform.realize()
        resources = platform.route_resources("site-0-host-0", "site-1-host-1")
        assert isinstance(resources, tuple)
        assert [r.name for r in resources] == \
            platform.route_links("site-0-host-0", "site-1-host-1")


def run_zoned_exchange(platform):
    """Mixed intra-/cross-site execs and transfers; returns the event log.

    Two pairs stay inside a site and two cross sites; the two cross-site
    pairs share the wan-1 link, so cross-zone flows contend in one LMM
    component.
    """
    engine = Engine(platform)
    log = []
    pairs = [
        ("site-0-host-1", "site-0-host-2"),
        ("site-0-host-3", "site-1-host-1"),
        ("site-1-host-2", "site-2-host-2"),
        ("site-2-host-3", "site-2-host-1"),
    ]

    def sender(actor, i):
        yield actor.execute(2e8 * (i + 1))
        log.append((actor.now, f"sent-{i}"))
        yield actor.engine.mailbox(f"m{i}").put(i, size=5e5 * (i + 1))
        log.append((actor.now, f"put-{i}"))

    def receiver(actor, i):
        yield actor.engine.mailbox(f"m{i}").get()
        log.append((actor.now, f"got-{i}"))
        yield actor.execute(1e8)
        log.append((actor.now, f"done-{i}"))

    for i, (src, dst) in enumerate(pairs):
        engine.add_actor(f"s{i}", src, sender, i)
        engine.add_actor(f"r{i}", dst, receiver, i)
    log.append((engine.run(), "end"))
    return log, engine


def run_zoned_churn(platform):
    """Cross-zone fan-in under seeded host/WAN churn; returns the log."""
    engine = Engine(platform)
    log = []
    want = [25]

    def sink(actor):
        box = actor.engine.mailbox("sink")
        while want[0] > 0:
            try:
                payload = yield box.get()
            except TransferFailureError:
                continue
            want[0] -= 1
            log.append((actor.now, f"recv-{payload}"))

    def worker(actor, i):
        while True:
            yield actor.execute(5e6 * (1 + i % 3))
            try:
                yield actor.engine.mailbox("sink").put(i, size=2e4)
            except TransferFailureError:
                continue

    engine.add_actor("sink", "site-0-host-0", sink)
    hosts = [f"site-{s}-host-{h}" for s in (1, 2) for h in range(4)]
    for i, host in enumerate(hosts):
        engine.add_actor(f"w{i}", host, worker, i,
                         daemon=True, auto_restart=True)
    injector = FailureInjector(engine, seed=11,
                               hosts=["site-1-host-1", "site-2-host-2"],
                               links=["wan-1", "wan-2"],
                               mtbf=0.01, mean_downtime=0.02,
                               max_failures=20).start()
    log.append((engine.run(), "end"))
    assert want[0] == 0, "the sink must collect every message"
    assert injector.failures > 0, "the churn seed must inject failures"
    return log


class TestLazyRealization:
    """``realize(lazy=True)`` materializes resources in O(touched)."""

    def test_untouched_platform_materializes_nothing(self):
        platform = make_zoned_grid(num_sites=10, hosts_per_site=20)
        platform.realize(lazy=True)
        assert platform.cpu_by_host == {}
        assert platform.link_by_name == {}

    def test_one_route_touches_only_its_links(self):
        platform = make_zoned_grid(num_sites=10, hosts_per_site=20)
        platform.realize(lazy=True)
        resources = platform.route_resources("site-0-host-0", "site-9-host-19")
        assert len(platform.link_by_name) == len(resources) == 4
        platform.cpu_of("site-0-host-0")
        assert len(platform.cpu_by_host) == 1

    def test_traced_resources_materialize_eagerly(self):
        from repro.surf.trace import Trace
        platform = Platform("traced")
        zone = platform.add_zone("z")
        zone.add_host("watched", 1e9,
                      availability_trace=Trace([(0.0, 1.0), (5.0, 0.5)],
                                               period=10.0))
        zone.add_host("plain", 1e9)
        platform.add_link("wire", 1e6, 1e-3)
        zone.connect("watched", "plain", "wire")
        platform.realize(lazy=True)
        assert set(platform.cpu_by_host) == {"watched"}
        assert platform.link_by_name == {}

    def test_lazy_and_eager_dates_are_identical(self):
        def run(lazy):
            platform = make_zoned_grid(num_sites=2, hosts_per_site=2)
            platform.realize(lazy=lazy)
            engine = Engine(platform)

            def sender(actor):
                yield actor.engine.mailbox("x").put("x", size=1e6)

            def receiver(actor):
                yield actor.engine.mailbox("x").get()
                yield actor.execute(1e9)

            engine.add_actor("s", "site-0-host-0", sender)
            engine.add_actor("r", "site-1-host-1", receiver)
            return engine.run()

        assert run(lazy=False) == run(lazy=True)

    def test_lazy_matches_eager_dates(self):
        eager = make_zoned_grid(num_sites=3, hosts_per_site=4)
        eager.realize(eager=True)
        eager_log, eager_engine = run_zoned_exchange(eager)
        lazy_log, lazy_engine = run_zoned_exchange(
            make_zoned_grid(num_sites=3, hosts_per_site=4))
        assert lazy_log == eager_log
        # Same solver work too: untouched resources cost nothing.
        assert (lazy_engine.kernel_stats()["solver"]
                == eager_engine.kernel_stats()["solver"])

    def test_lazy_matches_eager_under_cross_zone_churn(self):
        eager = make_zoned_grid(num_sites=3, hosts_per_site=4)
        eager.realize(eager=True)
        lazy_log = run_zoned_churn(make_zoned_grid(num_sites=3,
                                                   hosts_per_site=4))
        assert lazy_log == run_zoned_churn(eager)

    def test_large_zoned_platform_realizes_lazily_in_o_touched(self):
        # 10⁴ hosts here (the 10⁵ acceptance run lives in the
        # ``platform_realize`` benchmark scenario): realization must not
        # scale with platform size, only with what the simulation touches.
        platform = make_zoned_grid(num_sites=100, hosts_per_site=100)
        assert len(platform.hosts) == 10_000
        platform.realize(lazy=True)
        engine = Engine(platform)

        def sender(actor):
            yield actor.engine.mailbox("ping").put("ping", size=1e6)

        def receiver(actor):
            yield actor.engine.mailbox("ping").get()

        engine.add_actor("s", "site-0-host-0", sender)
        engine.add_actor("r", "site-99-host-99", receiver)
        engine.run()
        assert len(platform.cpu_by_host) == 2
        assert len(platform.link_by_name) == 4


class TestZoneSerialization:
    """Zones round-trip through ``platform_to_dict``/``platform_from_dict``."""

    def test_flat_platform_dict_has_no_zones_key(self):
        data = platform_to_dict(make_star())
        assert "zones" not in data

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: make_zoned_grid(num_sites=3, hosts_per_site=2),
                     id="zoned-grid"),
        pytest.param(lambda: make_hierarchical_topology(num_sites=3,
                                                        hosts_per_site=2),
                     id="brite-hier"),
    ])
    def test_zoned_round_trip_preserves_routes(self, build):
        original = build()
        reloaded = platform_from_dict(platform_to_dict(original))
        assert set(reloaded.zones) == set(original.zones)
        for src, dst in itertools.permutations(all_nodes(original), 2):
            assert (reloaded.route_links(src, dst)
                    == original.route_links(src, dst)), (src, dst)

    def test_round_trip_is_a_fixed_point(self):
        data = platform_to_dict(make_zoned_grid(num_sites=2,
                                                hosts_per_site=2))
        assert platform_to_dict(platform_from_dict(data)) == data

    def test_default_gateway_is_pinned_on_save(self):
        data = platform_to_dict(make_zoned_grid(num_sites=1,
                                                hosts_per_site=1))
        (zone,) = data["zones"]
        assert zone["gateway"] == "site-0-gw"

    def test_save_load_file_round_trip(self, tmp_path):
        from repro.platform import save_platform
        path = tmp_path / "zoned.json"
        original = make_zoned_grid(num_sites=2, hosts_per_site=2)
        save_platform(original, path)
        reloaded = load_platform(path)
        assert reloaded.route_links("site-0-host-0", "site-1-host-1") == \
            original.route_links("site-0-host-0", "site-1-host-1")
