"""Memoised single-source shortest-path state, failure-aware.

Both tree builders recompute the same SPF state over and over: the SPF
baseline routes each join from the member toward the source
(:class:`~repro.multicast.spf_protocol.SPFMulticastProtocol`), SMRP's
path-selection bound needs ``D^SPF(S, NR)`` for every joining member
(§3.2.2), and every recovery evaluation re-derives post-failure distances
for the same ``(topology, member, failure)`` triples across the sweep's
parameter grid.  A :class:`RouteCache` keys entries on
``(topology state, root, weight, canonical failure key)`` so *all* of
those repeats — failure-free and failure-scenario alike — collapse into
one search each.

A failure-free entry is a full :class:`~repro.routing.spf.ShortestPaths`.
A failure-scenario entry is a resumable
:class:`~repro.routing.spf.PathSearch`: restoration asks it one question
at a time — the nearest surviving on-tree node (local detour), the path
to the source (global detour), the path to a target (alternate route) —
and each question settles nodes only until its answer is final, resuming
where the previous question stopped.  The sweep's four strategy/tree
measurements of one ``(member, failure)`` thus share one search, and a
search that only needed a few hops never pays for the rest of the graph.
Retention is the LRU's: the same ``max_entries`` bound counts searches
and full results alike, and a paused search holds three ``n``-sized
arrays plus the heap of what it discovered — no more than the full
result it replaces (:meth:`RouteCache.shortest_paths` swaps a search for
its completed result when a caller asks for everything).

For single-element failures the cache goes further than memoisation.
Bhosle & Gonzalez (arXiv:0810.3438) observe that removing an edge that an
SPF tree does not use cannot change that tree; with this library's
deterministic tie-break ``dist`` and ``parent`` are *bitwise equal*: the
final parent of every node is the minimum id over its equal-distance
predecessors, and deleting an edge that lost (or never entered) every such
comparison removes no winner.  Likewise a failed node that the baseline
already could not reach removes only arcs incident to it, none of which
appear in any relaxation.  So when a single-link failure misses a cached
failure-free tree, or a single-node failure hits an unreachable node, the
cache answers from the failure-free result outright — a **reuse proof**,
counted separately (``cache.routes.reuse_proofs``, a sub-count of misses:
the scenario key itself was absent) — instead of opening a search.  Only
the dict *insertion order* can differ from a fresh failure-masked search
(discovery order follows relaxations, and a removed arc changes which
relaxation first reaches a node).  No consumer reads it: restoration asks
only distance, path and nearest-node questions, and the routing tables
that iterate a result in order are built by :func:`~repro.routing.spf.dijkstra`
directly, never through this cache.

Topology state is identified by :meth:`~repro.graph.topology.Topology.cache_token`,
which advances on every mutation — a stale entry can never be returned,
it simply stops being reachable and ages out of the LRU bound.

Hit/miss/eviction activity is reported through ``repro.obs`` counters
(``cache.routes.hits`` / ``.misses`` / ``.evictions`` /
``.reuse_proofs``) plus ``cache.routes.hit_rate`` / ``.size`` gauges.
"""

from __future__ import annotations

from repro.graph.cache import LruCache
from repro.graph.topology import Edge, NodeId, Topology
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.spf import PathSearch, ShortestPaths, dijkstra

#: Default bound on retained SPF results: a 100-scenario sweep point needs
#: about ``members × topologies`` entries, well within this.
DEFAULT_MAX_ROUTES = 4096

#: Canonical failure component of a cache key.  ``()`` entries sort before
#: any tuple, and sorting both element sets makes the key independent of
#: frozenset iteration order (which varies across processes).
_FailureKey = tuple[tuple[Edge, ...], tuple[NodeId, ...]]

_NO_FAILURE_KEY: _FailureKey = ((), ())

_Key = tuple[int, NodeId, str, _FailureKey]


def _failure_key(failures: FailureSet) -> _FailureKey:
    if failures.is_empty:
        return _NO_FAILURE_KEY
    return (
        tuple(sorted(failures.failed_links)),
        tuple(sorted(failures.failed_nodes)),
    )


def _provably_unaffected(baseline: ShortestPaths, failures: FailureSet) -> bool:
    """True when ``failures`` provably cannot change ``baseline``.

    Only single-element scenarios are examined (the common case in the
    paper's §4.3 persistent-failure sweeps); for anything larger the
    answer is a conservative False and the caller recomputes.

    - Single link ``(u, v)``: reusable iff neither direction of the link
      is a tree edge of the baseline (``parent[v] != u and parent[u] != v``).
    - Single node ``x``: reusable iff the baseline never reached ``x`` —
      then every arc incident to ``x`` connects two nodes of which one is
      unreachable, so none participated in any relaxation.
    """
    links = failures.failed_links
    nodes = failures.failed_nodes
    if len(links) == 1 and not nodes:
        (u, v) = next(iter(links))
        parent = baseline.parent
        return parent.get(v) != u and parent.get(u) != v
    if len(nodes) == 1 and not links:
        return next(iter(nodes)) not in baseline.dist
    return False


class RouteCache:
    """Bounded, failure-aware cache of shortest-path answers: full
    :class:`ShortestPaths` results and resumable post-failure searches.

    Cached answers are shared objects; callers only ask them questions
    (``reachable`` / ``distance`` / ``path_to`` / ``nearest``).

    Examples
    --------
    >>> from repro.graph.generators import figure4_topology
    >>> cache = RouteCache()
    >>> topo = figure4_topology()
    >>> a = cache.shortest_paths(topo, 0)
    >>> b = cache.shortest_paths(topo, 0)
    >>> a is b
    True
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ROUTES) -> None:
        self._lru: LruCache[_Key, ShortestPaths | PathSearch] = LruCache(max_entries)
        self._reuse_proofs = 0

    def search(
        self,
        topology: Topology,
        root: NodeId,
        weight: str = "delay",
        failures: FailureSet = NO_FAILURES,
        obs=None,
    ) -> ShortestPaths | PathSearch:
        """The answer to questions about ``root``'s shortest paths under
        ``failures``, kept once per ``(topology state, root, weight,
        failure scenario)``.

        A failure-free entry is a full :class:`ShortestPaths`.  A failure
        scenario is a :class:`PathSearch` that settles only as far as the
        questions asked so far needed (every caller's question resumes the
        same search), or — by reuse proof, when a cached failure-free
        baseline provably cannot be affected — that baseline itself.  Both
        answer ``reachable`` / ``distance`` / ``path_to`` / ``nearest``
        identically.  Reuse proofs count as misses (the scenario key was
        absent) plus ``cache.routes.reuse_proofs``.
        """
        lru = self._lru
        token = topology.cache_token()
        fkey = _failure_key(failures)
        key = (token, root, weight, fkey)
        answer = lru.peek(key)
        reused = False
        evicted = False
        if answer is not None:
            lru.hits += 1
            hit = True
        else:
            lru.misses += 1
            hit = False
            if fkey is _NO_FAILURE_KEY:
                answer = dijkstra(topology, root, weight=weight)
            else:
                # Consult the failure-free baseline (peek: an internal
                # lookup, not a caller-facing hit or miss).
                baseline = lru.peek((token, root, weight, _NO_FAILURE_KEY))
                reused = baseline is not None and _provably_unaffected(
                    baseline, failures
                )
                answer = (
                    baseline
                    if reused
                    else PathSearch(topology, root, weight=weight, failures=failures)
                )
            if reused:
                self._reuse_proofs += 1
            evicted = lru.store(key, answer)
        if obs is not None:
            obs.counter("cache.routes.hits" if hit else "cache.routes.misses").inc()
            if reused:
                obs.counter("cache.routes.reuse_proofs").inc()
            if evicted:
                obs.counter("cache.routes.evictions").inc()
            obs.gauge("cache.routes.size").set(len(lru))
            lookups = lru.hits + lru.misses
            obs.gauge("cache.routes.hit_rate").set(lru.hits / lookups)
        return answer

    def shortest_paths(
        self,
        topology: Topology,
        root: NodeId,
        weight: str = "delay",
        failures: FailureSet = NO_FAILURES,
        obs=None,
    ) -> ShortestPaths:
        """SPF state rooted at ``root`` under ``failures``, computed at
        most once per ``(topology state, root, weight, failure scenario)``.

        The :meth:`search` entry, completed: a failure scenario's search
        runs to exhaustion and its :class:`ShortestPaths` replaces it in
        the cache, so later lookups return the same object.  A failure
        lookup here first builds the root's failure-free baseline when it
        is absent (remembered for the root's later scenarios, not counted
        as a lookup), so a reuse proof may spare the failure-masked run;
        :meth:`search` uses a baseline only when one is cached, since its
        questions usually settle far fewer nodes than a baseline costs.
        """
        lru = self._lru
        if not failures.is_empty:
            base_key = (topology.cache_token(), root, weight, _NO_FAILURE_KEY)
            if lru.peek(base_key) is None:
                baseline = dijkstra(topology, root, weight=weight)
                if lru.store(base_key, baseline) and obs is not None:
                    obs.counter("cache.routes.evictions").inc()
        answer = self.search(topology, root, weight=weight, failures=failures, obs=obs)
        if isinstance(answer, PathSearch):
            answer = answer.complete()
            key = (topology.cache_token(), root, weight, _failure_key(failures))
            lru.store(key, answer)
        return answer

    def warm_batch(
        self,
        topology: Topology,
        roots,
        weight: str = "delay",
        failures: FailureSet = NO_FAILURES,
        obs=None,
    ) -> int:
        """Insert absent entries for many roots from one multi-root kernel run.

        The batch analogue of priming the cache with one
        :meth:`shortest_paths` call per root: roots whose
        ``(topology state, root, weight, failure scenario)`` entry is
        already cached are skipped, single-element scenarios that a
        cached failure-free baseline provably cannot be affected by are
        answered by the same reuse proof the per-call path applies (the
        shared baseline object is stored, so later hits are
        indistinguishable), and everything left is computed by a single
        :func:`~repro.routing.batch.dijkstra_multi` invocation.  Warmed
        entries are byte-identical to what the per-call API would have
        computed — the batch kernel's bit-identity contract — so
        interleaving ``warm_batch`` with ``shortest_paths`` never changes
        any returned path, only how many kernel runs it took.

        Returns the number of entries inserted (reuse proofs included),
        accounted under ``cache.routes.batch_inserts``; lookup hit/miss
        counters are untouched (warming is not a caller-facing lookup).
        """
        from repro.routing.batch import dijkstra_multi

        lru = self._lru
        token = topology.cache_token()
        fkey = _failure_key(failures)
        pending: list[NodeId] = []
        seen: set[NodeId] = set()
        for root in roots:
            if root in seen:
                continue
            seen.add(root)
            if lru.peek((token, root, weight, fkey)) is None:
                pending.append(root)
        if not pending:
            return 0

        inserted = 0
        evictions = 0
        if fkey is not _NO_FAILURE_KEY:
            remaining = []
            for root in pending:
                baseline = lru.peek((token, root, weight, _NO_FAILURE_KEY))
                if baseline is not None and _provably_unaffected(
                    baseline, failures
                ):
                    self._reuse_proofs += 1
                    if obs is not None:
                        obs.counter("cache.routes.reuse_proofs").inc()
                    if lru.store((token, root, weight, fkey), baseline):
                        evictions += 1
                    inserted += 1
                else:
                    remaining.append(root)
            pending = remaining
        if pending:
            batch = dijkstra_multi(
                topology, pending, weight=weight, failures=failures, obs=obs
            )
            for root in pending:
                if lru.store((token, root, weight, fkey), batch.paths(root)):
                    evictions += 1
                inserted += 1
        if obs is not None:
            obs.counter("cache.routes.batch_inserts").inc(inserted)
            if evictions:
                obs.counter("cache.routes.evictions").inc(evictions)
            obs.gauge("cache.routes.size").set(len(lru))
        return inserted

    @property
    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._lru),
            "max_entries": self._lru.max_entries,
            "hits": self._lru.hits,
            "misses": self._lru.misses,
            "evictions": self._lru.evictions,
            "reuse_proofs": self._reuse_proofs,
        }

    def clear(self) -> None:
        self._lru.clear()

    def __repr__(self) -> str:
        return f"RouteCache({self._lru!r}, reuse_proofs={self._reuse_proofs})"
