"""Query resolution among cooperating clients in one cell.

Each client hosts an information manager that resolves service queries
through a fixed chain: its own answer (cache, then locally registered
provider), a one-hop query to each neighbour that holds a cached copy or a
provider of the object (who answers the same way, never re-broadcasting;
the others would have nothing to answer, so asking only the holders is an
exact cache-signature lookup), and finally the data source itself. A
cached copy is used only when its not-modified probability meets the
querier's QoS setting; when several neighbours can answer, the freshest
copy wins, the lowest client id on ties. An answer carries the source's
update statistics, whose ``t_last_update`` is the write it reflects, and
no data.

The chain runs once per query, so each step is done once: the own step is
written out in ``resolve_query``, P_NM is one ``p_not_modified_or_zero``
call, a source or provider read goes to ``_finish`` as its P_NM and
snapshot, and an ``Answer`` is built only for a neighbour's reply. Answers
and outcomes are built with ``tuple.__new__``, skipping NamedTuple's
interpreted constructor; they are the same tuples of the same types.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .cache import CacheEntry, ClientCache
from .freshness import FreshnessStats, SourceObject, accepts, p_not_modified_or_zero


class Resolution(str, Enum):
    LOCAL_CACHE = "local_cache"
    LOCAL_PROVIDER = "local_provider"
    NEIGHBOR_CACHE = "neighbor_cache"
    NEIGHBOR_PROVIDER = "neighbor_provider"
    SOURCE = "source"
    UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class LinkCosts:
    """Latency knobs, in slots; the chain order itself is fixed."""

    local: float = 0.0
    hop: float = 1.0
    source: float = 5.0


class Answer(NamedTuple):
    """A client's answer to a query: a cached copy or a provider read."""

    from_cache: bool
    p_nm: float
    stats: FreshnessStats


class QueryOutcome(NamedTuple):
    object_id: str
    resolution: Resolution
    latency: float
    p_nm: float
    served_by: str | None
    write_time: float  # the source write the answer reflects


# An Answer or QueryOutcome without NamedTuple's interpreted __new__, one
# or more per query: _new(Cls, (fields in declaration order)) builds the
# same tuple.
_new = tuple.__new__


class P2PCell:
    """Shared context: topology, data sources, link costs, toggles, and the
    information manager of each client, which registers itself."""

    def __init__(
        self,
        adjacency: dict[str, set[str]],
        sources: dict[str, SourceObject],
        costs: LinkCosts = LinkCosts(),
        p2p_enabled: bool = True,
        overhearing: bool = False,
    ):
        # in id order: the order neighbours are asked and overhear
        self.neighbors = {cid: sorted(peers) for cid, peers in adjacency.items()}
        self.sources = sources
        self.costs = costs
        self.p2p_enabled = p2p_enabled
        self.overhearing = overhearing
        self.ims: dict[str, InformationManager] = {}


class InformationManager:
    """Per-client mediator between consumers, providers, and the cell."""

    def __init__(
        self, client_id: str, cell: P2PCell, query_cache: ClientCache | None = None
    ):
        self.client_id = client_id
        self.cell = cell
        self.query_cache = query_cache
        self.providers: set[str] = set()
        self.neighbors = cell.neighbors.get(client_id, [])
        cell.ims[client_id] = self

    # -- provider registry ------------------------------------------------

    def register_provider(self, service_id: str) -> None:
        self.providers.add(service_id)

    # -- answering ---------------------------------------------------------

    def handle_neighbor_query(
        self, service_id: str, qos: float, now: float
    ) -> Answer | None:
        """Answer a neighbour's one-hop query: the cached copy if it meets
        ``qos``, else a read of a local provider, else None. Recency-neutral:
        the cache is only peeked."""
        if self.query_cache is not None:
            entry = self.query_cache.peek(service_id)
            if entry is not None:
                stats = entry.source_stats_snapshot
                p_nm = p_not_modified_or_zero(stats, now)
                if accepts(qos, p_nm):
                    return _new(Answer, (True, p_nm, stats))
        if service_id in self.providers:
            return _new(Answer, (False, 1.0, self.cell.sources[service_id].read(now)))
        return None

    # -- the resolution chain ----------------------------------------------

    def resolve_query(self, service_id: str, qos: float, now: float) -> QueryOutcome:
        """Resolve a consumer query through the cache/provider/neighbour/source
        chain. The own step is ``handle_neighbor_query``'s, except that a real
        cache hit touches the copy's recency."""
        cell, costs, cache = self.cell, self.cell.costs, self.query_cache
        if cache is not None:
            cache.record_read(service_id, now)
            entry = cache.peek(service_id)
            if entry is not None:
                stats = entry.source_stats_snapshot
                p_nm = p_not_modified_or_zero(stats, now)
                if accepts(qos, p_nm):
                    cache.get(service_id, now)  # recency touch on a real hit
                    return _new(QueryOutcome, (
                        service_id, Resolution.LOCAL_CACHE, costs.local, p_nm,
                        self.client_id, stats.t_last_update,
                    ))
        if service_id in self.providers:
            return self._finish(
                service_id, Resolution.LOCAL_PROVIDER, costs.local, now,
                1.0, cell.sources[service_id].read(now), self.client_id,
            )

        if cell.p2p_enabled:
            best, best_id, ims = None, None, cell.ims
            for nid in self.neighbors:  # in id order, so the first of equals wins
                peer = ims[nid]
                peer_cache = peer.query_cache
                if service_id not in peer.providers and (
                    peer_cache is None or service_id not in peer_cache.entries
                ):
                    continue  # holds no copy and no provider: it would answer None
                answer = peer.handle_neighbor_query(service_id, qos, now)
                if answer is not None and (best is None or answer.p_nm > best.p_nm):
                    best, best_id = answer, nid
            if best is not None:
                from_cache, p_nm, stats = best
                resolution = (
                    Resolution.NEIGHBOR_CACHE if from_cache
                    else Resolution.NEIGHBOR_PROVIDER
                )
                return self._finish(
                    service_id, resolution, 2 * costs.hop, now, p_nm, stats, best_id
                )

        source = cell.sources.get(service_id)
        if source is None:
            raise KeyError(f"no source serves {service_id}")
        if source.reachable:
            return self._finish(
                service_id, Resolution.SOURCE, costs.source, now,
                1.0, source.read(now), "source",
            )
        return _new(QueryOutcome, (
            service_id, Resolution.UNRESOLVED, costs.source, 0.0, None, now,
        ))

    def _finish(
        self, service_id: str, resolution: Resolution, latency: float, now: float,
        p_nm: float, stats: FreshnessStats, served_by: str,
    ) -> QueryOutcome:
        """Cache a copy of a fetched answer, whose not-modified probability
        is ``p_nm`` and whose snapshot is ``stats``, and with overhearing a
        copy in each neighbour but the one that served it; each cache gets
        its own entry, since an entry's requery flag is its cache's alone."""
        if self.query_cache is not None:
            self.query_cache.insert(CacheEntry(service_id, stats, cached_at=now), now)
        if self.cell.overhearing:
            for nid in self.neighbors:
                peer = self.cell.ims[nid].query_cache
                if nid != served_by and peer is not None:
                    peer.insert(CacheEntry(service_id, stats, cached_at=now), now)
        return _new(QueryOutcome, (
            service_id, resolution, latency, p_nm, served_by, stats.t_last_update,
        ))
