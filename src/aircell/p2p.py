"""Query resolution among cooperating clients in one cell.

Each client hosts an information manager that resolves service queries
through a fixed chain: own cache, locally registered provider, a one-hop
broadcast to neighbours (who may answer from cache or a provider of their
own, never re-broadcasting), and finally the data source itself. Cached
answers are used only when their not-modified probability meets the
querier's QoS setting; when several neighbours can answer, the freshest
copy wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .cache import CacheEntry, ClientCache
from .freshness import SourceObject, accepts, p_not_modified_or_zero


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


@dataclass(frozen=True)
class NeighborQuery:
    service_id: str
    qos: float
    sender_id: str
    hops: int = 1


@dataclass(frozen=True)
class NeighborResponse:
    responder_id: str
    kind: str  # "cache" | "provider"
    payload: bytes
    stats_snapshot: object
    p_nm: float
    payload_write_time: float


@dataclass(frozen=True)
class QueryOutcome:
    object_id: str
    resolution: Resolution
    latency: float
    payload_age: float
    p_nm: float
    served_by: str | None
    payload_write_time: float
    payload: bytes | None


class P2PCell:
    """Shared context: topology, data sources, link costs, toggles."""

    def __init__(
        self,
        adjacency: dict[str, set[str]],
        sources: dict[str, SourceObject],
        costs: LinkCosts = LinkCosts(),
        p2p_enabled: bool = True,
        overhearing: bool = False,
    ):
        self.adjacency = adjacency
        self.sources = sources
        self.costs = costs
        self.p2p_enabled = p2p_enabled
        self.overhearing = overhearing
        self.ims: dict[str, InformationManager] = {}

    def register(self, im: "InformationManager") -> None:
        self.ims[im.client_id] = im

    def neighbors_of(self, client_id: str) -> list[str]:
        return sorted(self.adjacency.get(client_id, set()))


class InformationManager:
    """Per-client mediator between consumers, providers, and the cell."""

    def __init__(
        self,
        client_id: str,
        cell: P2PCell,
        query_cache: ClientCache | None = None,
    ):
        self.client_id = client_id
        self.cell = cell
        self.query_cache = query_cache
        self.providers: set[str] = set()
        cell.register(self)

    # -- provider registry ------------------------------------------------

    def register_provider(self, service_id: str) -> None:
        self.providers.add(service_id)

    # -- serving neighbours ------------------------------------------------

    def handle_neighbor_query(
        self, query: NeighborQuery, now: float
    ) -> NeighborResponse | None:
        """Answer a one-hop query from cache or a local provider, else stay silent."""
        if query.hops > 1:
            raise ValueError(f"query from {query.sender_id} traversed {query.hops} hops")
        if self.query_cache is not None:
            entry = self.query_cache.peek(query.service_id)
            if entry is not None:
                p_nm = p_not_modified_or_zero(entry.source_stats_snapshot, now)
                if accepts(query.qos, p_nm):
                    return NeighborResponse(
                        self.client_id, "cache", entry.payload,
                        entry.source_stats_snapshot, p_nm,
                        entry.source_stats_snapshot.t_last_update,
                    )
        if query.service_id in self.providers:
            source = self.cell.sources[query.service_id]
            payload, stats = source.read(now)
            return NeighborResponse(
                self.client_id, "provider", payload, stats, 1.0, stats.t_last_update
            )
        return None

    # -- the resolution chain ----------------------------------------------

    def resolve_query(self, service_id: str, qos: float, now: float) -> QueryOutcome:
        """Resolve a consumer query through the cache/provider/neighbour/source chain."""
        costs = self.cell.costs
        if self.query_cache is not None:
            self.query_cache.record_read(service_id, now)
            entry = self.query_cache.peek(service_id)
            if entry is not None:
                p_nm = p_not_modified_or_zero(entry.source_stats_snapshot, now)
                if accepts(qos, p_nm):
                    self.query_cache.get(service_id, now)  # recency touch on a real hit
                    write_t = entry.source_stats_snapshot.t_last_update
                    return QueryOutcome(
                        service_id, Resolution.LOCAL_CACHE, costs.local,
                        now - write_t, p_nm, self.client_id, write_t, entry.payload,
                    )

        if service_id in self.providers:
            source = self.cell.sources[service_id]
            payload, stats = source.read(now)
            return self._finish(
                service_id, Resolution.LOCAL_PROVIDER, costs.local,
                now, 1.0, self.client_id, stats, payload,
            )

        if self.cell.p2p_enabled:
            query = NeighborQuery(service_id, qos, self.client_id)
            best: tuple[float, str, NeighborResponse] | None = None
            for nid in self.cell.neighbors_of(self.client_id):
                response = self.cell.ims[nid].handle_neighbor_query(query, now)
                if response is None:
                    continue
                key = (-response.p_nm, response.responder_id)
                if best is None or key < (best[0], best[1]):
                    best = (key[0], key[1], response)
            if best is not None:
                response = best[2]
                resolution = (
                    Resolution.NEIGHBOR_CACHE
                    if response.kind == "cache"
                    else Resolution.NEIGHBOR_PROVIDER
                )
                return self._finish(
                    service_id, resolution, 2 * costs.hop, now,
                    response.p_nm, response.responder_id,
                    response.stats_snapshot, response.payload,
                )

        source = self.cell.sources.get(service_id)
        if source is None:
            raise KeyError(f"no source serves {service_id}")
        if source.reachable:
            payload, stats = source.read(now)
            return self._finish(
                service_id, Resolution.SOURCE, costs.source, now,
                1.0, "source", stats, payload,
            )
        return QueryOutcome(
            service_id, Resolution.UNRESOLVED, costs.source, 0.0, 0.0, None, now, None
        )

    def _finish(
        self,
        service_id: str,
        resolution: Resolution,
        latency: float,
        now: float,
        p_nm: float,
        served_by: str,
        stats,
        payload: bytes,
    ) -> QueryOutcome:
        write_t = stats.t_last_update
        entry = CacheEntry(service_id, payload, stats, cached_at=now)
        if self.query_cache is not None:
            self.query_cache.insert(entry, now)
        if self.cell.overhearing:
            for nid in self.cell.neighbors_of(self.client_id):
                if nid == served_by:
                    continue
                peer = self.cell.ims[nid].query_cache
                if peer is not None:
                    peer.insert(
                        CacheEntry(service_id, payload, stats, cached_at=now), now
                    )
        return QueryOutcome(
            service_id, resolution, latency, now - write_t,
            p_nm, served_by, write_t, payload,
        )
