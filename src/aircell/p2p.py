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

    def _answer(self, service_id: str, qos: float, now: float) -> Answer | None:
        """The cached copy if it meets ``qos``, else a read of a local
        provider, else None. Recency-neutral: the cache is only peeked."""
        if self.query_cache is not None:
            entry = self.query_cache.peek(service_id)
            if entry is not None:
                p_nm = p_not_modified_or_zero(entry.source_stats_snapshot, now)
                if accepts(qos, p_nm):
                    return Answer(True, p_nm, entry.source_stats_snapshot)
        if service_id in self.providers:
            return Answer(False, 1.0, self.cell.sources[service_id].read(now))
        return None

    def handle_neighbor_query(
        self, service_id: str, qos: float, now: float
    ) -> Answer | None:
        """Answer a neighbour's one-hop query; the own step calls ``_answer``."""
        return self._answer(service_id, qos, now)

    # -- the resolution chain ----------------------------------------------

    def resolve_query(self, service_id: str, qos: float, now: float) -> QueryOutcome:
        """Resolve a consumer query through the cache/provider/neighbour/source chain."""
        costs = self.cell.costs
        if self.query_cache is not None:
            self.query_cache.record_read(service_id, now)
        answer = self._answer(service_id, qos, now)
        if answer is not None:
            if answer.from_cache:
                self.query_cache.get(service_id, now)  # recency touch on a real hit
                return QueryOutcome(
                    service_id, Resolution.LOCAL_CACHE, costs.local, answer.p_nm,
                    self.client_id, answer.stats.t_last_update,
                )
            return self._finish(
                service_id, Resolution.LOCAL_PROVIDER, costs.local, now,
                answer, self.client_id,
            )

        if self.cell.p2p_enabled:
            best, best_id, ims = None, None, self.cell.ims
            for nid in self.neighbors:  # in id order, so the first of equals wins
                peer = ims[nid]
                cache = peer.query_cache
                if service_id not in peer.providers and (
                    cache is None or service_id not in cache
                ):
                    continue  # holds no copy and no provider: it would answer None
                answer = peer.handle_neighbor_query(service_id, qos, now)
                if answer is not None and (best is None or answer.p_nm > best.p_nm):
                    best, best_id = answer, nid
            if best is not None:
                resolution = (
                    Resolution.NEIGHBOR_CACHE if best.from_cache
                    else Resolution.NEIGHBOR_PROVIDER
                )
                return self._finish(
                    service_id, resolution, 2 * costs.hop, now, best, best_id
                )

        source = self.cell.sources.get(service_id)
        if source is None:
            raise KeyError(f"no source serves {service_id}")
        if source.reachable:
            return self._finish(
                service_id, Resolution.SOURCE, costs.source, now,
                Answer(False, 1.0, source.read(now)), "source",
            )
        return QueryOutcome(
            service_id, Resolution.UNRESOLVED, costs.source, 0.0, None, now
        )

    def _finish(
        self, service_id: str, resolution: Resolution, latency: float, now: float,
        answer: Answer, served_by: str,
    ) -> QueryOutcome:
        """Cache a copy of a fetched answer, and with overhearing a copy in
        each neighbour but the one that served it; each cache gets its own
        entry, since an entry's requery flag is its cache's alone."""
        stats = answer.stats
        if self.query_cache is not None:
            self.query_cache.insert(CacheEntry(service_id, stats, cached_at=now), now)
        if self.cell.overhearing:
            for nid in self.neighbors:
                peer = self.cell.ims[nid].query_cache
                if nid != served_by and peer is not None:
                    peer.insert(CacheEntry(service_id, stats, cached_at=now), now)
        return QueryOutcome(
            service_id, resolution, latency, answer.p_nm, served_by,
            stats.t_last_update,
        )
