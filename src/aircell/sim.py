"""Deterministic slot-based engine composing the cell's mechanisms.

A scenario fully determines a run: sources with normally distributed
inter-update times (resampled if nonpositive), clients with caches and QoS
settings arranged in a neighbour topology, and either a peer-to-peer
resolution chain or a broadcast cell with a published/on-demand split,
air indexing, and request batching. Every random draw comes from a named
substream of the master seed, so toggling one subsystem never perturbs
another's stream and identical seeds give byte-identical metrics.

The engine's work follows the events, not slots times population. Each
source advances its update process only when it is about to be read, and
only caches under a TTL policy are ticked. Both are exact: a source's
draws come from its own substream, so deferring them changes no value,
and the other policies' ``tick`` does nothing. A broadcast cell builds no
update processes, caches or peer-to-peer managers at all: an aired or
multicast answer is the source's current write, fresh by construction,
so no broadcast metric depends on a source's history. Its reads go
through the library's own lookup and accounting (``air_schedule.locate``,
``retrieval.account``).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import itemgetter
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import air_schedule, broadcast_plan, fidelity, retrieval
from .cache import TTL_POLICIES, CacheEntry, ClientCache, PolicyKind
from .freshness import InvariantError, SourceObject, accepts
from .p2p import InformationManager, LinkCosts, P2PCell, Resolution

SCHEMA_ID = "aircell-scenario/1"


class ScenarioError(ValueError):
    """One or more schema violations; carries the full list."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def substream(seed: int, *labels) -> np.random.Generator:
    """A generator for one named entity, split off the master seed."""
    tag = "/".join(str(x) for x in labels)
    digest = hashlib.sha256(tag.encode()).digest()[:8]
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest, "big")])
    )


# --------------------------------------------------------------------------
# Scenario schema
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectSpec:
    object_id: str
    mtbu: float
    stdv_mtbu: float
    reachable: bool = True


@dataclass(frozen=True)
class ClientSpec:
    client_id: str
    cache_capacity: int
    policy: PolicyKind
    default_qos: float
    request_rate: float
    qos_overrides: dict[str, float] = field(default_factory=dict)
    providers: tuple[str, ...] = ()


@dataclass(frozen=True)
class CellSpec:
    channels: int = 1
    scheme: str = "one_m"
    m: int = 1
    slot_duration: float = 1.0
    dedicated_index_channel: bool = False
    total_bandwidth: float = 10.0
    request_size: float = 0.25
    threshold: float = math.inf
    batching_window: float = 0.0
    replan_interval: int = 0
    cost_model: retrieval.CostModel = retrieval.CostModel()


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration_slots: int
    objects: tuple[ObjectSpec, ...]
    clients: tuple[ClientSpec, ...]
    adjacency: dict[str, set[str]]
    resolution_mode: str = "p2p"  # "p2p" | "broadcast"
    caching: bool = True
    p2p: bool = True
    overhearing: bool = False
    zipf_theta: float = 0.8
    costs: LinkCosts = LinkCosts()
    cell: CellSpec | None = None
    default_ttl: float | None = None
    tick_interval: int = 1
    read_window: int = 256
    history_burnin: int = 12
    fidelity_config: dict | None = None
    schema_id: str = SCHEMA_ID

    def index_scheme(self) -> air_schedule.IndexScheme:
        cell = self.cell
        if cell.scheme == "one_m":
            return air_schedule.one_m(cell.m)
        return air_schedule.IndexScheme(cell.scheme)


# The largest mtbu and stdv_mtbu a source may have. The burn-in sums its
# draws (``_UpdateProcess``) and the update statistics square the intervals'
# deviations from their mean (``UpdateLog._compute_stats``): past
# sqrt(float max) ~ 1.3e154 a square is inf, and mtbu 1e308 sums to -inf.
# At 1e150 a draw even 100 standard deviations out stays below 1.1e152,
# so the squares of 10^4 such intervals still sum to a finite number.
_MAX_MTBU = 1e150
# The most writes a run may ask of one source. An update process writes once
# per mtbu of simulated time, so a run of duration_slots expects about
# duration_slots / mtbu writes per object: mtbu below duration_slots / 10**6
# asks for more than a million (mtbu 1e-9 over 400 slots asks for 4e11, and
# once a draw is below the float spacing at next_update the loop never ends).
_MAX_WRITES_PER_OBJECT = 10**6

_TOP_KEYS = {
    "schema_id", "seed", "duration_slots", "objects", "clients", "adjacency",
    "resolution_mode", "toggles", "workload", "costs", "cell", "cache",
    "history_burnin", "fidelity",
}
_OBJECT_KEYS = {"object_id", "mtbu", "stdv_mtbu", "reachable"}
_OBJECTS_COMPACT_KEYS = {"count", "mtbu", "stdv_mtbu", "mtbu_range", "id_prefix"}
_CLIENT_KEYS = {
    "client_id", "cache_capacity", "policy", "default_qos", "request_rate",
    "qos", "providers",
}
_CLIENTS_COMPACT_KEYS = {
    "count", "cache_capacity", "policy", "default_qos", "request_rate", "qos",
    "id_prefix",
}
_CELL_KEYS = {
    "channels", "scheme", "m", "slot_duration", "dedicated_index_channel",
    "total_bandwidth", "request_size", "threshold", "batching_window",
    "replan_interval", "cost_model",
}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _mapping(value, where: str, errs: list[str]) -> dict:
    """``value`` if it is a mapping; otherwise a violation and ``{}``."""
    if isinstance(value, dict):
        return value
    errs.append(f"{where}: must be a mapping, got {type(value).__name__}")
    return {}


def _number(
    section: dict, key: str, default, where: str, errs: list[str], kind=float,
    allow_inf: bool = False,
):
    """``section[key]``, or ``default`` if absent, converted by ``kind``.

    A value that is not a number (a string, a boolean, a container, null)
    or that ``kind`` cannot hold is a violation and reads as ``default``, so
    later checks see a well-typed document. An integer field takes only an
    integral value (``4.0`` reads as 4, ``2.7`` is a violation) of at most
    ``sys.maxsize`` in magnitude. NaN fails every comparison, so the range
    checks downstream would let it through: it is a violation for every
    field, and so is an infinity unless ``allow_inf``, where +inf means "no
    limit".
    """
    value = section.get(key, default)
    label = f"{where}.{key}" if where else key
    if kind is int:
        if _is_number(value) and (
            isinstance(value, numbers.Integral)
            or math.isfinite(value) and value == int(value)
        ):
            if abs(value) <= sys.maxsize:
                return int(value)
            errs.append(f"{label}: must be at most {sys.maxsize} in magnitude, "
                        f"got {value!r}")
            return default
        errs.append(f"{label}: must be an integer, got {value!r}")
        return default
    if _is_number(value):
        try:
            number = float(value)
        except OverflowError:
            pass
        else:
            if math.isfinite(number) or (allow_inf and number == math.inf):
                return number
            need = "finite or inf" if allow_inf else "finite"
            errs.append(f"{where}: {key} must be {need}, got {value!r}")
            return default
    errs.append(f"{label}: must be a number, got {value!r}")
    return default


def _flag(section: dict, key: str, default: bool, where: str, errs: list[str]) -> bool:
    """``section[key]``, or ``default`` if absent; anything but a boolean is a
    violation and reads as ``default`` (``bool("no")`` would read as true)."""
    value = section.get(key, default)
    if isinstance(value, bool):
        return value
    errs.append(f"{where}.{key}: must be a boolean, got {value!r}")
    return default


def _too_many_writes(mtbu: float, min_mtbu: float) -> str:
    return (
        f"{mtbu!r} is below duration_slots / {_MAX_WRITES_PER_OBJECT} = "
        f"{min_mtbu!r}, more than {_MAX_WRITES_PER_OBJECT} writes per object"
    )


def _expand_objects(
    spec, seed: int, min_mtbu: float, errs: list[str]
) -> list[ObjectSpec]:
    if isinstance(spec, dict):
        for key in spec.keys() - _OBJECTS_COMPACT_KEYS:
            errs.append(f"objects: unknown key {key!r}")
        count = _number(spec, "count", 0, "objects", errs, int)
        if count < 0:
            errs.append("objects.count: must be >= 0")
            count = 0
        prefix = spec.get("id_prefix", "obj")
        if "mtbu_range" in spec:
            bounds = spec["mtbu_range"]
            if (
                isinstance(bounds, (list, tuple)) and len(bounds) == 2
                and all(_is_number(x) and math.isfinite(x) for x in bounds)
            ):
                if bounds[0] < min_mtbu:
                    low = _too_many_writes(bounds[0], min_mtbu)
                    errs.append(f"objects.mtbu_range: low end {low}")
                rng = substream(seed, "object-params")
                mtbus = rng.uniform(float(bounds[0]), float(bounds[1]), size=count)
            else:
                errs.append("objects.mtbu_range: must be two finite numbers")
                mtbus = [1.0] * count  # placeholder; the document is rejected
        else:
            mtbus = [_number(spec, "mtbu", 100.0, "objects", errs)] * count
        stdv = _number(
            spec, "stdv_mtbu", 0.2 * float(np.mean(mtbus)) if count else 0.0,
            "objects", errs,
        )
        width = len(str(max(count - 1, 1)))
        return [
            ObjectSpec(f"{prefix}{i:0{width}d}", float(mtbus[i]), stdv)
            for i in range(count)
        ]
    if not isinstance(spec, list):
        errs.append(f"objects: must be a list or a mapping, got {type(spec).__name__}")
        return []
    out = []
    for i, o in enumerate(spec):
        where = f"objects[{i}]"
        if not isinstance(o, dict):
            errs.append(f"{where}: must be a mapping, got {type(o).__name__}")
            continue
        for key in o.keys() - _OBJECT_KEYS:
            errs.append(f"{where}: unknown key {key!r}")
        missing = [key for key in ("object_id", "mtbu") if key not in o]
        for key in missing:
            errs.append(f"{where}: missing key {key!r}")
        if missing:
            continue
        out.append(
            ObjectSpec(
                str(o["object_id"]), _number(o, "mtbu", 100.0, where, errs),
                _number(o, "stdv_mtbu", 0.0, where, errs),
                _flag(o, "reachable", True, where, errs),
            )
        )
    return out


def _expand_clients(spec, errs: list[str]) -> list[ClientSpec]:
    def parse_one(c: dict, where: str, client_id: str) -> ClientSpec | None:
        try:
            policy = PolicyKind(c.get("policy", "lru"))
        except ValueError:
            errs.append(f"{where}: unknown policy {c.get('policy')!r}")
            return None
        qos_d = _mapping(c.get("qos", {}), f"{where}.qos", errs)
        qos = {str(k): _number(qos_d, k, 0.0, f"{where}.qos", errs) for k in qos_d}
        providers = c.get("providers", ())
        if not isinstance(providers, (list, tuple)):
            errs.append(f"{where}.providers: must be a list")
            providers = ()
        return ClientSpec(
            client_id, _number(c, "cache_capacity", 8, where, errs, int), policy,
            _number(c, "default_qos", 0.0, where, errs),
            _number(c, "request_rate", 0.0, where, errs),
            qos, tuple(providers),
        )

    if isinstance(spec, dict):
        for key in spec.keys() - _CLIENTS_COMPACT_KEYS:
            errs.append(f"clients: unknown key {key!r}")
        count = _number(spec, "count", 0, "clients", errs, int)
        if count < 0:
            errs.append("clients.count: must be >= 0")
            count = 0
        prefix = spec.get("id_prefix", "client")
        width = len(str(max(count - 1, 1)))
        template = parse_one(spec, "clients", prefix) if count else None
        if template is None:
            return []
        return [
            replace(
                template, client_id=f"{prefix}{i:0{width}d}",
                qos_overrides=dict(template.qos_overrides),
            )
            for i in range(count)
        ]
    if not isinstance(spec, list):
        errs.append(f"clients: must be a list or a mapping, got {type(spec).__name__}")
        return []
    out = []
    for i, c in enumerate(spec):
        if not isinstance(c, dict):
            errs.append(f"clients[{i}]: must be a mapping, got {type(c).__name__}")
            continue
        for key in c.keys() - _CLIENT_KEYS:
            errs.append(f"clients[{i}]: unknown key {key!r}")
        if "client_id" not in c:
            errs.append(f"clients[{i}]: missing key 'client_id'")
            continue
        parsed = parse_one(c, f"clients[{i}]", str(c["client_id"]))
        if parsed is not None:
            out.append(parsed)
    return out


def _expand_adjacency(
    spec, client_ids: list[str], errs: list[str]
) -> dict[str, set[str]]:
    if spec is None:
        return {cid: set() for cid in client_ids}
    if not isinstance(spec, dict):
        errs.append(f"adjacency: must be a mapping, got {type(spec).__name__}")
        return {cid: set() for cid in client_ids}
    if spec.get("kind") == "ring":
        degree = _number(spec, "degree", 2, "adjacency", errs, int)
        half = degree // 2
        n = len(client_ids)
        adj: dict[str, set[str]] = {cid: set() for cid in client_ids}
        for i, cid in enumerate(client_ids):
            for step in range(1, half + 1):
                adj[cid].add(client_ids[(i + step) % n])
                adj[cid].add(client_ids[(i - step) % n])
            adj[cid].discard(cid)
        return adj
    adj = {cid: set() for cid in client_ids}
    known = set(client_ids)
    for cid, neighbors in spec.items():
        if cid == "kind":
            errs.append(f"adjacency: unknown topology kind {spec.get('kind')!r}")
            return adj
        if cid not in known:
            errs.append(f"adjacency: unknown client {cid!r}")
            continue
        if not isinstance(neighbors, (list, tuple)):
            errs.append(f"adjacency[{cid}]: must be a list")
            continue
        for nid in neighbors:
            if nid not in known:
                errs.append(f"adjacency[{cid}]: unknown neighbour {nid!r}")
            elif nid != cid:
                adj[cid].add(nid)
    # symmetrize: radio links are bidirectional
    for cid, neighbors in list(adj.items()):
        for nid in neighbors:
            adj[nid].add(cid)
    return adj


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a parsed scenario document, collecting every violation."""
    errs: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError(["scenario document must be a mapping"])
    for key in data.keys() - _TOP_KEYS:
        errs.append(f"unknown key {key!r}")
    schema_id = data.get("schema_id", SCHEMA_ID)
    if schema_id != SCHEMA_ID:
        errs.append(f"schema_id: expected {SCHEMA_ID!r}, got {schema_id!r}")

    seed = _number(data, "seed", 0, "", errs, int)
    if seed < 0:
        errs.append("seed: must be >= 0")
        seed = 0
    duration = _number(data, "duration_slots", 0, "", errs, int)
    if duration < 0:
        errs.append("duration_slots: must be >= 0")
        duration = 0

    min_mtbu = duration / _MAX_WRITES_PER_OBJECT
    objects = _expand_objects(data.get("objects", []), seed, min_mtbu, errs)
    # _number rejects a NaN or infinite field, but a draw from an extreme
    # mtbu_range, or the stdv derived from it, can still overflow: such a
    # parameter would loop forever, run silently or crash the run
    for i, o in enumerate(objects):
        if not 0 < o.mtbu <= _MAX_MTBU:
            errs.append(f"objects[{i}]: mtbu must be finite and in (0, {_MAX_MTBU:g}]")
        elif o.mtbu < min_mtbu:
            errs.append(f"objects[{i}]: mtbu {_too_many_writes(o.mtbu, min_mtbu)}")
        if not 0 <= o.stdv_mtbu <= _MAX_MTBU:
            errs.append(
                f"objects[{i}]: stdv_mtbu must be finite and in [0, {_MAX_MTBU:g}]"
            )
    if len({o.object_id for o in objects}) != len(objects):
        errs.append("objects: duplicate object ids")

    clients = _expand_clients(data.get("clients", []), errs)
    if len({c.client_id for c in clients}) != len(clients):
        errs.append("clients: duplicate client ids")
    object_ids = {o.object_id for o in objects}
    for i, c in enumerate(clients):
        if c.cache_capacity < 1:
            errs.append(f"clients[{i}]: cache_capacity must be >= 1")
        if not 0.0 <= c.default_qos <= 1.0:
            errs.append(f"clients[{i}]: default_qos must be in [0, 1]")
        if not (math.isfinite(c.request_rate) and c.request_rate >= 0):
            errs.append(f"clients[{i}]: request_rate must be finite and >= 0")
        for oid, q in c.qos_overrides.items():
            if oid not in object_ids:
                errs.append(f"clients[{i}].qos: unknown object {oid!r}")
            if not 0.0 <= q <= 1.0:
                errs.append(f"clients[{i}].qos[{oid}]: must be in [0, 1]")
        for oid in c.providers:
            if oid not in object_ids:
                errs.append(f"clients[{i}].providers: unknown object {oid!r}")

    adjacency = _expand_adjacency(
        data.get("adjacency"), [c.client_id for c in clients], errs
    )

    toggles = _mapping(data.get("toggles", {}), "toggles", errs)
    for key in toggles.keys() - {"p2p", "caching", "overhearing"}:
        errs.append(f"toggles: unknown key {key!r}")
    caching = _flag(toggles, "caching", True, "toggles", errs)
    p2p = _flag(toggles, "p2p", True, "toggles", errs)
    overhearing = _flag(toggles, "overhearing", False, "toggles", errs)
    workload = _mapping(data.get("workload", {}), "workload", errs)
    for key in workload.keys() - {"zipf_theta"}:
        errs.append(f"workload: unknown key {key!r}")
    zipf_theta = _number(workload, "zipf_theta", 0.8, "workload", errs)
    if zipf_theta < 0:
        errs.append("workload.zipf_theta: must be >= 0")

    costs_d = _mapping(data.get("costs", {}), "costs", errs)
    for key in costs_d.keys() - {"local", "hop", "source"}:
        errs.append(f"costs: unknown key {key!r}")
    costs = LinkCosts(
        _number(costs_d, "local", 0.0, "costs", errs),
        _number(costs_d, "hop", 1.0, "costs", errs),
        _number(costs_d, "source", 5.0, "costs", errs),
    )
    if min(costs.local, costs.hop, costs.source) < 0:
        errs.append("costs: latencies must be >= 0")

    mode = data.get("resolution_mode", "p2p")
    if mode not in ("p2p", "broadcast"):
        errs.append(f"resolution_mode: must be 'p2p' or 'broadcast', got {mode!r}")

    cell = None
    if "cell" in data:
        c = _mapping(data["cell"], "cell", errs)
        for key in c.keys() - _CELL_KEYS:
            errs.append(f"cell: unknown key {key!r}")
        cm = _mapping(c.get("cost_model", {}), "cell.cost_model", errs)
        try:
            cost_model = retrieval.CostModel(
                _number(cm, "switch_slots", 1, "cell.cost_model", errs, int),
                _number(cm, "e_active", 1.0, "cell.cost_model", errs),
                _number(cm, "e_doze", 0.05, "cell.cost_model", errs),
                _number(cm, "e_switch", 0.5, "cell.cost_model", errs),
            )
        except ValueError as e:
            errs.append(f"cell.cost_model: {e}")
            cost_model = retrieval.CostModel()
        cell = CellSpec(
            channels=_number(c, "channels", 1, "cell", errs, int),
            scheme=str(c.get("scheme", "one_m")),
            m=_number(c, "m", 1, "cell", errs, int),
            slot_duration=_number(c, "slot_duration", 1.0, "cell", errs),
            dedicated_index_channel=_flag(c, "dedicated_index_channel", False, "cell", errs),
            total_bandwidth=_number(c, "total_bandwidth", 10.0, "cell", errs),
            request_size=_number(c, "request_size", 0.25, "cell", errs),
            threshold=_number(c, "threshold", math.inf, "cell", errs, allow_inf=True),
            batching_window=_number(c, "batching_window", 0.0, "cell", errs),
            replan_interval=_number(c, "replan_interval", 0, "cell", errs, int),
            cost_model=cost_model,
        )
        if cell.channels < 1:
            errs.append("cell.channels: must be >= 1")
        if cell.total_bandwidth <= 0:
            errs.append("cell.total_bandwidth: must be > 0")
        if cell.request_size < 0:
            errs.append("cell.request_size: must be >= 0")
        if cell.batching_window < 0:
            errs.append("cell.batching_window: must be >= 0")
        if cell.scheme not in ("none", "distributed", "once_per_cycle", "one_m"):
            errs.append(f"cell.scheme: unknown scheme {cell.scheme!r}")
        if cell.m < 1:
            errs.append("cell.m: must be >= 1")
        if cell.dedicated_index_channel and cell.channels < 2:
            errs.append("cell.dedicated_index_channel: needs at least 2 channels")
        if mode == "broadcast" and cell.scheme == "none":
            errs.append(
                "cell.scheme: 'none' has no index for resolution_mode 'broadcast' "
                "to read"
            )
    elif mode == "broadcast":
        errs.append("resolution_mode 'broadcast' requires a cell section")
    if mode == "broadcast" and not objects:
        errs.append("resolution_mode 'broadcast' requires at least one object")

    cache_d = _mapping(data.get("cache", {}), "cache", errs)
    for key in cache_d.keys() - {"default_ttl", "tick_interval", "read_window"}:
        errs.append(f"cache: unknown key {key!r}")
    default_ttl = None
    if cache_d.get("default_ttl") is not None:
        default_ttl = _number(cache_d, "default_ttl", None, "cache", errs, allow_inf=True)
        if default_ttl is not None and default_ttl <= 0:
            errs.append("cache.default_ttl: must be > 0")
    tick_interval = _number(cache_d, "tick_interval", 1, "cache", errs, int)
    if tick_interval < 1:
        errs.append("cache.tick_interval: must be >= 1")
    read_window = _number(cache_d, "read_window", 256, "cache", errs, int)
    if read_window < 2:
        errs.append("cache.read_window: must be >= 2")

    burnin = _number(data, "history_burnin", 12, "", errs, int)
    if burnin < 3:
        errs.append("history_burnin: need at least 3 writes for usable statistics")

    if data.get("fidelity") is not None:
        _read_fidelity(data["fidelity"], errs)

    if errs:
        raise ScenarioError(errs)
    return Scenario(
        seed=seed,
        duration_slots=duration,
        objects=tuple(objects),
        clients=tuple(clients),
        adjacency=adjacency,
        resolution_mode=mode,
        caching=caching,
        p2p=p2p,
        overhearing=overhearing,
        zipf_theta=zipf_theta,
        costs=costs,
        cell=cell,
        default_ttl=default_ttl,
        tick_interval=tick_interval,
        read_window=read_window,
        history_burnin=burnin,
        fidelity_config=data.get("fidelity"),
        schema_id=schema_id,
    )


# --------------------------------------------------------------------------
# Workload
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """Per-client request streams: (slot, object_id), reproducible from seed."""

    per_client: dict[str, tuple[tuple[int, str], ...]]

    def total_requests(self) -> int:
        return sum(len(v) for v in self.per_client.values())


def zipf_pmf(n: int, theta: float) -> np.ndarray:
    """Popularity of ranks 0..n-1, proportional to 1 / (rank+1)^theta."""
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), theta)
    return weights / weights.sum()


def generate_workload(scenario: Scenario) -> Workload:
    """Poisson arrivals per client with Zipf-distributed object popularity."""
    n = len(scenario.objects)
    pmf = zipf_pmf(n, scenario.zipf_theta) if n else None
    ids = [o.object_id for o in scenario.objects]
    per_client: dict[str, tuple[tuple[int, str], ...]] = {}
    for spec in sorted(scenario.clients, key=lambda c: c.client_id):
        rng = substream(scenario.seed, "workload", spec.client_id)
        times: list[float] = []
        if spec.request_rate > 0 and n:
            t = rng.exponential(1.0 / spec.request_rate)
            while t < scenario.duration_slots:
                times.append(t)
                t += rng.exponential(1.0 / spec.request_rate)
        if times:
            picks = rng.choice(n, size=len(times), p=pmf)
            stream = tuple((int(t), ids[k]) for t, k in zip(times, picks))
        else:
            stream = ()
        per_client[spec.client_id] = stream
    return Workload(per_client)


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

class QueryRecord(NamedTuple):
    """One query's outcome: a plain tuple whose fields also have names.

    ``Metrics.to_json_bytes`` writes a record as a JSON object whose keys are
    these names in sorted order; ``Metrics.to_csv_bytes`` writes the fields
    in ``Metrics.CSV_COLUMNS`` order.
    """

    query_id: int
    client_id: str
    object_id: str
    issued_at: int
    resolution: str
    latency_slots: float
    staleness_slots: float
    qos: float
    qos_met: bool
    p_nm: float


# How json.dumps spells what float.__repr__ writes as nan, inf and -inf.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value) -> str:
    """``value`` as ``json.dumps`` writes a string, boolean or number.

    A float goes through ``float.__repr__``, not ``repr``, so a subclass
    such as a numpy scalar reads as the plain float it is, as json has it.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} {value!r} is not a JSON scalar")


def _csv_text(value) -> str:
    """``value`` as a CSV field: numbers as in the JSON, booleans as 1 and 0.

    A string holding a comma, a double quote or a line break is quoted, its
    quotes doubled (RFC 4180); any other string is written as it is.
    """
    if isinstance(value, str):
        if any(c in value for c in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    return _json_text(value)


def _column_texts(values: list, text) -> list[str]:
    """``text(v)`` for each of ``values``, one field of many records.

    The same texts, with no Python call per value when the column has one
    exact type: ints and floats are what their own ``__repr__`` writes in
    both formats, unless non-finite, and floats, strings and booleans
    repeat, so each distinct one is written once. Equal floats write alike
    except 0.0 and -0.0, which one key would merge, so a float column
    holding a zero and any negative value is written value by value.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {float}:
        distinct = list(set(values))
        table = dict(zip(distinct, map(float.__repr__, distinct)))
        if _NON_FINITE.keys().isdisjoint(table.values()) and not (
            0.0 in table and -1.0 in map(math.copysign, repeat(1.0), values)
        ):
            return list(map(table.__getitem__, values))
    elif kinds in ({str}, {bool}):
        table = {v: text(v) for v in set(values)}
        return list(map(table.__getitem__, values))
    return list(map(text, values))


# Records are written this many at a time, so the per-field texts held at
# once stay small next to the output they make.
_ROW_BATCH = 4096


def _record_rows(
    records: list[QueryRecord], fields: list[int], text, row: str, sep: str
) -> Iterator[bytes]:
    """``sep.join(row % texts for each record)``, encoded, a batch at a time.

    ``texts`` are ``text`` (``_json_text`` or ``_csv_text``) of the record's
    fields at the indices ``fields``, which ``row``'s ``%s`` take in order.
    Each row is one ``str.join`` of its parts, the pieces of ``row`` between
    the fields and the fields' texts, with no ``%`` per row.
    """
    *pieces, end = row.split("%s")
    for start in range(0, len(records), _ROW_BATCH):
        batch = records[start : start + _ROW_BATCH]
        streams = []
        for piece, i in zip(pieces, fields):
            # not zip(*batch): an iterator per record is a tracked object,
            # and enough of them set off the garbage collector mid-write
            column = list(map(itemgetter(i), batch))
            streams += (repeat(piece), _column_texts(column, text))
        streams.append(repeat(end))
        yield sep.join(map("".join, zip(*streams))).encode()


# A record as json.dumps(sort_keys=True) writes it as a dict
_JSON_KEYS = sorted(QueryRecord._fields)
_JSON_FIELDS = [QueryRecord._fields.index(key) for key in _JSON_KEYS]
_JSON_ROW = "{" + ", ".join(f"{_json_text(key)}: %s" for key in _JSON_KEYS) + "}"


@dataclass
class Metrics:
    schema_id: str
    seed: int
    duration_slots: int
    records: list[QueryRecord] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    per_client_energy: dict[str, float] = field(default_factory=dict)
    plan: dict | None = None
    fidelity_selection: dict | None = None

    def summary(self) -> dict[str, float]:
        served = [r for r in self.records if r.resolution != "unresolved"]
        cached = [
            r for r in self.records
            if r.resolution in ("local_cache", "neighbor_cache")
        ]
        violations = sum(1 for r in cached if not r.qos_met)
        out = {
            "issued": float(self.counters.get("issued", 0)),
            "answered": float(self.counters.get("answered", 0)),
            "unresolved": float(self.counters.get("unresolved", 0)),
            "source_load": float(self.counters.get("source_load", 0)),
            "requeries": float(self.counters.get("requeries", 0)),
            "qos_violations": float(violations),
            "mean_latency_slots": (
                sum(r.latency_slots for r in served) / len(served) if served else 0.0
            ),
            "mean_staleness_slots": (
                sum(r.staleness_slots for r in served) / len(served) if served else 0.0
            ),
            "broadcast_slots": float(self.counters.get("broadcast_slots", 0)),
            "on_demand_responses": float(self.counters.get("on_demand_responses", 0)),
            "batching_saved": float(self.counters.get("batching_saved", 0)),
            "total_energy": float(sum(self.per_client_energy.values())),
        }
        return out

    def to_json_bytes(self) -> bytes:
        """The run as the bytes of ``json.dumps(..., sort_keys=True)``.

        Everything but the records goes through ``json.dumps``, written in
        two parts around the ``"records"`` key. The records are written
        straight from their fields by ``_json_text``'s rules, with no dict
        per record.
        """
        head = {
            "schema_id": self.schema_id,
            "seed": self.seed,
            "duration_slots": self.duration_slots,
            "counters": self.counters,
            "per_client_energy": self.per_client_energy,
            "plan": self.plan,
            "fidelity_selection": self.fidelity_selection,
            "summary": self.summary(),
        }
        before = json.dumps({k: v for k, v in head.items() if k < "records"},
                            sort_keys=True)
        after = json.dumps({k: v for k, v in head.items() if k > "records"},
                           sort_keys=True)
        rows = b", ".join(
            _record_rows(self.records, _JSON_FIELDS, _json_text, _JSON_ROW, ", ")
        )
        return b"".join((
            before[:-1].encode(), b', "records": [', rows, b"], ",
            after[1:].encode(),
        ))

    CSV_COLUMNS = (
        "query_id", "client_id", "object_id", "resolution",
        "latency_slots", "staleness_slots", "qos", "qos_met",
    )

    def to_csv_bytes(self) -> bytes:
        """One row per record in ``CSV_COLUMNS``, then the summary rows.

        Fields are written by ``_csv_text``.
        """
        fields = [QueryRecord._fields.index(c) for c in self.CSV_COLUMNS]
        row = ",".join(["%s"] * len(fields))
        lines = [",".join(self.CSV_COLUMNS).encode()]
        lines.extend(_record_rows(self.records, fields, _csv_text, row, "\n"))
        for key, value in self.summary().items():
            lines.append(f"summary,*,{key},{_csv_text(value)},,,,".encode())
        for client in sorted(self.per_client_energy):
            energy = _csv_text(self.per_client_energy[client])
            lines.append(f"summary,{_csv_text(client)},energy,{energy},,,,".encode())
        return b"\n".join(lines) + b"\n"


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------

class _UpdateProcess:
    """Normal inter-update draws, resampled if nonpositive."""

    def __init__(self, spec: ObjectSpec, seed: int, burnin: int):
        self.spec = spec
        self.rng = substream(seed, "updates", spec.object_id)
        self.source = SourceObject(spec.object_id, reachable=spec.reachable)
        draws = [self._draw() for _ in range(burnin)]
        acc = 0.0
        past = []
        for d in draws:
            acc += d
            past.append(-acc)
        for t in sorted(past):
            self.source.write(t)
        self.next_update = past[0] + self._draw()

    def _draw(self) -> float:
        if self.spec.stdv_mtbu == 0.0:
            return self.spec.mtbu
        while True:
            d = float(self.rng.normal(self.spec.mtbu, self.spec.stdv_mtbu))
            if d > 0:
                return d

    def advance_to(self, t: float) -> None:
        while self.next_update <= t:
            self.source.write(self.next_update)
            self.next_update += self._draw()


def initial_rates(scenario: Scenario) -> dict[str, float]:
    """Per-object arrival rates before any are observed.

    The clients' total request rate spread over the objects by the Zipf
    popularity of their position in the scenario.
    """
    total_rate = sum(c.request_rate for c in scenario.clients)
    pmf = zipf_pmf(len(scenario.objects), scenario.zipf_theta)
    return {
        o.object_id: total_rate * float(pmf[i])
        for i, o in enumerate(scenario.objects)
    }


def plan_cell(
    scenario: Scenario, rates: dict[str, float]
) -> tuple[broadcast_plan.PartitionResult, air_schedule.BroadcastProgram | None]:
    """Partition the cell's objects at ``rates`` and lay out the published set.

    The program is None when nothing is published.
    """
    demands = [
        broadcast_plan.ObjectDemand(o.object_id, rates.get(o.object_id, 0.0))
        for o in scenario.objects
    ]
    params = broadcast_plan.PlanParams(
        scenario.cell.total_bandwidth, scenario.cell.request_size,
        scenario.cell.threshold,
    )
    result = broadcast_plan.partition_objects(demands, params)
    program = None
    if result.partition.published:
        program = air_schedule.build_program(
            list(result.partition.published),
            scenario.cell.channels,
            scenario.index_scheme(),
            scenario.cell.slot_duration,
            scenario.cell.dedicated_index_channel,
        )
    return result, program


_FIDELITY_KEYS = {
    "parameters", "utilities", "weights", "suppliers", "models", "limits",
    "continuous_points",
}


def _read_fidelity(section, errs: list[str]) -> tuple | None:
    """``(domain, suppliers, utilities, weights, models, limits, grid points)``
    of a ``fidelity`` section, or None; every problem is a violation in ``errs``.
    """
    config = _mapping(section, "fidelity", errs)
    for key in config.keys() - _FIDELITY_KEYS:
        errs.append(f"fidelity: unknown key {key!r}")
    limits = _mapping(config.get("limits") or {}, "fidelity.limits", errs)
    for resource in limits:
        _number(limits, resource, None, "fidelity.limits", errs, allow_inf=True)
    points = _number(config, "continuous_points", 32, "fidelity", errs, int)
    if points < 1:
        errs.append("fidelity.continuous_points: must be >= 1")
    missing = [k for k in ("parameters", "utilities", "weights", "suppliers")
               if k not in config]
    errs.extend(f"fidelity: missing key {k!r}" for k in missing)
    before = len(errs)
    domain = fidelity.read_domain(config.get("parameters", []), "fidelity.parameters", errs)
    if missing or len(errs) > before:
        return None
    params = domain.parameters
    try:
        utilities = []
        for p in params:
            u = config["utilities"][p.name]
            if "table" in u:
                table = {v: u["table"][str(v)] for v in p.values}
                utilities.append(fidelity.table_utility(table))
            else:
                lo, hi = u["sigmoid"]
                if not all(_is_number(v) for v in p.values):
                    raise ValueError(f"{p.name}: a sigmoid needs numeric values")
                utilities.append(fidelity.sigmoid_utility(float(lo), float(hi)))
        weights = [config["weights"][p.name] for p in params]
        suppliers = [
            fidelity.Supplier(s["supplier_id"], s["f_s"], domain)
            for s in config["suppliers"]
        ]
        models = [
            fidelity.ResourceModel(
                m["resource_id"], tuple(m["coefficients"]), m["intercept"]
            )
            for m in config.get("models", [])
        ]
    except KeyError as e:
        errs.append(f"fidelity: missing key {e}")
        return None
    except (TypeError, ValueError) as e:
        errs.append(f"fidelity: {e}")
        return None
    if not all(_is_number(w) and 0 <= w <= 1 for w in weights):
        errs.append("fidelity.weights: must be numbers in [0, 1]")
    if not suppliers:
        errs.append("fidelity.suppliers: need at least one supplier")
    for m in models:
        terms = (*m.coefficients, m.intercept)
        if len(terms) != len(params) + 1 or not all(
            _is_number(x) and math.isfinite(x) for x in terms
        ):
            errs.append(
                f"fidelity.models: {m.resource_id!r} needs a finite coefficient "
                f"for each of the {len(params)} parameters and a finite intercept"
            )
    return domain, suppliers, utilities, weights, models, limits, points


def _select_fidelity(config: dict) -> dict:
    """The utility-maximal supplier and configuration.

    Every supplier offers the one domain under the one set of models and
    limits, so the grid is filtered once for all of them.
    """
    # scenario_from_dict has read the section without a violation
    domain, suppliers, utilities, weights, models, limits, points = (
        _read_fidelity(config, [])
    )
    feasible = fidelity.feasible_configs(models, domain, limits, points)
    result = fidelity.maximize_utility(
        suppliers, utilities, weights, {s.supplier_id: feasible for s in suppliers}
    )
    return {
        "supplier_id": result.supplier_id,
        "config": list(result.config),
        "utility": result.utility,
        "evaluated_suppliers": list(result.evaluated_suppliers),
    }


def run(scenario: Scenario) -> Metrics:
    """Advance the slot clock through one fully seeded scenario.

    A peer-to-peer run advances an object's update process to slot ``t``
    just before a query or TTL requery reads it at ``t`` and ticks only
    TTL-policy caches, in client order: the metrics are byte-identical to
    advancing every process and ticking every cache in every slot.

    A broadcast run builds no update processes, caches or information
    managers. It consults no cache, and an aired or multicast answer
    carries the source's current write, so its staleness is 0 whatever
    the source's history. A published object is read at its next slot
    after an index segment (``air_schedule.locate``), costed by
    ``retrieval.account``; any other query waits for its batch.

    Raises ``InvariantError`` if an answer carries a write from after its
    slot, or if answered plus unresolved queries differ from those issued.
    """
    metrics = Metrics(scenario.schema_id, scenario.seed, scenario.duration_slots)
    counters = metrics.counters
    for key in (
        "issued", "answered", "unresolved", "source_load", "requeries",
        "ttl_drops", "broadcast_slots", "on_demand_responses", "batching_saved",
        "index_reads",
    ):
        counters[key] = 0
    broadcast = scenario.resolution_mode == "broadcast"

    processes: dict[str, _UpdateProcess] = {}
    ims: dict[str, InformationManager] = {}
    ttl_caches: list[ClientCache] = []  # in client order, the order of ticks
    if not broadcast:
        processes = {
            o.object_id: _UpdateProcess(o, scenario.seed, scenario.history_burnin)
            for o in scenario.objects
        }
        cell = P2PCell(
            scenario.adjacency, {oid: p.source for oid, p in processes.items()},
            scenario.costs, p2p_enabled=scenario.p2p,
            overhearing=scenario.overhearing,
        )
        for spec in sorted(scenario.clients, key=lambda c: c.client_id):
            cache = None
            if scenario.caching:
                cache = ClientCache(
                    spec.cache_capacity, spec.policy,
                    qos_for=lambda oid, s=spec: s.qos_overrides.get(oid, s.default_qos),
                    default_ttl=scenario.default_ttl,
                    read_window=scenario.read_window,
                )
                if spec.policy in TTL_POLICIES:
                    ttl_caches.append(cache)
            im = InformationManager(spec.client_id, cell, cache)
            for service in spec.providers:
                im.register_provider(service)
            ims[spec.client_id] = im

    workload = generate_workload(scenario)
    by_slot: dict[int, list[tuple[str, str]]] = {}
    for cid in sorted(workload.per_client):
        for slot, oid in workload.per_client[cid]:
            by_slot.setdefault(slot, []).append((cid, oid))

    specs = {c.client_id: c for c in scenario.clients}
    energy = {c.client_id: 0.0 for c in scenario.clients}

    program = None
    batching = None
    if broadcast:
        cost = scenario.cell.cost_model
        plan_result, program = plan_cell(scenario, initial_rates(scenario))
        batching = broadcast_plan.BatchingServer(scenario.cell.batching_window)
        metrics.plan = _plan_summary(plan_result)
        observed_requests = {o.object_id: 0 for o in scenario.objects}
        pending: dict[str, list[tuple[int, str, int, float]]] = {}

    if scenario.fidelity_config is not None:
        metrics.fidelity_selection = _select_fidelity(scenario.fidelity_config)

    query_seq = 0

    def record(
        qid: int, cid: str, oid: str, issued: int, resolution: str,
        latency: float, write_t: float | None, p_nm: float, qos: float,
    ) -> None:
        if write_t is None:
            staleness = 0.0
        else:
            staleness = processes[oid].source.t_last_update - write_t
        met = accepts(qos, p_nm) if resolution != "unresolved" else False
        metrics.records.append(
            QueryRecord(qid, cid, oid, issued, resolution, latency, staleness,
                        qos, met, p_nm)
        )

    def deliver(fired: list[broadcast_plan.Multicast]) -> None:
        """Answer the queries each fired multicast carries, oldest first."""
        for multicast in fired:
            oid = multicast.object_id
            batch = pending[oid][: multicast.batch_size]
            pending[oid] = pending[oid][multicast.batch_size :]
            counters["source_load"] += 1
            for qid, cid, issued, qos in batch:
                counters["answered"] += 1
                record(qid, cid, oid, issued, "on_demand",
                       multicast.response_time - issued + 1.0, None, 1.0, qos)

    for t in range(scenario.duration_slots):
        if (
            broadcast
            and scenario.cell.replan_interval > 0
            and t > 0
            and t % scenario.cell.replan_interval == 0
        ):
            observed_rates = {oid: n / t for oid, n in observed_requests.items()}
            new_result, new_program = plan_cell(scenario, observed_rates)
            if new_result.feasible:
                program = new_program
                metrics.plan = _plan_summary(new_result)

        for cid, oid in by_slot.get(t, ()):
            qid = query_seq
            query_seq += 1
            counters["issued"] += 1
            qos = specs[cid].qos_overrides.get(oid, specs[cid].default_qos)

            if broadcast:
                observed_requests[oid] += 1
                if program is None or oid not in program.directory:
                    batching.submit(oid, t)
                    pending.setdefault(oid, []).append((qid, cid, t, qos))
                    continue
                counters["index_reads"] += 1
                # with a dedicated index channel every data read switches to
                # another channel; otherwise the index is on the data channel
                switches = int(program.dedicated_index_channel)
                idx_end = air_schedule.next_index_read_end(program, t)
                data = air_schedule.locate(
                    program, idx_end + cost.switch_slots * switches, oid
                )
                index_read = retrieval.PlannedRead(
                    air_schedule.INDEX, 0 if switches else data.channel, idx_end
                )
                plan = retrieval.RetrievalPlan(
                    (index_read, retrieval.PlannedRead(oid, data.channel, data.slot)),
                    start_slot=t, total_slots=data.slot - t + 1,
                    switches=switches, active_slots=2,
                )
                energy[cid] += retrieval.account(plan, cost)["energy"]
                counters["answered"] += 1
                record(qid, cid, oid, t, "broadcast", float(plan.total_slots),
                       None, 1.0, qos)
                continue

            processes[oid].advance_to(t)
            outcome = ims[cid].resolve_query(oid, qos, t)
            if outcome.payload_write_time > t + 1:
                raise InvariantError(
                    f"query {qid}: {oid} answered with a write at "
                    f"{outcome.payload_write_time}, after slot {t}"
                )
            if outcome.resolution is Resolution.UNRESOLVED:
                counters["unresolved"] += 1
                record(qid, cid, oid, t, "unresolved", outcome.latency,
                       None, 0.0, qos)
            else:
                counters["answered"] += 1
                if outcome.resolution is Resolution.SOURCE:
                    counters["source_load"] += 1
                record(qid, cid, oid, t, outcome.resolution.value,
                       outcome.latency, outcome.payload_write_time,
                       outcome.p_nm, qos)

        if broadcast:
            deliver(batching.advance(t))

        if ttl_caches and t % max(1, scenario.tick_interval) == 0:
            for cache in ttl_caches:
                for action in cache.tick(t):
                    if action.action == "drop":
                        counters["ttl_drops"] += 1
                        continue
                    process = processes[action.object_id]
                    if not process.source.reachable:
                        continue
                    process.advance_to(t)
                    payload, stats = process.source.read(t)
                    cache.insert(
                        CacheEntry(action.object_id, payload, stats, cached_at=t), t
                    )
                    counters["requeries"] += 1
                    counters["source_load"] += 1

    if broadcast:
        deliver(batching.advance(math.inf))  # batches still open at the end
        counters["on_demand_responses"] = batching.responses_sent
        counters["batching_saved"] = batching.saved
        if program is not None:
            counters["broadcast_slots"] = program.n_channels * scenario.duration_slots

    metrics.records.sort(key=lambda r: r.query_id)
    metrics.per_client_energy = energy
    if counters["answered"] + counters["unresolved"] != counters["issued"]:
        raise InvariantError(
            f"{counters['answered']} answered + {counters['unresolved']} "
            f"unresolved != {counters['issued']} issued"
        )
    return metrics


def _plan_summary(result: broadcast_plan.PartitionResult) -> dict:
    return {
        "published_count": len(result.partition.published),
        "published": list(result.partition.published),
        "b_b": result.partition.b_b,
        "b_d": result.partition.b_d,
        "expected_access_raw": result.access.raw,
        "expected_access_normalized": result.access.normalized,
        "feasible": result.feasible,
    }
