"""Deterministic slot-based engine composing the cell's mechanisms.

A scenario fully determines a run: sources with normally distributed
inter-update times (resampled if nonpositive), clients with caches and QoS
settings arranged in a neighbour topology, and either a peer-to-peer
resolution chain or a broadcast cell with a published/on-demand split,
air indexing, and request batching. Every random draw comes from a named
substream of the master seed, so toggling one subsystem never perturbs
another's stream and identical seeds give byte-identical metrics; a
block of request gaps leaves the floats and generator state of scalar draws.

The engine's work follows the events, not slots times population. A run's
records are named columns, one per ``QueryRecord`` field (``Metrics.columns``).
``run`` walks the queries once, in issue order, from four of them: each
client's draws are kept as arrays (``generate_workload``) and merged by one
stable sort of their slots (``_queries``), with no tuple per query. All else
that is timed is a stop on ``run``'s one agenda, a heap that the cell's mode
pushes to: a slot's stops are made before its queries, so what follows the
queries of slot t is the stop at t + 1. The mode's steps fill the five
outcome columns, one entry per query, from which the run is checked,
summarised and written, a batch of rows at a time; a field whose values in a
batch all write alike is written once for the batch. A column the engine
knows to hold one value (a broadcast run's staleness, QoS met and P_NM, and
the QoS when every asking client has one default and no overrides) is a
``Repeated``, the value and its length, written once per batch with no look
at its entries. No code visits a slot
in which nothing happens. A source holds
its schedule of write times (``_write_times``) and applies the writes due
by ``now`` itself when it is read at ``now``, and only caches under a TTL
policy are ticked, each only at the tick slots from its next expiry on
(``ClientCache.next_expiry``). Both are exact: a source's draws come from
its own substream, so deferring them changes no value, and a ``tick``
before the next expiry, or under another policy, does nothing. A source
draws its normals 32 at a time from its substream, a write adds one
interval to its kept statistics, and a cache re-derives an object's mean
read interval only after that object's reads change; each sum is made in
the order a full recomputation uses, so the floats are the same. A broadcast
cell builds no sources, caches or peer-to-peer managers at all: an aired
or multicast answer is the source's current write, fresh by construction,
so no broadcast metric depends on a source's history. Its aired reads go
through the retrieval library's per-program reader
(``retrieval.aired_reader``), slot arithmetic over a table of index waits
by phase; each distinct read shape is planned and costed once
(``retrieval.after_index``, ``retrieval.account``), and the plan must
agree with the reader. The cell replans only at its replan slots, each a
stop, which counts the demand since the last one in one array pass. An
on-demand answer's time is fixed when its request joins a batch, so every
broadcast query is recorded in the slot it is issued, and the batching
server sends its multicasts once, at the stop that ends the run; a broadcast
answer appends only its resolution and latency, and that stop stores the
outcomes that every broadcast answer shares.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import numbers
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial, reduce
from heapq import heappop, heappush
from itertools import accumulate, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add
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
    reachable: bool


@dataclass(frozen=True)
class ClientSpec:
    client_id: str
    cache_capacity: int
    policy: PolicyKind
    default_qos: float
    request_rate: float
    qos_overrides: dict[str, float]
    providers: tuple[str, ...]

    def qos(self, object_id: str) -> float:
        """The QoS setting this client asks of copies of ``object_id``."""
        return self.qos_overrides.get(object_id, self.default_qos)


@dataclass(frozen=True)
class CellSpec:
    channels: int
    scheme: str
    m: int
    dedicated_index_channel: bool
    total_bandwidth: float
    request_size: float
    threshold: float
    batching_window: float
    replan_interval: int
    cost_model: retrieval.CostModel


@dataclass(frozen=True)
class Scenario:
    schema_id: str
    seed: int
    duration_slots: int
    resolution_mode: str  # "p2p" | "broadcast"
    history_burnin: int
    objects: tuple[ObjectSpec, ...]
    clients: tuple[ClientSpec, ...]
    adjacency: dict[str, set[str]]
    caching: bool
    p2p: bool
    overhearing: bool
    zipf_theta: float
    costs: LinkCosts
    cell: CellSpec | None
    default_ttl: float | None
    tick_interval: int
    read_window: int


# The largest mtbu and stdv_mtbu a source may have. The burn-in sums its
# draws (``_write_times``) and the update statistics square the intervals'
# deviations from their mean (``UpdateLog._compute_stats``): past
# sqrt(float max) ~ 1.3e154 a square is inf, and mtbu 1e308 sums to -inf.
# At 1e150 a draw even 100 standard deviations out stays below 1.1e152,
# so the squares of 10^4 such intervals still sum to a finite number.
_MAX_MTBU = 1e150
# The largest link cost, batching window and radio energy. A query's latency
# is at most 2 * hop, source, or the batching window plus one slot. An aired
# read pays each of its slots at most the largest energy, and it spans fewer
# than 10^19 slots: at most two cycles of at most 2 * 10^6 slots each, and
# one channel switch of at most sys.maxsize slots. A mean latency, and a
# client's or the cell's energy, adds at most 10^6 clients times 10^6
# requests, so at 1e270 the largest sum is below 10^12 * 10^19 * 1e270 =
# 1e301, finite; 1e308 made them inf.
_MAX_COST = 1e270
# The largest total bandwidth. The split search
# (``broadcast_plan.optimize_bandwidth_split``) adds its two bracket ends and
# doubles the broadcast bandwidth, each at most the total: past float max / 2
# ~ 9e307 either is inf, and 1e308 made the bracket's midpoint inf and the
# on-demand service rate -inf. The closed-form screen beside the search
# (``broadcast_plan._screen``) stays below the total too: its points lie
# inside the stable interval, and a value that overflows leaves the prefix
# to the search.
_MAX_BANDWIDTH = 1e307
# The most draws a run may ask of one stream: writes of one source, or
# requests of one client. A source writes once per mtbu of simulated time
# and a client asks request_rate times per slot, so mtbu below
# duration_slots / 10**6, or request_rate above 10**6 / duration_slots,
# asks for more than a million (mtbu 1e-9 over 400 slots asks for 4e11,
# and once a draw is below the float spacing at next_update the loop never
# ends). It also caps what the reader or the engine expands before any
# other check: history_burnin, the burn-in writes of each source, and the
# count of a compact objects or clients block. And it caps duration_slots:
# the engine visits only slots where something happens, but a TTL-requery
# cache refreshes each entry once per ttl, and a cell replans once per
# replan_interval, so a run's events still grow with its length. It caps
# cell.channels too: a program costs nothing per empty channel, but
# ``dump-program`` prints a row for each. And it caps the objects of a
# list, as of a compact block, which ``_MAX_ZIPF_THETA`` relies on, the
# clients of a list, as of a block, which ``_MAX_COST`` relies on, and each
# client's providers and listed neighbours, so no list is read past it.
_MAX_EVENTS = 10**6
# The largest Zipf exponent. ``zipf_pmf`` raises each rank up to the object
# count, at most 10^6, to the power theta; 10^(6 theta) stays below float
# max ~ 1.8e308 for theta up to 308.25 / 6 ~ 51.4, and 1e308 overflowed.
_MAX_ZIPF_THETA = 51.0

_REQUIRED = object()


class Field(NamedTuple):
    """One field of a scenario section: its kind, default and range.

    ``kind`` is ``int``, ``float``, ``bool``, ``str``, ``list``, a tuple of
    the allowed values, or ``object`` for a value its own reader checks.
    An absent field reads as ``default``, and so does null where that is
    None; a field with no default must be present. A number must be at
    least ``lo``, above ``above`` and at most ``hi`` where these are set,
    and finite, or also +inf ("no limit") where ``no_limit``.
    """

    key: str
    kind: object
    default: object = _REQUIRED
    lo: float | None = None
    hi: float | None = None
    above: float | None = None
    no_limit: bool = False


_CLIENT_FIELDS = (
    Field("cache_capacity", int, 8, lo=1),
    Field("policy", tuple(p.value for p in PolicyKind), "lru"),
    Field("default_qos", float, 0.0, lo=0, hi=1),
    Field("request_rate", float, 0.0, lo=0),
    Field("qos", object, {}),
)
# Every field of a scenario document, by the path of its section: "" is the
# top level, "objects" and "clients" the compact blocks, a path ending in
# "[]" each entry of a list, and "adjacency" the ring generator.
SCHEMA: dict[str, dict[str, Field]] = {
    section: {f.key: f for f in fields}
    for section, fields in {
        "": (
            Field("schema_id", (SCHEMA_ID,), SCHEMA_ID),
            Field("seed", int, 0, lo=0), Field("duration_slots", int, 0, lo=0, hi=_MAX_EVENTS),
            Field("resolution_mode", ("p2p", "broadcast"), "p2p"),
            Field("history_burnin", int, 12, lo=3, hi=_MAX_EVENTS),
            Field("objects", object, []), Field("clients", object, []),
            Field("adjacency", object, None), Field("toggles", object, {}),
            Field("workload", object, {}), Field("costs", object, {}),
            Field("cell", object, None), Field("cache", object, {}),
        ),
        "objects": (
            Field("count", int, 0, lo=0, hi=_MAX_EVENTS),
            Field("mtbu", float, 100.0, above=0, hi=_MAX_MTBU),
            # absent: 0.2 times the mean mtbu
            Field("stdv_mtbu", float, None, lo=0, hi=_MAX_MTBU),
            Field("mtbu_range", object, None), Field("id_prefix", str, "obj"),
        ),
        "objects[]": (
            Field("object_id", str), Field("mtbu", float, above=0, hi=_MAX_MTBU),
            Field("stdv_mtbu", float, 0.0, lo=0, hi=_MAX_MTBU),
            Field("reachable", bool, True),
        ),
        "clients": (
            Field("count", int, 0, lo=0, hi=_MAX_EVENTS), Field("id_prefix", str, "client"),
            *_CLIENT_FIELDS,
        ),
        "clients[]": (
            Field("client_id", str), *_CLIENT_FIELDS, Field("providers", list, []),
        ),
        "adjacency": (Field("kind", ("ring",)), Field("degree", int, 2, lo=0)),
        "toggles": (
            Field("caching", bool, True), Field("p2p", bool, True),
            Field("overhearing", bool, False),
        ),
        "workload": (Field("zipf_theta", float, 0.8, lo=0, hi=_MAX_ZIPF_THETA),),
        "costs": (
            Field("local", float, 0.0, lo=0, hi=_MAX_COST),
            Field("hop", float, 1.0, lo=0, hi=_MAX_COST),
            Field("source", float, 5.0, lo=0, hi=_MAX_COST),
        ),
        "cell": (
            Field("channels", int, 1, lo=1, hi=_MAX_EVENTS), Field("m", int, 1, lo=1),
            Field("scheme", ("none", "distributed", "once_per_cycle", "one_m"), "one_m"),
            Field("dedicated_index_channel", bool, False),
            Field("total_bandwidth", float, 10.0, above=0, hi=_MAX_BANDWIDTH),
            Field("request_size", float, 0.25, lo=0),
            Field("threshold", float, math.inf, no_limit=True),
            Field("batching_window", float, 0.0, lo=0, hi=_MAX_COST),
            Field("replan_interval", int, 0),  # 0 or less: never replan
            Field("cost_model", object, {}),
        ),
        "cell.cost_model": (
            Field("switch_slots", int, 1, lo=1),
            Field("e_active", float, 1.0, lo=0, hi=_MAX_COST),
            Field("e_doze", float, 0.05, lo=0, hi=_MAX_COST),
            Field("e_switch", float, 0.5, lo=0, hi=_MAX_COST),
        ),
        "cache": (
            Field("default_ttl", float, None, above=0, no_limit=True),
            Field("tick_interval", int, 1, lo=1), Field("read_window", int, 256, lo=2),
        ),
        # not a scenario section: each parameter entry of the domain of an
        # ``aircell fit`` sample log; values for a discrete parameter, finite
        # lo < hi for a continuous one
        "domain[]": (
            Field("name", str), Field("kind", ("discrete", "continuous")),
            Field("values", list, None), Field("lo", float, None), Field("hi", float, None),
        ),
    }.items()
}
# a value read under its own key: of a ``qos`` map, of a sample's
# ``consumption``, and one that its reader checks
_QOS = Field("", float, 0.0, lo=0, hi=1)
_AMOUNT = Field("", float, 0.0)
_ANY = Field("", object)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether ``value`` is a number a float holds as a finite value."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an int past float max
        return False


def _mapping(value, where: str, errs: list[str]) -> dict:
    """``value`` if it is a mapping; otherwise a violation and ``{}``."""
    if isinstance(value, dict):
        return value
    errs.append(f"{where}: must be a mapping, got {type(value).__name__}")
    return {}


def _listed(value, where: str, errs: list[str]) -> list:
    """``value`` if it is a list; otherwise a violation and ``[]``."""
    if isinstance(value, list):
        return value
    errs.append(f"{where}: must be a list, got {type(value).__name__}")
    return []


def _too_long(items, where: str, noun: str, errs: list[str]) -> bool:
    """Whether the list ``items`` holds more than ``_MAX_EVENTS`` entries,
    which is then one violation in ``errs``; no entry is read."""
    if len(items) <= _MAX_EVENTS:
        return False
    errs.append(f"{where}: must hold at most {_MAX_EVENTS} {noun}, got {len(items)}")
    return True


def _unknown(ids, known, what: str, errs: list[str]) -> None:
    """One violation in ``errs`` for each distinct entry of ``ids`` that is
    not a string in ``known``, however often it is repeated."""
    errs.extend(dict.fromkeys(
        f"{what} {x!r}" for x in ids if not (isinstance(x, str) and x in known)
    ))


_KIND_NAMES = {bool: "a boolean", str: "a string", list: "a list"}


def _read_value(value, where: str, row: Field, errs: list[str]):
    """``value`` of field ``row`` of section ``where``, converted by kind.

    A violation goes to ``errs`` and reads as ``row.default``, so later
    checks see a well-typed document. A number field takes no boolean, an
    integer field only an integral value (``4.0`` reads as 4, ``2.7`` is a
    violation) of at most ``sys.maxsize`` in magnitude. NaN fails every
    range check, so it is a violation for every field, and so is an
    infinity unless ``row.no_limit``. A string must encode as UTF-8, so the
    CSV writer can write it.
    """
    kind = row.kind
    if kind is object or value is None and row.default is None:
        return value
    label = f"{where}.{row.key}" if where else row.key
    if kind is int:
        if _is_number(value) and (
            isinstance(value, numbers.Integral)
            or math.isfinite(value) and value == int(value)
        ):
            if abs(value) <= sys.maxsize:
                return _in_range(int(value), label, row, errs)
            need = f"at most {sys.maxsize} in magnitude"
        else:
            need = "an integer"
    elif kind is float:
        try:
            number = float(value) if _is_number(value) else None
        except OverflowError:  # an int past float max
            number = None
        if number is None:
            need = "a number"
        elif math.isfinite(number) or row.no_limit and number == math.inf:
            return _in_range(number, label, row, errs)
        else:
            need = "finite or inf" if row.no_limit else "finite"
    elif isinstance(kind, tuple):
        if not isinstance(value, bool) and value in kind:
            return value
        *rest, need = map(repr, kind)
        if rest:
            need = f"{', '.join(rest)} or {need}"
    elif not isinstance(value, kind):
        need = _KIND_NAMES[kind]
    elif kind is not str or not any("\ud800" <= c <= "\udfff" for c in value):
        return value
    else:  # a lone surrogate, which no UTF-8 encoder writes
        need = "valid UTF-8"
    errs.append(f"{label}: must be {need}, got {value!r}")
    return row.default


def _in_range(number, label: str, row: Field, errs: list[str]):
    """``number`` if it is within ``row``'s bounds; otherwise a violation in
    ``errs`` and ``row.default``."""
    above, lo, hi = row.above, row.lo, row.hi
    if ((above is None or number > above) and (lo is None or number >= lo)
            and (hi is None or number <= hi)):
        return number
    if hi is None:
        need = f"> {above}" if above is not None else f">= {lo}"
    else:
        need = f"in ({above}, {hi}]" if above is not None else f"in [{lo}, {hi}]"
    errs.append(f"{label}: must be {need}")
    return row.default


def _read_section(section, where: str, rows: dict[str, Field], errs: list[str]):
    """The fields ``rows`` declare, read from the mapping ``section``.

    Every field reads as its default unless present. An unknown key, a
    missing required field and every bad value is a violation in ``errs``.
    None if a required field is missing or bad; a ``section`` that is not
    a mapping is one violation and has no field.
    """
    values = {key: row.default for key, row in rows.items()}
    prefix = f"{where}: " if where else ""
    for key, value in _mapping(section, where, errs).items():
        row = rows.get(key)
        if row is None:
            errs.append(f"{prefix}unknown key {key!r}")
        else:
            values[key] = _read_value(value, where, row, errs)
    if all(value is not _REQUIRED for value in values.values()):
        return values
    if isinstance(section, dict):
        errs.extend(
            f"{prefix}missing key {key!r}" for key, row in rows.items()
            if row.default is _REQUIRED and key not in section
        )
    return None


def _read_map(section, where: str, row: Field, errs: list[str]) -> dict:
    """A mapping of any keys, each value read as ``row`` under its key."""
    return {
        str(key): _read_value(value, where, row._replace(key=str(key)), errs)
        for key, value in _mapping(section, where, errs).items()
    }


def _named(names, row: Field) -> dict[str, Field]:
    """Rows for a mapping that holds ``row`` under each of ``names`` and no
    other key."""
    return {name: row._replace(key=name, default=_REQUIRED) for name in names}


def _numbered(prefix: str, count: int) -> list[str]:
    """The ids of a compact block: ``prefix`` and a zero-padded index."""
    width = len(str(max(count - 1, 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


def _check_writes(mtbu: float, prefix: str, min_mtbu: float, errs: list[str]) -> None:
    """A violation in ``errs`` if a source that writes once per ``mtbu`` would
    write more than ``_MAX_EVENTS`` times."""
    if mtbu < min_mtbu:
        errs.append(
            f"{prefix}{mtbu!r} is below duration_slots / {_MAX_EVENTS} = "
            f"{min_mtbu!r}, more than {_MAX_EVENTS} writes per object"
        )


def _expand_objects(
    spec, seed: int, min_mtbu: float, errs: list[str]
) -> list[ObjectSpec]:
    if isinstance(spec, dict):
        start = len(errs)
        v = _read_section(spec, "objects", SCHEMA["objects"], errs)
        count, bounds = v["count"], v["mtbu_range"]
        if "mtbu" in spec and "mtbu_range" in spec:  # the raw keys: mtbu has a default
            errs.append("objects: give mtbu or mtbu_range, not both")
        if bounds is None:
            # only once the block reads cleanly: a refused mtbu reads as the default
            if len(errs) == start:
                _check_writes(v["mtbu"], "objects.mtbu: ", min_mtbu, errs)
            mtbus = [v["mtbu"]] * count
        elif not (isinstance(bounds, (list, tuple)) and len(bounds) == 2
                  and all(map(_is_number, bounds))
                  and 0 < bounds[0] <= bounds[1] <= _MAX_MTBU):
            errs.append(
                f"objects.mtbu_range: must be two numbers, 0 < low <= high <= {_MAX_MTBU:g}"
            )
            mtbus = [1.0] * count  # placeholder; the document is rejected
        else:
            _check_writes(bounds[0], "objects.mtbu_range: low end ", min_mtbu, errs)
            rng = substream(seed, "object-params")
            mtbus = rng.uniform(float(bounds[0]), float(bounds[1]), size=count)
        stdv = v["stdv_mtbu"]
        if stdv is None:
            stdv = 0.2 * float(np.mean(mtbus)) if count else 0.0
        ids = _numbered(v["id_prefix"], count)
        return [
            ObjectSpec(ids[i], float(mtbus[i]), stdv, reachable=True) for i in range(count)
        ]
    if not isinstance(spec, list):
        errs.append(f"objects: must be a list or a mapping, got {type(spec).__name__}")
        return []
    if _too_long(spec, "objects", "objects", errs):
        return []
    objects = []
    for i, entry in enumerate(spec):
        v = _read_section(entry, f"objects[{i}]", SCHEMA["objects[]"], errs)
        if v is not None:
            _check_writes(v["mtbu"], f"objects[{i}].mtbu: ", min_mtbu, errs)
            objects.append(ObjectSpec(**v))
    return objects


def _expand_clients(
    spec, duration: int, object_ids: set[str], errs: list[str]
) -> list[ClientSpec]:
    def read(c, where: str, rows: dict[str, Field]) -> dict | None:
        v = _read_section(c, where, rows, errs)
        if v is not None:
            v["qos"] = _read_map(v["qos"], f"{where}.qos", _QOS, errs)
            if v["request_rate"] * duration > _MAX_EVENTS:
                errs.append(
                    f"{where}.request_rate: {v['request_rate']!r} is above "
                    f"{_MAX_EVENTS} / duration_slots = {_MAX_EVENTS / duration!r}, "
                    f"more than {_MAX_EVENTS} requests per client"
                )
            if "providers" in v and _too_long(v["providers"], f"{where}.providers",
                                              "objects", errs):
                v["providers"] = []
            for key in ("qos", "providers"):
                _unknown(v.get(key, ()), object_ids, f"{where}.{key}: unknown object", errs)
        return v

    def client(v: dict, client_id: str) -> ClientSpec:
        return ClientSpec(
            client_id, v["cache_capacity"], PolicyKind(v["policy"]),
            v["default_qos"], v["request_rate"], dict(v["qos"]),
            tuple(v.get("providers", ())),
        )

    if isinstance(spec, dict):
        v = read(spec, "clients", SCHEMA["clients"])
        return [client(v, cid) for cid in _numbered(v["id_prefix"], v["count"])]
    if not isinstance(spec, list):
        errs.append(f"clients: must be a list or a mapping, got {type(spec).__name__}")
        return []
    if _too_long(spec, "clients", "clients", errs):
        return []
    entries = (
        read(c, f"clients[{i}]", SCHEMA["clients[]"]) for i, c in enumerate(spec)
    )
    return [client(v, v["client_id"]) for v in entries if v is not None]


def _expand_adjacency(
    spec, client_ids: list[str], errs: list[str]
) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {cid: set() for cid in client_ids}
    if spec is None:
        return adj
    if not isinstance(spec, dict):
        errs.append(f"adjacency: must be a mapping, got {type(spec).__name__}")
        return adj
    # a string under "kind" names a generator; a list is the neighbours of a
    # client named "kind"
    kind = spec.get("kind")
    if isinstance(kind, str):
        if kind != "ring":
            errs.append(f"adjacency: unknown topology kind {kind!r}")
            return adj
        degree = _read_section(spec, "adjacency", SCHEMA["adjacency"], errs)["degree"]
        n = len(client_ids)
        # a step past n // 2 reaches a neighbour a smaller step already has
        for i, cid in enumerate(client_ids):
            for step in range(1, min(degree // 2, n // 2) + 1):
                adj[cid].add(client_ids[(i + step) % n])
                adj[cid].add(client_ids[(i - step) % n])
            adj[cid].discard(cid)
        return adj
    known = set(client_ids)
    for cid, neighbors in spec.items():
        if cid not in known:
            errs.append(f"adjacency: unknown client {cid!r}")
            continue
        if not isinstance(neighbors, (list, tuple)):
            errs.append(f"adjacency[{cid}]: must be a list")
            continue
        if _too_long(neighbors, f"adjacency[{cid}]", "neighbours", errs):
            continue
        _unknown(neighbors, known, f"adjacency[{cid}]: unknown neighbour", errs)
        adj[cid].update(
            nid for nid in neighbors if isinstance(nid, str) and nid in known and nid != cid
        )
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
    top = _read_section(data, "", SCHEMA[""], errs)
    mode, duration = top["resolution_mode"], top["duration_slots"]

    min_mtbu = duration / _MAX_EVENTS
    objects = _expand_objects(top["objects"], top["seed"], min_mtbu, errs)
    object_ids = {o.object_id for o in objects}
    if len(object_ids) != len(objects):
        errs.append("objects: duplicate object ids")

    clients = _expand_clients(top["clients"], duration, object_ids, errs)
    if len({c.client_id for c in clients}) != len(clients):
        errs.append("clients: duplicate client ids")

    adjacency = _expand_adjacency(
        top["adjacency"], [c.client_id for c in clients], errs
    )
    toggles = _read_section(top["toggles"], "toggles", SCHEMA["toggles"], errs)
    workload = _read_section(top["workload"], "workload", SCHEMA["workload"], errs)
    costs = LinkCosts(**_read_section(top["costs"], "costs", SCHEMA["costs"], errs))

    cell = None
    if top["cell"] is not None:
        c = _read_section(top["cell"], "cell", SCHEMA["cell"], errs)
        start = len(errs)
        cm = _read_section(
            c.pop("cost_model"), "cell.cost_model", SCHEMA["cell.cost_model"], errs
        )
        # compared only as given: a refused energy reads as its default
        if len(errs) == start and not cm["e_doze"] < cm["e_active"]:
            errs.append("cell.cost_model.e_doze: must be below e_active")
        # None only in a document that is rejected
        cell = CellSpec(**c, cost_model=None if errs else retrieval.CostModel(**cm))
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

    cache = _read_section(top["cache"], "cache", SCHEMA["cache"], errs)

    if errs:
        raise ScenarioError(errs)
    return Scenario(
        schema_id=top["schema_id"], seed=top["seed"], duration_slots=duration,
        resolution_mode=mode, history_burnin=top["history_burnin"],
        objects=tuple(objects), clients=tuple(clients), adjacency=adjacency,
        costs=costs, cell=cell, **toggles, **workload, **cache,
    )


# --------------------------------------------------------------------------
# Workload
# --------------------------------------------------------------------------

def zipf_pmf(n: int, theta: float) -> np.ndarray:
    """Popularity of ranks 0..n-1, proportional to 1 / (rank+1)^theta."""
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), theta)
    return weights / weights.sum()


def _arrival_times(rng: np.random.Generator, rate: float, duration: int) -> np.ndarray:
    """Poisson arrival times below ``duration``, as adding one
    ``rng.exponential(1 / rate)`` gap at a time makes them: ``np.cumsum``
    adds each block of gaps in order onto the last time kept. The last block
    is drawn again up to the gap past the end, where a scalar loop stops."""
    scale, expected = 1.0 / rate, rate * duration
    size = min(_MAX_EVENTS, int(expected + 4.0 * math.sqrt(expected)) + 16)
    blocks, kept, t = [], size, 0.0
    while kept == size:  # every gap of the block ended below the duration
        state = rng.bit_generator.state
        gaps = rng.exponential(scale, size)
        gaps[0] += t
        ends = np.cumsum(gaps)
        kept = int(np.searchsorted(ends, duration))  # how many end below it
        blocks.append(ends[:kept])
        t = ends[-1]
    rng.bit_generator.state = state
    rng.exponential(scale, kept + 1)
    return np.concatenate(blocks)


# A client's requests as two columns: the slot each is issued in, and the
# scenario index of the object it asks for.
Stream = tuple[np.ndarray, np.ndarray]


def generate_workload(scenario: Scenario) -> dict[str, Stream]:
    """Each active client's request stream, by client id in order, as two
    int64 columns: the slot of each request, its arrival time truncated as
    ``int`` does, and the scenario index of its object. Reproducible from
    the seed: Poisson arrivals with Zipf-distributed object popularity, the
    gaps drawn in blocks (``_arrival_times``) and the objects in one
    search of uniform draws in the popularity's cumulative distribution,
    made once per run: the picks and generator state of
    ``rng.choice(n, size, p=pmf)``, which checks and sums ``pmf`` again on
    each call. A client with no request rate, or any client of a scenario
    with no objects, builds no generator and has no entry."""
    n = len(scenario.objects)
    per_client: dict[str, Stream] = {}
    if not n:
        return per_client
    cdf = zipf_pmf(n, scenario.zipf_theta).cumsum()
    cdf /= cdf[-1]
    for spec in sorted(scenario.clients, key=lambda c: c.client_id):
        if spec.request_rate > 0:
            rng = substream(scenario.seed, "workload", spec.client_id)
            times = _arrival_times(rng, spec.request_rate, scenario.duration_slots)
            picks = cdf.searchsorted(rng.random(len(times)), side="right")
            per_client[spec.client_id] = (times.astype(np.int64), picks)
    return per_client


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

class QueryRecord(NamedTuple):
    """One query's outcome: a plain tuple whose fields also have names.

    ``Metrics.columns`` holds a run's records as one column per field.
    ``Metrics.write_json`` writes a record as a JSON object whose keys are
    these names in sorted order; ``Metrics.write_csv`` writes the fields in
    ``Metrics.CSV_COLUMNS`` order.
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


class Repeated(Sequence):
    """``n`` copies of ``value``, as a read-only sequence that holds one.

    A column the engine knows to hold one value for every query is stored
    as its value and its length. It reads as ``[value] * n`` does: an
    integer index past either end raises ``IndexError``, a slice is again a
    ``Repeated``, and iterating yields ``value`` ``n`` times.
    """

    __slots__ = ("value", "_n")

    def __init__(self, value, n: int):
        self.value, self._n = value, n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        picked = range(self._n)[index]  # raises as a list's index does
        return Repeated(self.value, len(picked)) if isinstance(picked, range) else self.value

    def __iter__(self) -> Iterator:
        return repeat(self.value, self._n)


# The columns a mode's steps fill, one entry per query in query id order:
# the p2p ``answer`` appends to all five, and the broadcast ``answer`` to
# the first two, its ``finish`` stop storing the other three, which hold
# one value for every answer, as ``Repeated``.
_OUTCOMES = ("resolution", "latency_slots", "staleness_slots", "qos_met", "p_nm")


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
    return json.dumps(value)


def _column_texts(values, text) -> list[str] | str:
    """``text(v)`` for each of ``values``, one field of many records, or one
    ``str`` when every value writes alike.

    A nonempty ``Repeated`` is ``text`` of its one value, with no look at
    its entries: its copies write alike, whatever the value. Otherwise the
    same texts, with no Python call per value when the column has one
    exact type: ints and floats are what their own ``__repr__`` writes in
    both formats, unless non-finite, and floats, strings and booleans
    repeat, so each distinct one is written once, a JSON string by the C
    encoder ``json.dumps`` calls for a ``str``. Equal floats write alike
    except 0.0 and -0.0, which one key would merge, so a float column
    holding a zero and any negative value is written value by value. A
    float, string or boolean column whose values all write alike by these
    rules is returned as that one text. Equal values of different types,
    such as 1, 1.0 and True, write unlike and are never folded. Int
    columns are not checked: a run's are its query ids and slots, which
    vary.
    """
    if type(values) is Repeated and values:
        return text(values.value)
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {float}:
        distinct = list(set(values))
        table = dict(zip(distinct, map(float.__repr__, distinct)))
        if not all(map(math.isfinite, distinct)) or (
            0.0 in table and -1.0 in map(math.copysign, repeat(1.0), values)
        ):
            return list(map(text, values))
    elif kinds in ({str}, {bool}):
        if kinds == {str} and text is json.dumps:
            text = encode_basestring_ascii
        distinct = list(set(values))
        table = dict(zip(distinct, map(text, distinct)))
    else:
        return list(map(text, values))
    if len(table) == 1:  # every value writes alike
        (only,) = table.values()
        return only
    return list(map(table.__getitem__, values))


# Records are written this many at a time, so the per-field texts held at
# once stay small next to the output they make.
_ROW_BATCH = 4096


def _record_rows(columns: list[Sequence], text, row: str, sep: str) -> Iterator[bytes]:
    """``sep.join(row % texts for each record)``, encoded, a batch at a time.

    ``texts`` are ``text`` (``json.dumps`` or ``_csv_text``) of a record's
    entries in ``columns``, picked by name from ``Metrics.columns`` in the
    order ``row``'s ``%s`` take them. Each batch slices the columns, with
    no tuple per record, and each row is one ``str.join`` of its parts, the
    pieces of ``row`` between the fields and the fields' texts, with no
    ``%`` per row. A field that ``_column_texts`` writes as one text for the
    batch is joined into the pieces around it once, so it adds no part to
    each row's join.
    """
    *pieces, end = row.split("%s")
    total = len(columns[0])
    for start in range(0, total, _ROW_BATCH):
        stop = start + _ROW_BATCH
        streams, fixed = [], ""  # fixed: the row's text since the last stream
        for piece, column in zip(pieces, columns):
            texts = _column_texts(column[start:stop], text)
            if isinstance(texts, str):
                fixed += piece + texts
            else:
                streams += (repeat(fixed + piece), texts)
                fixed = ""
        # bounded, so a batch whose every field writes alike has its rows
        streams.append(repeat(fixed + end, min(stop, total) - start))
        yield sep.join(map("".join, zip(*streams))).encode()


# A record as json.dumps(sort_keys=True) writes it as a dict
_JSON_KEYS = sorted(QueryRecord._fields)
_JSON_ROW = "{" + ", ".join(f"{json.dumps(key)}: %s" for key in _JSON_KEYS) + "}"


@dataclass
class Metrics:
    """A run's account: its counters, energy and plan, and its records as
    ``columns``, one per ``QueryRecord`` field by name in field order, with
    one entry per query; the ``query_id`` column is the range of positions,
    and a column the engine knows to hold one value is a ``Repeated``, which
    the writers write once per batch. ``summary`` and the writers pick the
    columns they read by name, and read each as any sequence."""

    schema_id: str
    seed: int
    duration_slots: int
    # no queries: never appended to
    columns: dict[str, Sequence] = field(
        default_factory=lambda: dict.fromkeys(QueryRecord._fields, ()))
    counters: dict[str, float] = field(default_factory=dict)
    per_client_energy: dict[str, float] = field(default_factory=dict)
    plan: dict | None = None

    @property
    def records(self) -> Iterator[QueryRecord]:
        """The records in query id order, each a ``QueryRecord`` built from
        its entries in the columns when it is reached, so iterating holds
        one record at a time and never the whole list."""
        return map(QueryRecord._make, zip(*self.columns.values()))

    def summary(self) -> dict[str, float]:
        """The run's totals and means, in one pass over the outcome columns;
        each float sum adds left to right, as ``sum()`` does before CPython
        3.12, whose ``sum()`` is compensated."""
        served = violations = 0
        latency = staleness = 0
        c = self.columns
        for kind, lat, stale, met in zip(c["resolution"], c["latency_slots"],
                                         c["staleness_slots"], c["qos_met"]):
            if kind != "unresolved":
                served += 1
                latency += lat
                staleness += stale
                if not met and kind in _CACHED_TEXTS:
                    violations += 1
        return {
            "issued": float(self.counters.get("issued", 0)),
            "answered": float(self.counters.get("answered", 0)),
            "unresolved": float(self.counters.get("unresolved", 0)),
            "source_load": float(self.counters.get("source_load", 0)),
            "requeries": float(self.counters.get("requeries", 0)),
            "qos_violations": float(violations),
            "mean_latency_slots": latency / served if served else 0.0,
            "mean_staleness_slots": staleness / served if served else 0.0,
            "broadcast_slots": float(self.counters.get("broadcast_slots", 0)),
            "on_demand_responses": float(self.counters.get("on_demand_responses", 0)),
            "batching_saved": float(self.counters.get("batching_saved", 0)),
            "total_energy": float(reduce(add, self.per_client_energy.values(), 0)),
        }

    def write_json(self, fp) -> dict[str, float]:
        """The run as the bytes of ``json.dumps(..., sort_keys=True)``, written
        to the binary file ``fp``; returns the summary it wrote.

        Everything but the records goes through ``json.dumps``, written in
        two parts around the ``"records"`` key. The records are written
        straight from the columns by ``json.dumps``, with no dict or tuple
        per record, a batch at a time.
        """
        summary = self.summary()
        head = {
            "schema_id": self.schema_id,
            "seed": self.seed,
            "duration_slots": self.duration_slots,
            "counters": self.counters,
            "per_client_energy": self.per_client_energy,
            "plan": self.plan,
            # no selection is made; the key stays so the bytes stay those pinned
            "fidelity_selection": None,
            "summary": summary,
        }
        before = json.dumps({k: v for k, v in head.items() if k < "records"},
                            sort_keys=True)
        after = json.dumps({k: v for k, v in head.items() if k > "records"},
                           sort_keys=True)
        write = fp.write
        write(before[:-1].encode() + b', "records": [')
        rows = _record_rows([self.columns[k] for k in _JSON_KEYS], json.dumps, _JSON_ROW, ", ")
        write(next(rows, b""))
        for batch in rows:
            write(b", ")
            write(batch)
        write(b"], " + after[1:].encode())
        return summary

    def to_json_bytes(self) -> bytes:
        """What ``write_json`` writes, as one bytes object."""
        buffer = io.BytesIO()
        self.write_json(buffer)
        return buffer.getvalue()

    CSV_COLUMNS = (
        "query_id", "client_id", "object_id", "resolution",
        "latency_slots", "staleness_slots", "qos", "qos_met",
    )

    def write_csv(self, fp) -> dict[str, float]:
        """One row per record in ``CSV_COLUMNS``, then the summary rows, each
        line ended, written to the binary file ``fp``; returns the summary it
        wrote.

        Fields are written by ``_csv_text``.
        """
        columns = [self.columns[name] for name in self.CSV_COLUMNS]
        row = ",".join(["%s"] * len(columns))
        write = fp.write
        write(",".join(self.CSV_COLUMNS).encode() + b"\n")
        for batch in _record_rows(columns, _csv_text, row, "\n"):
            write(batch)
            write(b"\n")
        summary = self.summary()
        lines = [f"summary,*,{key},{_csv_text(value)},,,,\n"
                 for key, value in summary.items()]
        for client in sorted(self.per_client_energy):
            energy = _csv_text(self.per_client_energy[client])
            lines.append(f"summary,{_csv_text(client)},energy,{energy},,,,\n")
        write("".join(lines).encode())
        return summary


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------

# Normals drawn at once for a source's write times. The generator is the
# source's own, and numpy's array draw yields the same floats as that many
# scalar draws, so the write times do not depend on this size.
_DRAW_BLOCK = 32


def _write_times(spec: ObjectSpec, seed: int, burnin: int) -> Iterator[float]:
    """A source's write times, in increasing order and without end:
    ``burnin`` writes before slot 0, then one per further inter-update
    draw. Draws are normal, resampled if nonpositive, from the object's own
    substream, so when they are taken changes no value; with zero spread
    numpy's normal draw is the mean itself, bit for bit."""
    rng = substream(seed, "updates", spec.object_id)

    def draws() -> Iterator[float]:
        while True:
            for d in rng.normal(spec.mtbu, spec.stdv_mtbu, _DRAW_BLOCK).tolist():
                if d > 0:
                    yield d

    gaps = draws()
    past = [-acc for acc in accumulate(islice(gaps, burnin))]
    yield from sorted(past)
    t = past[0]
    for gap in gaps:
        t += gap
        yield t


def initial_rates(scenario: Scenario) -> np.ndarray:
    """Per-object arrival rates before any are observed, in scenario order.

    The clients' total request rate, added left to right, spread over the
    objects by the Zipf popularity of their position in the scenario: each
    rate is ``total_rate * float(pmf[i])``, one float64 product.
    """
    total_rate = reduce(add, (c.request_rate for c in scenario.clients), 0)
    return total_rate * zipf_pmf(len(scenario.objects), scenario.zipf_theta)


def cell_catalog(scenario: Scenario) -> broadcast_plan.Catalog:
    """The scenario's object ids in scenario order, sorted once for every
    plan of its cell."""
    return broadcast_plan.Catalog.of([o.object_id for o in scenario.objects])


def plan_cell(
    scenario: Scenario, catalog: broadcast_plan.Catalog, rates: np.ndarray
) -> tuple[broadcast_plan.PartitionResult, air_schedule.BroadcastProgram | None]:
    """Partition the cell's objects at ``rates`` and lay out the published set.

    ``catalog`` is ``cell_catalog(scenario)``, and ``rates`` a float column
    of every object's rate in scenario order, as ``initial_rates`` returns.
    The program is None when nothing is published.
    """
    cell = scenario.cell
    params = broadcast_plan.PlanParams(cell.total_bandwidth, cell.request_size, cell.threshold)
    result = broadcast_plan.partition_objects(catalog, rates, params)
    program = None
    if result.partition.published:
        program = air_schedule.build_program(
            list(result.partition.published),
            cell.channels,
            air_schedule.IndexScheme(cell.scheme, cell.m),
            dedicated_index_channel=cell.dedicated_index_channel,
        )
    return result, program


def read_parameters(spec, where: str, errs: list[str]) -> fidelity.FidelityDomain | None:
    """The domain a list of ``domain[]`` entries describes, or None and
    every violation in ``errs``."""
    before, params = len(errs), []
    for i, entry in enumerate(_listed(spec, where, errs)):
        here, start = f"{where}[{i}]", len(errs)
        v = _read_section(entry, here, SCHEMA["domain[]"], errs)
        if len(errs) > start:
            continue
        needs = ("values",) if v["kind"] == "discrete" else ("lo", "hi")
        missing = [key for key in needs if v[key] is None]
        values = v["values"]
        if missing:
            errs.extend(f"{here}: missing key {key!r}" for key in missing)
        elif v["kind"] == "continuous":
            if not v["lo"] < v["hi"]:
                errs.append(f"{here}: lo must be below hi")
            elif not math.isfinite(v["hi"] - v["lo"]):  # the grid steps would be NaN
                errs.append(f"{here}: hi - lo must be finite")
            else:
                params.append(fidelity.continuous(v["name"], v["lo"], v["hi"]))
        # one kind of value: a string is encoded by its rank and a number as
        # itself, so a mixed list could give two values one coordinate
        elif values and (
            all(isinstance(x, str) for x in values) or all(map(_is_finite, values))
        ) and len(set(values)) == len(values):
            params.append(fidelity.discrete(v["name"], values))
        else:
            errs.append(f"{here}.values: must be distinct strings or finite numbers")
    if len({p.name for p in params}) < len(params):
        errs.append(f"{where}: duplicate parameter names")
    return None if len(errs) > before else fidelity.FidelityDomain(tuple(params))


_SAMPLE_LOG = _named(("domain", "samples"), _ANY)
_SAMPLE = _named(("config", "consumption"), _ANY)


def read_sample_log(doc) -> fidelity.SampleStore:
    """An ``aircell fit`` log's samples, in a store over its ``domain``, a
    parameter list; raises ``ScenarioError`` listing every violation."""
    errs: list[str] = []
    log = _read_section(doc, "sample log", _SAMPLE_LOG, errs)
    domain = log and read_parameters(log["domain"], "domain", errs)
    if domain is None:
        raise ScenarioError(errs)
    store = fidelity.SampleStore(domain)
    # a sample's config holds each parameter, by name, at a value of its domain
    rows = {
        p.name: Field(p.name, p.values) if p.kind == "discrete"
        else Field(p.name, float, lo=p.lo, hi=p.hi) for p in domain.parameters
    }
    for i, sample in enumerate(_listed(log["samples"], "samples", errs)):
        v = _read_section(sample, f"samples[{i}]", _SAMPLE, errs)
        config = v and _read_section(v["config"], f"samples[{i}].config", rows, errs)
        measured = v and _read_map(v["consumption"], f"samples[{i}].consumption", _AMOUNT, errs)
        if v and v["consumption"] == {}:
            errs.append(f"samples[{i}].consumption: must name at least one resource")
        if config is not None and measured:
            fidelity.log_sample(store, list(config.values()), measured)
    if errs:
        raise ScenarioError(errs)
    return store


def _queries(scenario: Scenario) -> dict[str, Sequence]:
    """The workload's queries in issue order: by slot, and by client id
    within a slot, as the columns ``client_id``, ``object_id``, ``issued_at``
    (the slot) and ``qos``; ids are numbered in this order from 0.

    Each client's columns are put end to end in client id order and ordered
    by one stable sort of their slots, which keeps that order within a slot.
    The ids are the scenario's own strings. A query's QoS is its client's
    ``default_qos``; a client with per-object overrides asks ``ClientSpec.qos``
    once for each object it asks for, not once per query. When every client
    that asks has no overrides and a default that writes alike (the same
    type and ``repr``: 0.0 and -0.0 are equal but write unlike), the ``qos``
    column is that one value, ``Repeated``.
    """
    workload = generate_workload(scenario)
    if not workload:
        return {"client_id": [], "object_id": [], "issued_at": [], "qos": []}
    specs = {c.client_id: c for c in scenario.clients}
    clients = [specs[cid] for cid in workload]
    slot_columns, pick_columns = zip(*workload.values())
    counts = list(map(len, slot_columns))
    owner = np.repeat(np.arange(len(clients)), counts)  # each query's client
    slots, picks = np.concatenate(slot_columns), np.concatenate(pick_columns)
    # object arrays, so each query holds the scenario's own Python values
    ids = np.array([o.object_id for o in scenario.objects], dtype=object)
    order = slots.argsort(kind="stable")
    defaults = {(type(c.default_qos), repr(c.default_qos)) for c in clients}
    if len(defaults) == 1 and not any(c.qos_overrides for c in clients):
        qos = Repeated(clients[0].default_qos, len(slots))
    else:
        qos = np.array([c.default_qos for c in clients], dtype=object)[owner]
        for spec, end, count in zip(clients, accumulate(counts), counts):
            if spec.qos_overrides:
                asked, inverse = np.unique(picks[end - count : end], return_inverse=True)
                values = np.array([spec.qos(oid) for oid in ids[asked]], dtype=object)
                qos[end - count : end] = values[inverse]
        qos = qos[order].tolist()
    return {
        "client_id": np.array(list(workload), dtype=object)[owner[order]].tolist(),
        "object_id": ids[picks[order]].tolist(),
        "issued_at": slots[order].tolist(),
        "qos": qos,
    }


def run(scenario: Scenario) -> Metrics:
    """Answer one fully seeded scenario's queries in issue order, each
    after the agenda's stops due by its slot, then make the stops due by
    ``duration_slots``. A stop ``(slot, order, action)`` is made as
    ``action(slot)``; no two share a slot and an order, so the heap never
    compares actions. The query counters are counted from the outcome
    columns the mode's steps fill; raises ``InvariantError`` unless each
    holds exactly one entry per issued query.
    """
    queries = _queries(scenario)
    issued = len(queries["issued_at"])
    columns = {name: queries.get(name, []) for name in QueryRecord._fields}
    columns["query_id"] = range(issued)
    metrics = Metrics(scenario.schema_id, scenario.seed, scenario.duration_slots, columns)
    metrics.counters = counters = dict.fromkeys(("requeries", "ttl_drops", "broadcast_slots",
                                                 "on_demand_responses", "batching_saved"), 0)
    metrics.per_client_energy = {c.client_id: 0.0 for c in scenario.clients}
    agenda: list[tuple[int, float, Callable[[int], None]]] = []
    steps = _broadcast_steps if scenario.resolution_mode == "broadcast" else _p2p_steps
    answer = steps(scenario, metrics, agenda)
    for qid, t, cid, oid, q in zip(columns["query_id"], columns["issued_at"],
                                   columns["client_id"], columns["object_id"],
                                   columns["qos"]):
        while agenda and agenda[0][0] <= t:
            slot, _, action = heappop(agenda)
            action(slot)
        answer(t, qid, cid, oid, q)
    while agenda and agenda[0][0] <= scenario.duration_slots:
        slot, _, action = heappop(agenda)
        action(slot)
    for name in _OUTCOMES:
        if len(columns[name]) != issued:
            raise InvariantError(
                f"{len(columns[name])} {name} entries for {issued} issued queries"
            )
    resolutions = Counter(columns["resolution"])
    counters.update(
        issued=issued, answered=issued - resolutions["unresolved"],
        unresolved=resolutions["unresolved"], index_reads=resolutions["broadcast"],
        source_load=(resolutions["source"] + counters["requeries"]
                     + counters["on_demand_responses"]),
    )
    return metrics


# each tier's record text: a dict lookup is cheaper than an Enum's ``.value``
_RESOLUTION_TEXT = {r: r.value for r in Resolution}
# the tiers that serve a copy, which may lag the source's latest write
_CACHE_TIERS = frozenset((Resolution.LOCAL_CACHE, Resolution.NEIGHBOR_CACHE))
# and their record texts: ``Metrics.summary`` counts their QoS violations
_CACHED_TEXTS = frozenset(map(_RESOLUTION_TEXT.get, _CACHE_TIERS))


def _p2p_steps(scenario: Scenario, metrics: Metrics, agenda: list) -> Callable:
    """Resolve each query down the peer-to-peer chain; return ``answer``.

    Each source applies its own scheduled writes when read, and only
    TTL-policy caches are ticked, each only from its first tick slot on:
    the metrics are the bytes of writing every source and ticking every
    cache in every slot. A tick at t, after t's queries, is the stop at
    t + 1, ordered by the cache's position, and pushes the next. A cache
    whose first tick slot is inf is off the agenda; only an insert lowers
    that, and the cache then wakes itself (``ClientCache.wake``), whoever
    inserted, so a cache has at most one stop pending. ``answer`` raises
    ``InvariantError`` if an answer carries a write from after its slot.
    """
    counters = metrics.counters
    # one append per outcome column
    (add_resolution, add_latency, add_staleness, add_met,
     add_p_nm) = (metrics.columns[name].append for name in _OUTCOMES)
    sources = {
        o.object_id: SourceObject(
            o.object_id, reachable=o.reachable,
            schedule=_write_times(o, scenario.seed, scenario.history_burnin),
        )
        for o in scenario.objects
    }
    cell = P2PCell(scenario.adjacency, sources, scenario.costs,
                   p2p_enabled=scenario.p2p, overhearing=scenario.overhearing)
    ttl_caches: list[ClientCache] = []  # in client order, the order of ticks
    interval = scenario.tick_interval

    def schedule(i: int) -> None:
        """Push cache ``i``'s tick at its first tick slot, if it has one."""
        due = ttl_caches[i].next_expiry()
        if due != math.inf:
            heappush(agenda, (-(-due // interval) * interval + 1, i, ticks[i]))

    def tick(i: int, stop: int) -> None:
        # once ticked at t, a cache's first tick slot is after t; a requery
        # at t cannot lower a finite one, and wakes the cache from inf
        cache, t = ttl_caches[i], stop - 1
        expired = cache.tick(t)
        schedule(i)
        if cache.policy is PolicyKind.TTL_DROP:
            counters["ttl_drops"] += len(expired)
            return
        for object_id in expired:
            source = sources[object_id]
            if source.reachable:
                cache.insert(CacheEntry(object_id, source.read(t), cached_at=t), t)
                counters["requeries"] += 1

    for spec in sorted(scenario.clients, key=lambda c: c.client_id):
        cache = None
        if scenario.caching:
            cache = ClientCache(
                spec.cache_capacity, spec.policy, spec.default_qos, spec.qos_overrides,
                default_ttl=scenario.default_ttl, read_window=scenario.read_window,
            )
            if spec.policy in TTL_POLICIES:
                cache.wake = partial(schedule, len(ttl_caches))
                ttl_caches.append(cache)
        im = InformationManager(spec.client_id, cell, cache)
        for service in spec.providers:
            im.register_provider(service)
    ticks = [partial(tick, i) for i in range(len(ttl_caches))]

    def answer(t: int, qid: int, cid: str, oid: str, qos: float) -> None:
        _, resolution, latency, p_nm, _, write_time = cell.ims[cid].resolve_query(oid, qos, t)
        if write_time > t:
            raise InvariantError(
                f"query {qid}: {oid} answered with a write at "
                f"{write_time}, after slot {t}"
            )
        if resolution is Resolution.UNRESOLVED:
            staleness, met, p_nm = 0.0, False, 0.0
        elif resolution in _CACHE_TIERS:
            staleness, met = sources[oid].last_write(t) - write_time, accepts(qos, p_nm)
        else:
            # a source or provider read is of the source at t, so it reflects
            # the latest write: its staleness, that write less itself, is 0.0,
            # and its P_NM, 1.0, meets any QoS the reader admits (0 to 1)
            staleness, met = 0.0, True
        add_resolution(_RESOLUTION_TEXT[resolution])
        add_latency(latency)
        add_staleness(staleness)
        add_met(met)
        add_p_nm(p_nm)

    return answer


def _broadcast_steps(scenario: Scenario, metrics: Metrics, agenda: list) -> Callable:
    """Answer each query from the air or from a batched multicast; return
    ``answer``.

    No sources, caches or information managers are built: an aired or
    multicast answer carries the source's current write, so its staleness
    is 0 whatever the source's history. A published object is read by the
    ``retrieval.aired_reader`` of the program in force, which gives the
    read's ``(total_slots, switches, active_slots)`` without a plan; the
    first read of each shape is also planned by ``retrieval.after_index``,
    which must agree or ``InvariantError`` is raised, and costed once by
    ``retrieval.account``. Any other query joins its object's batch, whose
    response time ``submit`` returns. Either way the query is recorded in
    the slot it is issued, and ``answer`` appends only what varies: its
    resolution and latency.

    Each ``replan_interval``-th slot is a replan stop, which pushes the
    next. It counts the demand it plans from in one ``np.bincount`` of the
    queries issued since the last replan, each query's object mapped to its
    catalog position once per run, so no query pays for the count. The stop
    at ``duration_slots`` sends the server's multicasts once, in no order,
    and counts them and their saved transmissions; it reports the plan in
    force as ``Metrics.plan`` and stores the three outcome columns that hold
    one value for every answer, each as a ``Repeated``: staleness 0.0, QoS
    met, P_NM 1.0. Each stop adds to ``broadcast_slots`` the channels of the
    program in force times the slots since the last stop.
    """
    counters = metrics.counters
    columns = metrics.columns
    add_resolution, add_latency = columns["resolution"].append, columns["latency_slots"].append
    cost = scenario.cell.cost_model
    interval, end = scenario.cell.replan_interval, scenario.duration_slots
    catalog = cell_catalog(scenario)
    plan_result, program = plan_cell(scenario, catalog, initial_rates(scenario))
    batching = broadcast_plan.BatchingServer(scenario.cell.batching_window)
    slots, oids = columns["issued_at"], columns["object_id"]
    # each query's object as its catalog position, and the requests per
    # object, in scenario order, of the first ``counted_to`` queries
    asked = np.fromiter(map(catalog.position.__getitem__, oids), np.intp, len(oids))
    requests = np.zeros(len(catalog.ids), np.int64)
    counted_to = 0
    read = None if program is None else retrieval.aired_reader(program, cost)
    # an aired read's energy by the plan numbers its account reads (the radio
    # is the run's): aired reads take few shapes, each planned and costed once
    energies: dict[tuple[int, int, int], float] = {}
    last_stop = 0

    def on_air(t: int) -> None:  # the channel-slots since the last stop
        nonlocal last_stop
        if program is not None:
            counters["broadcast_slots"] += program.n_channels * (t - last_stop)
        last_stop = t

    def replan(t: int) -> None:
        nonlocal plan_result, program, read, requests, counted_to
        on_air(t)
        if t + interval < end:
            heappush(agenda, (t + interval, 0, replan))
        # the stops at t are made before t's queries: count those before t
        issued = bisect_left(slots, t)
        if issued > counted_to:
            requests += np.bincount(asked[counted_to:issued], minlength=len(requests))
            counted_to = issued
        # each count over t in float64: the quotient Python's n / t gives
        observed = requests / t
        new_result, new_program = plan_cell(scenario, catalog, observed)
        if new_result.feasible:
            plan_result, program = new_result, new_program
            read = None if program is None else retrieval.aired_reader(program, cost)

    def finish(t: int) -> None:
        on_air(t)
        multicasts = batching.advance(math.inf)
        counters["on_demand_responses"] = len(multicasts)
        counters["batching_saved"] = sum(m.saved_transmissions for m in multicasts)
        metrics.plan = plan_summary(plan_result)
        # every answer is the source's current write, P_NM 1.0, which meets
        # any QoS the reader admits (0 to 1): its staleness is 0.0
        for name, value in (("staleness_slots", 0.0), ("qos_met", True), ("p_nm", 1.0)):
            columns[name] = Repeated(value, len(slots))

    if 0 < interval < end:
        heappush(agenda, (interval, 0, replan))
    heappush(agenda, (end, 0, finish))

    def answer(t: int, qid: int, cid: str, oid: str, qos: float) -> None:
        if program is None or oid not in program.directory:
            kind, latency = "on_demand", batching.submit(oid, t) - t + 1.0
        else:
            shape = read(oid, t)  # (total_slots, switches, active_slots)
            spent = energies.get(shape)
            if spent is None:
                plan = retrieval.after_index([oid], program, t, cost)
                if plan[2:] != shape:
                    raise InvariantError(
                        f"query {qid}: {oid} at slot {t} read as {shape}, "
                        f"planned as {plan[2:]}"
                    )
                spent = energies[shape] = retrieval.account(plan, cost)["energy"]
            metrics.per_client_energy[cid] += spent
            kind, latency = "broadcast", float(shape[0])
        add_resolution(kind)
        add_latency(latency)

    return answer


def plan_summary(result: broadcast_plan.PartitionResult) -> dict:
    """The report of a partition: what ``Metrics.plan`` holds. An unstable
    plan's infinite expected access reads as None, since JSON has no inf."""
    raw, normalized = (
        value if math.isfinite(value) else None
        for value in (result.access.raw, result.access.normalized)
    )
    return {
        "published_count": len(result.partition.published),
        "published": list(result.partition.published),
        "b_b": result.partition.b_b,
        "b_d": result.partition.b_d,
        "expected_access_raw": raw,
        "expected_access_normalized": normalized,
        "feasible": result.feasible,
    }
