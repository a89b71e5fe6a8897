"""The record writer: ``Metrics.write_json`` and ``Metrics.write_csv``, the
in-memory twin ``to_json_bytes``, and the records view they write from."""

import csv
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from aircell import sim
from aircell.sim import Metrics, QueryRecord
from oracles import (
    csv_bytes,
    metrics_csv_reference,
    metrics_json_reference,
    slot_loops,
    with_records,
)
from test_reachability import HEAVY

# numpy warns when a summary's sums of drawn numpy scalars overflow or add
# inf to -inf; the writer tests only compare bytes
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

AWKWARD_IDS = [
    'a,"b', 'q"uote', "back\\slash", "tab\there", "line\nbreak", "cr\rlf\n",
    "\x00\x1f\x7f", "ünïcödé", "  ", "\U0001f600", "", "records",
    '"records": [', "%s", "]}, {",
]
AWKWARD_FLOATS = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, 2.0,
    math.inf, -math.inf, math.nan, 0.1 + 0.2,
]

# a lone surrogate is valid in a JSON document's strings, and json escapes it
ids = st.text(max_size=6) | st.sampled_from([*AWKWARD_IDS, "\ud800 alone"])
floats = st.floats() | st.sampled_from(AWKWARD_FLOATS)
ints = st.integers(-(2**70), 2**70)
# json writes a float subclass, such as a numpy scalar, as the float it is
numbers = floats | ints | floats.map(np.float64)


@st.composite
def record_lists(draw, ids=ids):
    """Records whose fields each come from one kind of value or from a mix,
    so both a column of one exact type and a mixed column are written. A
    query's id is its position, as in a run."""
    n = draw(st.integers(0, 9))

    def column(*kinds):
        values = draw(st.sampled_from(kinds))
        return draw(st.lists(values, min_size=n, max_size=n))

    numeric = (floats, ints, numbers)
    fields = [
        range(n), column(ids, st.sampled_from(["c1", "c,2"])),
        column(ids), column(ints, numbers), column(ids, st.just("source")),
        column(*numeric), column(*numeric), column(*numeric),
        column(st.booleans()), column(*numeric),
    ]
    return [QueryRecord(*values) for values in zip(*fields)]


def folding_records() -> list[QueryRecord]:
    """Six records written in batches of 3, whose columns fold in some
    batches and not in others: the client id, QoS and QoS met are one value
    in the first batch and vary in the second; the latency holds 1, 1.0 and
    True, equal values that write unlike, then one float; the staleness is
    -0.0 throughout, and the resolution and P_NM are one value throughout."""
    return [
        QueryRecord(i, cid, f"o{i % 4}", 10 + i, "source", latency, -0.0, qos, met, 1.0)
        for i, (cid, latency, qos, met) in enumerate([
            ("c1", 1, 0.3, True), ("c1", 1.0, 0.3, True), ("c1", True, 0.3, True),
            ("c1", 2.0, 0.3, True), ("c,2", 2.0, 0.5, False), ("c1", 2.0, 0.3, True),
        ])
    ]


def metrics_with(records, client_ids=("c1",), published=("o1",)) -> Metrics:
    """A run's metrics whose columns hold ``records``."""
    return with_records(Metrics(
        "aircell-scenario/1", 7, 100,
        counters={"issued": len(records), "answered": 0, "unresolved": 0},
        per_client_energy={cid: 0.5 for cid in client_ids},
        plan={"published": list(published), "b_b": 1.5, "feasible": True},
    ), records)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(records=record_lists(), batch=st.integers(1, 4),
           client_ids=st.lists(ids, max_size=3), published=st.lists(ids, max_size=3))
    @example(records=[], batch=1, client_ids=[], published=['"records": []'])
    @example(records=folding_records(), batch=3, client_ids=["c1"], published=[])
    @example(records=folding_records()[:1], batch=1, client_ids=["c1"], published=[])
    def test_bytes_match_json_dumps(self, records, batch, client_ids, published):
        metrics = metrics_with(records, client_ids, published)
        with mock.patch.object(sim, "_ROW_BATCH", batch):
            assert metrics.to_json_bytes() == metrics_json_reference(metrics)

    def test_repeated_floats_keep_their_sign_and_spelling(self):
        column = [0.0, -0.0, 0.5, 0.0, -0.0, 0.5, 2.0]
        records = [
            QueryRecord(i, "c", "o", i, "source", x, abs(x), 0.3, True, x)
            for i, x in enumerate(column)
        ]
        metrics = metrics_with(records)
        assert metrics.to_json_bytes() == metrics_json_reference(metrics)

    @pytest.mark.parametrize("values, text, folds", [
        ([0.5, 0.5, 0.5], json.dumps, True),
        ([True, True], json.dumps, True),
        (["source"] * 3, sim._csv_text, True),
        (["a,b"] * 2, sim._csv_text, True),
        ([-0.0, -0.0], json.dumps, None),
        ([math.inf, math.inf], json.dumps, None),
        # one key but two texts, and one value but three texts
        ([0.0, -0.0], json.dumps, False),
        ([1, 1.0, True], json.dumps, False),
        ([1, 1.0, True], sim._csv_text, False),
    ])
    def test_a_column_that_writes_alike_is_one_text(self, values, text, folds):
        texts = sim._column_texts(values, text)
        if folds is not None:
            assert isinstance(texts, str) == folds
        if isinstance(texts, str):
            texts = [texts] * len(values)
        assert texts == [text(v) for v in values]

    def test_rows_whose_fields_all_write_alike(self):
        # no field varies: each batch is one row's text, once per record
        records = sim.Records([range(5), ["c"] * 5])
        with mock.patch.object(sim, "_ROW_BATCH", 2):
            rows = list(sim._record_rows(records, [1], json.dumps, "[%s]", ","))
        assert rows == [b'["c"],["c"]', b'["c"],["c"]', b'["c"]']

    def test_integral_floats_and_ints_stay_apart(self):
        record = QueryRecord(0, "c", "o", 2, "source", 3.0, 0, 1, True, np.float64(0.5))
        text = metrics_with([record]).to_json_bytes()
        assert (b'"issued_at": 2, "latency_slots": 3.0' in text
                and b'"qos": 1, ' in text and b'"staleness_slots": 0}' in text
                and b'"p_nm": 0.5' in text)


def read_back(metrics: Metrics) -> list[list[str]]:
    return list(csv.reader(io.StringIO(csv_bytes(metrics).decode(), newline="")))


class TestCsvWriter:
    def test_comma_in_id_is_quoted(self):
        record = QueryRecord(0, "client4", 'a,"b', 5, "source", 5.0, 0.0, 0.3, True, 1.0)
        rows = read_back(metrics_with([record]))
        assert rows[1] == ["0", "client4", 'a,"b', "source", "5.0", "0.0", "0.3", "1"]
        assert b'0,client4,"a,""b",source,' in csv_bytes(metrics_with([record]))

    @settings(max_examples=200, deadline=None)
    @given(records=record_lists(ids=st.text(st.characters(blacklist_categories=("Cs",)),
                                            max_size=6) | st.sampled_from(AWKWARD_IDS)),
           client_ids=st.lists(st.sampled_from(AWKWARD_IDS), max_size=3, unique=True),
           batch=st.integers(1, 4))
    @example(records=folding_records(), client_ids=["c1"], batch=3)
    @example(records=folding_records()[:1], client_ids=["c1"], batch=1)
    def test_ids_read_back(self, records, client_ids, batch):
        metrics = metrics_with(records, client_ids)
        with mock.patch.object(sim, "_ROW_BATCH", batch):
            assert csv_bytes(metrics) == metrics_csv_reference(metrics)
        rows = read_back(metrics)
        columns = Metrics.CSV_COLUMNS
        assert rows[0] == list(columns)
        data = rows[1 : 1 + len(records)]
        assert all(len(row) == len(columns) for row in rows)
        assert [(r[1], r[2], r[3]) for r in data] == [
            (r.client_id, r.object_id, r.resolution) for r in records
        ]
        assert [r[7] for r in data] == [str(int(r.qos_met)) for r in records]
        energy = [(r[1], r[3]) for r in rows[1 + len(records):] if r[2] == "energy"]
        assert energy == [(cid, "0.5") for cid in sorted(client_ids)]


# the corpus documents the reachability gate runs, the ones CI runs but its
# heavy ones
RUN = [name for name, doc in corpus.documents().items()
       if not name.endswith("samples") and name not in corpus.REFUSED + tuple(HEAVY)]


def corpus_scenario(name: str, seed: int) -> sim.Scenario:
    doc = corpus.documents()[name]
    doc = json.loads(doc) if isinstance(doc, str) else doc
    return sim.scenario_from_dict(dict(doc, seed=seed))


class TestStreamedWriters:
    def test_every_document_the_gate_runs_is_written(self):
        assert {"scenario", "p2p_tiers", "broadcast", "tiny_replan"} <= set(RUN)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", RUN)
    def test_the_stream_is_the_in_memory_bytes(self, tmp_path, name, seed):
        # each writer returns the summary it wrote
        metrics = sim.run(corpus_scenario(name, seed))
        for write, reference in ((metrics.write_json, metrics_json_reference),
                                 (metrics.write_csv, metrics_csv_reference)):
            path = tmp_path / write.__name__
            with open(path, "wb") as fp:
                assert write(fp) == metrics.summary()
            assert path.read_bytes() == reference(metrics)
        assert metrics.to_json_bytes() == (tmp_path / "write_json").read_bytes()


class TestRecordsView:
    def test_the_view_is_the_slot_loops_record_list(self):
        scn = corpus_scenario("p2p_tiers", 1)
        view = sim.run(scn).records
        _, records = slot_loops(scn)
        n = len(records)
        assert n > 2 and len(view) == n
        assert list(view) == records == list(view)
        assert all(type(r) is QueryRecord for r in view)

    def test_the_view_is_read_only(self):
        view = sim.run(corpus_scenario("scenario", 1)).records
        record = next(iter(view))
        with pytest.raises(TypeError):
            view[0] = record
        with pytest.raises(TypeError):
            del view[0]
        for method in ("append", "extend", "insert", "pop", "remove", "sort", "reverse"):
            assert not hasattr(view, method)
        with pytest.raises(AttributeError):
            view.other = []
