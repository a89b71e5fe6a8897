"""The record writer: ``Metrics.to_json_bytes`` and ``Metrics.to_csv_bytes``."""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aircell import sim
from aircell.sim import Metrics, QueryRecord
from oracles import metrics_json_reference

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
    so both a column of one exact type and a mixed column are written."""
    n = draw(st.integers(0, 9))

    def column(*kinds):
        values = draw(st.sampled_from(kinds))
        return draw(st.lists(values, min_size=n, max_size=n))

    numeric = (floats, ints, numbers)
    fields = [
        column(ints, numbers), column(ids, st.sampled_from(["c1", "c,2"])),
        column(ids), column(ints, numbers), column(ids, st.just("source")),
        column(*numeric), column(*numeric), column(*numeric),
        column(st.booleans()), column(*numeric),
    ]
    return [QueryRecord(*values) for values in zip(*fields)]


def metrics_with(records, client_ids=("c1",), published=("o1",)) -> Metrics:
    return Metrics(
        "aircell-scenario/1", 7, 100, records=records,
        counters={"issued": len(records), "answered": 0, "unresolved": 0},
        per_client_energy={cid: 0.5 for cid in client_ids},
        plan={"published": list(published), "b_b": 1.5, "feasible": True},
    )


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(records=record_lists(), batch=st.integers(1, 4),
           client_ids=st.lists(ids, max_size=3), published=st.lists(ids, max_size=3))
    @example(records=[], batch=1, client_ids=[], published=['"records": []'])
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

    def test_integral_floats_and_ints_stay_apart(self):
        record = QueryRecord(1, "c", "o", 2, "source", 3.0, 0, 1, True, np.float64(0.5))
        text = metrics_with([record]).to_json_bytes()
        assert (b'"issued_at": 2, "latency_slots": 3.0' in text
                and b'"qos": 1, ' in text and b'"staleness_slots": 0}' in text
                and b'"p_nm": 0.5' in text)


def read_back(metrics: Metrics) -> list[list[str]]:
    return list(csv.reader(io.StringIO(metrics.to_csv_bytes().decode(), newline="")))


class TestCsvWriter:
    def test_comma_in_id_is_quoted(self):
        record = QueryRecord(5, "client4", 'a,"b', 5, "source", 5.0, 0.0, 0.3, True, 1.0)
        rows = read_back(metrics_with([record]))
        assert rows[1] == ["5", "client4", 'a,"b', "source", "5.0", "0.0", "0.3", "1"]
        assert b'5,client4,"a,""b",source,' in metrics_with([record]).to_csv_bytes()

    @settings(max_examples=200, deadline=None)
    @given(records=record_lists(ids=st.text(st.characters(blacklist_categories=("Cs",)),
                                            max_size=6) | st.sampled_from(AWKWARD_IDS)),
           client_ids=st.lists(st.sampled_from(AWKWARD_IDS), max_size=3, unique=True))
    def test_ids_read_back(self, records, client_ids):
        rows = read_back(metrics_with(records, client_ids))
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
