import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircell.air_schedule import (
    DISTRIBUTED,
    INDEX,
    NONE,
    ONCE_PER_CYCLE,
    IndexScheme,
    NotApplicable,
    build_program,
    expected_index_wait,
    next_index_read_end,
    one_m,
)
from oracles import next_index_read_end_reference

OBJS4 = ["a", "b", "c", "d"]
DATA, PAD = "data", "pad"


def kinds(program, channel=0):
    """The channel's slots as INDEX, DATA or PAD, from the index and directory."""
    row = [PAD] * program.cycle_len_slots
    for slot in program.index_slots(channel):
        row[slot] = INDEX
    for ch, slot in program.directory.values():
        if ch == channel:
            row[slot] = DATA
    return row


def aired(program, channel=0):
    """The channel's objects in cycle order."""
    on_channel = [(slot, oid) for oid, (ch, slot) in program.directory.items()
                  if ch == channel]
    return [oid for _, oid in sorted(on_channel)]


class TestLayouts:
    def test_no_indexing(self):
        p = build_program(OBJS4, 1, NONE)
        assert p.cycle_len_slots == 4
        assert kinds(p) == [DATA] * 4
        assert aired(p) == OBJS4

    def test_distributed_alternates(self):
        p = build_program(OBJS4, 1, DISTRIBUTED)
        assert p.cycle_len_slots == 8
        assert kinds(p) == [INDEX, DATA] * 4

    def test_once_per_cycle(self):
        p = build_program(OBJS4, 1, ONCE_PER_CYCLE)
        assert p.cycle_len_slots == 5
        assert kinds(p) == [INDEX] + [DATA] * 4

    def test_two_replica_layout(self):
        p = build_program(OBJS4, 1, one_m(2))
        assert p.cycle_len_slots == 6
        assert kinds(p) == [INDEX, DATA, DATA, INDEX, DATA, DATA]
        assert aired(p) == OBJS4

    def test_four_replica_layout(self):
        p = build_program(OBJS4, 1, one_m(4))
        assert p.cycle_len_slots == 8
        assert kinds(p) == [INDEX, DATA] * 4

    def test_replicas_capped_at_object_count(self):
        p = build_program(["a", "b"], 1, one_m(5))
        assert p.index_slots(0) == [0, 2]

    @pytest.mark.parametrize("dedicated", [False, True])
    def test_repeated_id_rejected(self, dedicated):
        # x would air only at its last position, leaving a slot of padding
        with pytest.raises(ValueError, match=r"published more than once: \['x'\]"):
            build_program(["x", "y", "x"], 2, one_m(1), dedicated_index_channel=dedicated)
        with pytest.raises(ValueError, match=r"\['a', 'b'\]"):
            build_program(["b", "a", "b", "c", "a"], 1, NONE)

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ValueError):
            IndexScheme("bogus")
        with pytest.raises(ValueError):
            one_m(0)


class TestLengthRelations:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_ordering_across_schemes(self, n):
        objs = [f"o{i}" for i in range(n)]
        l_none = build_program(objs, 1, NONE).cycle_len_slots
        l_dist = build_program(objs, 1, DISTRIBUTED).cycle_len_slots
        lengths = [build_program(objs, 1, one_m(m)).cycle_len_slots for m in range(1, n + 1)]
        assert all(l_none <= lm <= l_dist for lm in lengths)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))


class TestMultiChannel:
    def test_round_robin_and_padding(self):
        objs = [f"o{i}" for i in range(10)]
        p = build_program(objs, 3, NONE)
        assert p.n_channels == 3
        assert len({len(kinds(p, ch)) for ch in range(3)}) == 1
        placed = [oid for ch in range(3) for oid in aired(p, ch)]
        assert sorted(placed) == sorted(objs)
        assert p.directory["o0"] == (0, 0)
        assert p.directory["o1"] == (1, 0)
        assert p.directory["o2"] == (2, 0)
        assert p.directory["o3"] == (0, 1)
        assert sum(kinds(p, ch).count(PAD) for ch in range(3)) == 2

    def test_channels_up_to_the_cap(self):
        # the scenario reader's cap on cell.channels; an empty channel is no work
        p = build_program(["a", "b"], 10**6, one_m(1))
        assert p.n_channels == 10**6
        assert p.directory == {"a": (0, 1), "b": (1, 1)}
        assert p.cycle_len_slots == 2 and p.index_slots(999_999) == [0]

    def test_index_positions_agree_across_channels(self):
        objs = [f"o{i}" for i in range(10)]
        p = build_program(objs, 3, one_m(2))
        positions = {tuple(p.index_slots(ch)) for ch in range(3)}
        assert len(positions) == 1

    def test_dedicated_index_channel(self):
        objs = [f"o{i}" for i in range(6)]
        p = build_program(objs, 3, one_m(2), dedicated_index_channel=True)
        assert all(kind == INDEX for kind in kinds(p, 0))
        assert all(kind != INDEX for ch in (1, 2) for kind in kinds(p, ch))
        assert p.index_slots(0) == list(range(p.cycle_len_slots))
        assert expected_index_wait(p) == 0.5


class TestIndexWait:
    def test_formula_values(self):
        six = [f"o{i}" for i in range(6)]
        p2 = build_program(six, 1, one_m(2))
        assert p2.cycle_len_slots == 8
        assert expected_index_wait(p2) == 2.0
        seven = [f"o{i}" for i in range(7)]
        p1 = build_program(seven, 1, ONCE_PER_CYCLE)
        assert p1.cycle_len_slots == 8
        assert expected_index_wait(p1) == 4.0
        # an index slot before each of 4 data slots: L = 8 over 4 index slots
        assert expected_index_wait(build_program(OBJS4, 1, DISTRIBUTED)) == 1.0

    def test_not_applicable_without_index_slots(self):
        with pytest.raises(NotApplicable):
            expected_index_wait(build_program(OBJS4, 1, NONE))

    @pytest.mark.parametrize("scheme, dedicated", [
        pytest.param(one_m(1), False, id="1"),
        pytest.param(one_m(2), False, id="2"),
        pytest.param(one_m(4), False, id="4"),
        pytest.param(ONCE_PER_CYCLE, False, id="once_per_cycle"),
        pytest.param(DISTRIBUTED, False, id="distributed"),
        pytest.param(one_m(2), True, id="dedicated"),
    ])
    def test_empirical_wait_matches_formula(self, scheme, dedicated, rng):
        objs = [f"o{i}" for i in range(8)]
        p = build_program(objs, 3 if dedicated else 1, scheme, dedicated_index_channel=dedicated)
        length = p.cycle_len_slots
        positions = np.array(p.index_slots(0))
        starts = rng.uniform(0, length, size=50_000)
        waits = np.min((positions[None, :] - starts[:, None]) % length, axis=1)
        assert abs(waits.mean() - expected_index_wait(p)) / expected_index_wait(p) < 0.02

    def test_empirical_data_wait_is_half_cycle(self, rng):
        objs = [f"o{i}" for i in range(8)]
        p = build_program(objs, 1, NONE)
        length = p.cycle_len_slots
        slot = p.directory["o3"][1]
        starts = rng.uniform(0, length, size=50_000)
        waits = (slot - starts) % length
        assert abs(waits.mean() - length / 2) / (length / 2) < 0.02


class TestLocate:
    def test_next_index_read_end(self):
        p = build_program([f"o{i}" for i in range(6)], 1, one_m(2))
        assert p.index_slots(0) == [0, 4]
        assert next_index_read_end(p, 0) == 0
        assert next_index_read_end(p, 1) == 4
        assert next_index_read_end(p, 5) == 8
        with pytest.raises(NotApplicable):
            next_index_read_end(build_program(OBJS4, 1, NONE), 0)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 40),
        data_channels=st.integers(1, 4),
        scheme=st.one_of(
            st.sampled_from([NONE, ONCE_PER_CYCLE, DISTRIBUTED]),
            st.integers(1, 12).map(lambda m: IndexScheme("one_m", m)),
        ),
        dedicated=st.booleans(),
        start=st.integers(0, 10**9),
    )
    def test_next_index_read_end_matches_reference(
        self, n, data_channels, scheme, dedicated, start
    ):
        # every phase of two cycles, from a start anywhere
        program = build_program(
            [f"o{i}" for i in range(n)], data_channels + dedicated, scheme,
            dedicated_index_channel=dedicated,
        )
        for now in range(start, start + 2 * program.cycle_len_slots):
            if program.index_positions:
                assert next_index_read_end(program, now) == next_index_read_end_reference(
                    program, now
                )
            else:
                with pytest.raises(NotApplicable):
                    next_index_read_end(program, now)
