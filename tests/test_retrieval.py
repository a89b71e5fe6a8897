import itertools
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aircell.air_schedule import (
    DISTRIBUTED,
    INDEX,
    NONE,
    ONCE_PER_CYCLE,
    build_program,
    next_index_read_end,
    one_m,
)
from aircell.retrieval import (
    CostModel,
    PlannedRead,
    RefusedSize,
    RetrievalPlan,
    RetrievalRequest,
    _earliest_read,
    _gap_tables,
    account,
    after_index,
    brute_force,
    next_object_access,
    plan_as_dict,
    row_scan,
    simulate_order,
    tsp_order,
)
from conftest import random_retrieval_instance
from oracles import (
    aired_read_reference,
    brute_force_reference,
    check_plan,
    next_object_access_reference,
    simulate_order_reference,
    tsp_order_reference,
)

COST = CostModel()


def request(layout: dict[str, tuple[int, int]], channels: int, cycle: int, desired, start=0):
    """Program with objects pinned to explicit (channel, slot) positions."""
    names = [[None] * cycle for _ in range(channels)]
    for obj, (ch, slot) in layout.items():
        names[ch][slot] = obj
    fill = 0
    for ch in range(channels):
        for slot in range(cycle):
            if names[ch][slot] is None:
                names[ch][slot] = f"fill{fill}"
                fill += 1
    ordered = [names[i % channels][i // channels] for i in range(channels * cycle)]
    program = build_program(ordered, channels, NONE)
    for obj, (ch, slot) in layout.items():
        assert program.directory[obj] == (ch, slot)
    return RetrievalRequest(frozenset(desired), program, start)


class TestCostModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(switch_slots=0)
        with pytest.raises(ValueError):
            CostModel(e_doze=2.0)  # dozing must undercut listening


class TestRowScan:
    def test_single_channel_no_switches(self):
        req = request({"a": (0, 1), "b": (0, 3)}, 1, 4, ["a", "b"])
        plan = row_scan(req, COST)
        assert plan.switches == 0
        assert plan.total_slots <= req.program.cycle_len_slots

    def test_three_channels_two_switches(self, rng):
        for _ in range(20):
            req = random_retrieval_instance(rng, n_desired=6, max_channels=3)
            plan = row_scan(req, COST)
            used = {req.program.directory[o][0] for o in req.desired}
            assert plan.switches == len(used) - 1
            assert not check_plan(plan, req, COST)

    def test_switch_count_is_a_floor_for_every_planner(self, rng):
        # every feasible plan must visit each channel holding a desired object
        for _ in range(40):
            req = random_retrieval_instance(rng, n_desired=5, max_channels=4)
            floor = len({req.program.directory[o][0] for o in req.desired}) - 1
            for planner in (row_scan, next_object_access, tsp_order, brute_force):
                assert planner(req, COST).switches >= floor

    def test_same_slot_conflict_needs_second_cycle(self):
        req = request({"a": (0, 1), "b": (1, 1)}, 2, 4, ["a", "b"])
        plan = row_scan(req, COST)
        assert plan.reads[1].slot >= req.program.cycle_len_slots


class TestNextObjectAccess:
    def test_single_object_matches_row_scan(self, rng):
        for _ in range(20):
            req = random_retrieval_instance(rng, n_desired=1)
            assert next_object_access(req, COST) == row_scan(req, COST)

    def test_greedy_can_be_optimal(self):
        req = request({"a": (0, 1), "b": (0, 2)}, 1, 4, ["a", "b"])
        noa = next_object_access(req, COST)
        best = brute_force(req, COST)
        assert noa.total_slots == best.total_slots == 3

    def test_greedy_gap_instance_exists(self, rng):
        gap_found = False
        for _ in range(300):
            req = random_retrieval_instance(rng, n_desired=4, max_channels=3, max_cycle=8)
            noa = next_object_access(req, COST)
            best = brute_force(req, COST)
            assert noa.total_slots >= best.total_slots
            if noa.total_slots > best.total_slots:
                gap_found = True
        assert gap_found, "greedy should be suboptimal on some instance"


class TestTspOrder:
    def test_two_objects_match_brute_force(self, rng):
        for _ in range(30):
            req = random_retrieval_instance(rng, n_desired=2)
            assert tsp_order(req, COST).total_slots == brute_force(req, COST).total_slots

    def test_never_beats_brute_force_never_worse_than_greedy(self, rng):
        for _ in range(100):
            req = random_retrieval_instance(rng, n_desired=5)
            best = brute_force(req, COST)
            tsp = tsp_order(req, COST)
            noa = next_object_access(req, COST)
            assert best.total_slots <= tsp.total_slots <= noa.total_slots
            assert not check_plan(tsp, req, COST)


class TestBruteForce:
    def test_single_object_takes_next_slot(self):
        req = request({"a": (0, 2)}, 1, 5, ["a"], start=4)
        plan = brute_force(req, COST)
        assert plan.reads[0].slot == 7
        assert plan.total_slots == 4

    def test_conflict_pair_spans_two_cycles(self):
        req = request({"a": (0, 1), "b": (1, 1)}, 2, 4, ["a", "b"])
        plan = brute_force(req, COST)
        assert plan.reads[0].slot == 1
        assert plan.reads[1].slot == 5
        assert plan.switches == 1

    def test_optimal_below_every_heuristic(self, rng):
        for _ in range(60):
            req = random_retrieval_instance(rng, n_desired=5)
            best = brute_force(req, COST)
            assert not check_plan(best, req, COST)
            for planner in (row_scan, next_object_access, tsp_order):
                assert best.total_slots <= planner(req, COST).total_slots

    def test_size_guard(self, rng):
        req = random_retrieval_instance(rng, n_desired=9)
        with pytest.raises(RefusedSize):
            brute_force(req, COST)


class TestFeasibility:
    def test_all_planners_valid_on_random_instances(self, rng):
        for _ in range(80):
            n = int(rng.integers(1, 7))
            req = random_retrieval_instance(rng, n_desired=n)
            for planner in (row_scan, next_object_access, tsp_order):
                problems = check_plan(planner(req, COST), req, COST)
                assert not problems, problems

    def test_wider_switch_gap_respected(self, rng):
        wide = CostModel(switch_slots=3)
        for _ in range(40):
            req = random_retrieval_instance(rng, n_desired=4, max_channels=4)
            for planner in (row_scan, next_object_access, tsp_order):
                problems = check_plan(planner(req, wide), req, wide)
                assert not problems, problems


OBJS4 = ["a", "b", "c", "d"]


class TestAfterIndex:
    def test_same_cycle(self):
        p = build_program(OBJS4, 1, ONCE_PER_CYCLE)  # I a b c d
        plan = after_index(["d"], p, 0, COST)
        assert plan.reads == (PlannedRead(INDEX, 0, 0), PlannedRead("d", 0, 4))
        assert (plan.start_slot, plan.total_slots) == (0, 5)
        assert (plan.switches, plan.active_slots) == (0, 2)

    def test_wraps_to_next_cycle(self):
        p = build_program(OBJS4, 1, one_m(2))  # I a b I c d
        plan = after_index(["a"], p, 2, COST)
        assert plan.reads[0].slot == 3
        assert plan.reads[1].slot == p.cycle_len_slots + 1
        assert plan.total_slots == p.cycle_len_slots

    def test_strictly_after_read(self):
        # the index channel carries an index slot at the object's own slot:
        # the object is read a cycle later, after the switch
        p = build_program(OBJS4, 3, ONCE_PER_CYCLE, dedicated_index_channel=True)
        assert p.directory["b"] == (2, 0) and p.cycle_len_slots == 2
        plan = after_index(["b"], p, 0, COST)
        assert plan.reads == (PlannedRead(INDEX, 0, 0), PlannedRead("b", 2, 2))
        assert plan.switches == 1

    def test_unknown_object(self):
        p = build_program(OBJS4, 1, ONCE_PER_CYCLE)
        with pytest.raises(KeyError):
            after_index(["zzz"], p, 0, COST)

    @pytest.mark.parametrize("dedicated", [False, True])
    def test_every_object_readable_from_every_slot(self, dedicated):
        objs = [f"o{i}" for i in range(9)]
        p = build_program(objs, 3, one_m(3), dedicated_index_channel=dedicated)
        length = p.cycle_len_slots
        for now in range(2 * length):
            for obj in objs:
                index_read, read = after_index([obj], p, now, COST).reads
                assert now <= index_read.slot < read.slot <= index_read.slot + 2 * length
                channel, cycle_slot = p.directory[obj]
                assert read.channel == channel
                assert read.slot % length == cycle_slot

    def test_orders_read_after_the_index_as_simulate_order(self, rng):
        for _ in range(200):
            channels = int(rng.integers(1, 5))
            dedicated = channels >= 2 and bool(rng.integers(2))
            names = [f"o{i}" for i in range(int(rng.integers(1, 12)))]
            p = build_program(names, channels, one_m(2), dedicated_index_channel=dedicated)
            k = int(rng.integers(1, len(names) + 1))
            order = [names[int(i)] for i in rng.permutation(len(names))[:k]]
            cost = CostModel(switch_slots=int(rng.integers(1, 4)))
            now = int(rng.integers(0, 3 * p.cycle_len_slots))
            plan = after_index(order, p, now, cost)
            idx_end = next_index_read_end(p, now)
            rest = simulate_order(order, p, idx_end + 1 + cost.switch_slots * dedicated, cost)
            assert plan.reads[1:] == rest.reads
            assert plan.reads[0] == PlannedRead(
                INDEX, 0 if dedicated else rest.reads[0].channel, idx_end
            )
            assert plan.switches == rest.switches + dedicated
            assert (plan.start_slot, plan.active_slots) == (now, k + 1)
            assert plan.total_slots == rest.reads[-1].slot - now + 1
            # built without the NamedTuple constructors, still the named types
            assert type(plan) is RetrievalPlan
            assert all(type(r) is PlannedRead for r in plan.reads + rest.reads)
            assert RetrievalPlan(**plan._asdict()) == plan

    @pytest.mark.parametrize("dedicated", [False, True])
    def test_empty_order_refused(self, dedicated):
        p = build_program(OBJS4, 2, ONCE_PER_CYCLE, dedicated_index_channel=dedicated)
        with pytest.raises(ValueError, match="order is empty"):
            after_index([], p, 0, COST)
        with pytest.raises(ValueError, match="order is empty"):
            simulate_order([], p, 0, COST)

    def test_same_read_as_locate_and_hand_built_plan(self):
        layouts = [
            (channels, dedicated)
            for channels in range(1, 5) for dedicated in (False, True)
            if channels >= 2 or not dedicated
        ]
        schemes = (DISTRIBUTED, ONCE_PER_CYCLE, one_m(1), one_m(2), one_m(3))
        cases = 0
        for (channels, dedicated), scheme, n, sigma in itertools.product(
            layouts, schemes, (1, 4, 7), (1, 2, 3)
        ):
            objs = [f"o{i}" for i in range(n)]
            p = build_program(objs, channels, scheme, dedicated_index_channel=dedicated)
            cost = CostModel(switch_slots=sigma)
            for now, obj in itertools.product(range(3 * p.cycle_len_slots), objs):
                plan = after_index([obj], p, now, cost)
                expected = aired_read_reference(p, obj, now, cost)
                assert plan == expected
                assert account(plan, cost) == account(expected, cost)
                cases += 1
        assert cases == 16_866


class TestAccount:
    def test_energy_arithmetic(self):
        req = request({"a": (0, 2), "b": (0, 4), "c": (0, 6), "d": (0, 9)}, 1, 10, "abcd")
        plan = simulate_order(["a", "b", "c", "d"], req.program, 0, COST)
        assert plan.total_slots == 10 and plan.active_slots == 4 and plan.switches == 0
        cost = CostModel(e_active=1.0, e_doze=0.05, e_switch=0.5)
        report = account(plan, cost)
        assert report["doze_slots"] == 6
        assert report["energy"] == pytest.approx(4 * 1.0 + 6 * 0.05)

    def test_all_active_plan(self):
        req = request({"a": (0, 0), "b": (0, 1)}, 1, 4, ["a", "b"])
        plan = simulate_order(["a", "b"], req.program, 0, COST)
        report = account(plan, COST)
        assert report["doze_slots"] == 0
        assert report["energy"] == plan.total_slots * COST.e_active

    def test_switch_energy_is_linear(self, rng):
        req = random_retrieval_instance(rng, n_desired=5, max_channels=4)
        plan = next_object_access(req, COST)
        doubled = CostModel(e_switch=2 * COST.e_switch)
        base = account(plan, COST)["energy"]
        more = account(plan, doubled)["energy"]
        assert more - base == pytest.approx(plan.switches * COST.e_switch)


class TestPlanTrace:
    def test_dict_trace_round_trips_through_json(self, rng):
        import json

        req = random_retrieval_instance(rng, n_desired=4)
        plan = tsp_order(req, COST)
        trace = json.loads(json.dumps(plan_as_dict(plan)))
        assert trace["total_slots"] == plan.total_slots
        assert [r["object_id"] for r in trace["reads"]] == [
            r.object_id for r in plan.reads
        ]


class TestStatisticalOrdering:
    def test_tsp_tracks_or_beats_other_heuristics_on_average(self, rng):
        sums = {"rs": 0, "noa": 0, "tsp": 0}
        for _ in range(300):
            req = random_retrieval_instance(rng, n_desired=6, max_channels=3)
            sums["rs"] += row_scan(req, COST).total_slots
            sums["noa"] += next_object_access(req, COST).total_slots
            sums["tsp"] += tsp_order(req, COST).total_slots
        assert sums["tsp"] <= sums["noa"]
        assert sums["tsp"] <= sums["rs"]


@st.composite
def retrieval_cases(draw, least=1, most=16):
    """A request of ``least`` to ``most`` objects on an indexed multi-channel
    program, a radio and a 2-opt budget.

    Programs are small next to the request, so objects share cycle slots
    across channels and different orders often tie on (last slot, switches).
    """
    channels = draw(st.integers(1, 4))
    dedicated = channels >= 2 and draw(st.booleans())
    scheme = draw(st.sampled_from((NONE, DISTRIBUTED, ONCE_PER_CYCLE, one_m(2), one_m(3))))
    k = draw(st.integers(least, most))
    names = draw(st.permutations([f"o{i:02d}" for i in range(draw(st.integers(k, 16)))]))
    program = build_program(list(names), channels, scheme, dedicated_index_channel=dedicated)
    desired = draw(st.lists(st.sampled_from(names), min_size=k, max_size=k, unique=True))
    start = draw(st.integers(0, 3 * program.cycle_len_slots))
    cost = CostModel(switch_slots=draw(st.integers(1, 4)))
    max_iterations = draw(st.sampled_from((10_000, 0, 1, 2, 5, 13)))
    return RetrievalRequest(frozenset(desired), program, start), cost, max_iterations


# the two orders of a and b tie on (last slot 4, one switch): a first wins
TIED = request({"a": (0, 0), "b": (1, 0)}, 2, 4, ["b", "a"])
# (b, c, d, a) ends at slot 8 with two switches; (c, b, d, a) also ends at 8,
# with one, because after c at slot 3 the other three take slots 6, 7 and 8
BACK_TO_BACK = request(
    {"a": (1, 2), "b": (1, 0), "c": (2, 3), "d": (1, 1)}, 3, 6, "abcd"
)
# a, b and c at slots 0, 1 and 3 of one channel, cycle 4: (a, b, c) ends at
# slot 3. The prefix (b) reads b at slot 1, and 1 + 2 unread objects <= 3;
# but a is entered at least 1 slot after another object (from c) and c at
# least 2 (from b), and 1 + 1 + 2 > 3
CUT = request({"a": (0, 0), "b": (0, 1), "c": (0, 3)}, 1, 4, "abc")


def prefixes_entered(req: RetrievalRequest, cost: CostModel) -> int:
    """How many prefixes ``brute_force`` extends on ``req``, the empty one too."""
    extend = next(
        c for c in brute_force.__code__.co_consts if getattr(c, "co_name", "") == "extend"
    )
    entered = 0

    def count(frame, event, arg):
        nonlocal entered
        entered += event == "call" and frame.f_code is extend

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        brute_force(req, cost)
    finally:
        sys.setprofile(previous)
    return entered


class TestAgainstWholePlanSearch:
    """The planners return exactly the plans of scoring every order in full."""

    def test_tie_goes_to_the_smallest_order(self):
        assert [r.object_id for r in brute_force(TIED, COST).reads] == ["a", "b"]
        assert brute_force(TIED, COST) == brute_force_reference(TIED, COST)

    def test_prefix_finishing_exactly_on_the_incumbent_is_searched(self):
        plan = brute_force(BACK_TO_BACK, COST)
        assert [r.object_id for r in plan.reads] == ["c", "b", "d", "a"]
        assert (plan.total_slots, plan.switches) == (9, 1)
        assert plan == brute_force_reference(BACK_TO_BACK, COST)

    def test_least_incoming_gaps_cut_what_one_slot_per_object_keeps(self):
        first, gap, _ = _gap_tables(["a", "b", "c"], CUT, COST)
        assert first == [0, 1, 3]
        assert gap == [[4, 1, 3], [3, 4, 2], [1, 2, 4]]
        plan = brute_force(CUT, COST)
        assert plan == brute_force_reference(CUT, COST)
        assert [r.object_id for r in plan.reads] == ["a", "b", "c"]
        # (), (a) and (a, b); one slot per unread object would enter (b) too
        assert prefixes_entered(CUT, COST) == 3

    @settings(max_examples=400, deadline=None)
    @given(retrieval_cases())
    @example((TIED, COST, 10_000))
    @example((BACK_TO_BACK, COST, 10_000))
    @example((CUT, COST, 10_000))
    @example((BACK_TO_BACK, COST, 0))
    def test_same_plans(self, case):
        req, cost, max_iterations = case
        # the reference schedules all 8! orders in full: k = 8 has its own test
        if len(req.desired) <= 7:
            assert brute_force(req, cost) == brute_force_reference(req, cost)
        tsp = tsp_order(req, cost, max_iterations)
        assert tsp == tsp_order_reference(req, cost, max_iterations)
        greedy = next_object_access(req, cost)
        assert greedy == next_object_access_reference(req, cost)
        if max_iterations == 0:  # no reversal: the 2-opt starts from the greedy plan
            assert tsp == next_object_access_reference(req, cost)
        order = [r.object_id for r in reversed(greedy.reads)]
        assert simulate_order(order, req.program, req.start, cost) == (
            simulate_order_reference(order, req.program, req.start, cost)
        )

    @settings(max_examples=20, deadline=None)
    @given(retrieval_cases(least=8, most=8))
    def test_same_exhaustive_plans_at_the_size_limit(self, case):
        req, cost, _ = case
        assert brute_force(req, cost) == brute_force_reference(req, cost)


class TestGapTables:
    """The gap from a read to the next holds in every cycle."""

    @settings(max_examples=300, deadline=None)
    @given(retrieval_cases())
    @example((CUT, COST, 10_000))
    def test_gaps_hold_in_every_cycle(self, case):
        req, cost, _ = case
        objs = sorted(req.desired)
        first, gap, _ = _gap_tables(objs, req, cost)
        length, sigma = req.program.cycle_len_slots, cost.switch_slots
        where = [req.program.directory[obj] for obj in objs]
        for (channel, cycle_slot), slot in zip(where, first):
            assert _earliest_read(
                channel, cycle_slot, length, req.start - 1, None, sigma
            ) == (slot, False)
        # the greedy key and the exhaustive search count a switch wherever
        # the channel changes
        for (prev_channel, prev_cycle_slot), gaps in zip(where, gap):
            for (channel, cycle_slot), slots in zip(where, gaps):
                for m in range(3):
                    read = prev_cycle_slot + m * length
                    assert _earliest_read(
                        channel, cycle_slot, length, read, prev_channel, sigma
                    ) == (read + slots, channel != prev_channel)
