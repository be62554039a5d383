"""Phase transition tests.

The worked trace (masses [2,2], edge (1,2,2), mu=0, sigma=1; add node 3.0;
connect 1-3 with weight 2; prune at 3.6) was traced independently with
mpmath at 50-digit precision; those values are frozen here.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
import sys

import pytest

from massgraph import (
    AddEdge,
    AddNode,
    DiagonalError,
    DuplicateEdgeError,
    GraphState,
    InputError,
    KernelParams,
    MetricsReport,
    NodeLookupError,
    NodeRecord,
    Prune,
    SequencingError,
    apply_event,
    new_graph,
    reinforcement,
    settle_phase_one,
    validate_state,
)

# frozen oracle trace, mu=0 sigma=1
M_SETTLED = 2.8006513982525232          # 2 + f(2)
W_SETTLED = 3.7229992129171396          # 2 + ln(2 * M_SETTLED)
M1_AFTER_EDGE = 3.6013027965050464      # 2 + 2 f(2)
M3_AFTER_EDGE = 3.8006513982525232      # 3 + f(2)
W13_AFTER_EDGE = 4.0017440457196846     # 2 + ln(M1 + M3)
W12_AFTER_EDGE = 3.5006695780986699     # W_SETTLED + ln(f(2)), a DECREASE
F_AT_E = 1.0585498315243192             # f(e) = 1 + g(e)
W_ISOLATED_PAIR = 5.3656686331257065    # e + ln(12 + 2 f(e))

TOL = 1e-12


@pytest.fixture
def phase0():
    return new_graph([2, 2], [(1, 2, 2)])


@pytest.fixture
def settled(phase0):
    return settle_phase_one(phase0)


class TestSettle:
    def test_two_node_values(self, settled):
        assert settled.phase == 1
        assert settled.mass(1) == pytest.approx(M_SETTLED, abs=TOL)
        assert settled.mass(2) == pytest.approx(M_SETTLED, abs=TOL)
        assert settled.weight(1, 2) == pytest.approx(W_SETTLED, abs=TOL)

    def test_no_edges_means_no_change(self):
        state = settle_phase_one(new_graph([5, 7], []))
        assert state.phase == 1
        assert state.mass(1) == 5.0
        assert state.mass(2) == 7.0
        assert state.edges == {}

    def test_three_node_values(self):
        state = settle_phase_one(new_graph([2, 2, 3], [(1, 2, 2), (1, 3, 2)]))
        assert state.mass(1) == pytest.approx(M1_AFTER_EDGE, abs=TOL)
        assert state.mass(2) == pytest.approx(M_SETTLED, abs=TOL)
        assert state.mass(3) == pytest.approx(M3_AFTER_EDGE, abs=TOL)
        assert state.weight(1, 2) == pytest.approx(3.856603286688831, abs=TOL)
        assert state.weight(1, 3) == pytest.approx(W13_AFTER_EDGE, abs=TOL)

    def test_absent_pairs_stay_absent(self):
        state = settle_phase_one(new_graph([2, 2, 3], [(1, 2, 2)]))
        assert not state.has_edge(1, 3)
        assert not state.has_edge(2, 3)

    def test_requires_phase_zero(self, settled):
        with pytest.raises(SequencingError):
            settle_phase_one(settled)

    def test_refuses_a_phase_zero_state_a_run_refuses(self, settled):
        hand_built = GraphState(0, {1: NodeRecord(0.5),
                                    3: NodeRecord(3.0, label="x", alive=False)})
        with pytest.raises(InputError, match="invalid phase-0 state") as excinfo:
            settle_phase_one(hand_built)
        assert "node 1: mass must be > 1" in str(excinfo.value)
        # the phase is checked first: a settled state is out of sequence, not invalid
        with pytest.raises(SequencingError):
            settle_phase_one(dataclasses.replace(settled, nodes={1: NodeRecord(0.5)}))


class TestEdgeEvent:
    def test_worked_trace(self, settled):
        state = apply_event(settled, AddNode(3.0))[0]
        state = apply_event(state, AddEdge(1, 3, 2.0))[0]
        assert state.phase == 3
        assert state.mass(1) == pytest.approx(M1_AFTER_EDGE, abs=TOL)
        assert state.mass(2) == pytest.approx(M_SETTLED, abs=TOL)  # untouched
        assert state.mass(3) == pytest.approx(M3_AFTER_EDGE, abs=TOL)
        assert state.weight(1, 3) == pytest.approx(W13_AFTER_EDGE, abs=TOL)
        # the incident edge LOSES weight: ln(f(2)) < 0
        assert state.weight(1, 2) == pytest.approx(W12_AFTER_EDGE, abs=TOL)
        assert state.weight(1, 2) < W_SETTLED

    def test_isolated_pair(self):
        state = settle_phase_one(new_graph([5, 7], []))
        state = apply_event(state, AddEdge(1, 2, math.e))[0]
        assert state.mass(1) == pytest.approx(5 + F_AT_E, abs=TOL)
        assert state.mass(2) == pytest.approx(7 + F_AT_E, abs=TOL)
        assert state.weight(1, 2) == pytest.approx(W_ISOLATED_PAIR, abs=TOL)

    def test_duplicate_edge_rejected(self, settled):
        with pytest.raises(DuplicateEdgeError):
            apply_event(settled, AddEdge(1, 2, 5.0))[0]
        with pytest.raises(DuplicateEdgeError):
            apply_event(settled, AddEdge(2, 1, 5.0))[0]

    def test_reconnecting_a_pruned_pair_is_allowed(self, settled):
        bare, _ = apply_event(settled, Prune(sys.float_info.max))
        # both endpoints died with the edge; rebuild from a fresh trace instead
        state = apply_event(settled, AddNode(3.0))[0]
        state = apply_event(state, AddEdge(1, 3, 2.0))[0]
        state, _ = apply_event(state, Prune(3.6))  # drops (1,2)
        assert not state.has_edge(1, 2)
        assert state.alive(1) and not state.alive(2)
        state = apply_event(state, AddNode(2.5))[0]  # node 4
        reconnected = apply_event(state, AddEdge(1, 4, 2.0))[0]
        assert reconnected.has_edge(1, 4)
        assert bare.alive_ids() == []

    def test_endpoint_errors(self, settled):
        with pytest.raises(NodeLookupError):
            apply_event(settled, AddEdge(1, 9, 2.0))[0]
        with pytest.raises(DiagonalError):
            apply_event(settled, AddEdge(1, 1, 2.0))[0]
        with pytest.raises(InputError):
            apply_event(settle_phase_one(new_graph([5, 7], [])), AddEdge(1, 2, 1.0))[0]

    def test_dead_endpoint_rejected(self, settled):
        state = apply_event(settled, AddNode(3.0))[0]
        state = apply_event(state, AddEdge(1, 3, 2.0))[0]
        state, _ = apply_event(state, Prune(3.6))  # node 2 dies
        with pytest.raises(NodeLookupError):
            apply_event(state, AddEdge(2, 3, 2.0))[0]

    def test_requires_settled_state(self, phase0):
        with pytest.raises(SequencingError):
            apply_event(phase0, AddEdge(1, 2, 2.0))[0]

    def test_locality(self):
        state = settle_phase_one(
            new_graph([2, 2, 3, 4, 5], [(1, 2, 2), (3, 4, 7), (4, 5, 9)]))
        before = state
        after = apply_event(state, AddEdge(1, 5, 3.0))[0]
        # nodes 2, 3, 4 and the (3,4) edge are bit-identical
        for i in (2, 3, 4):
            assert after.nodes[i] is before.nodes[i]
        assert after.edges[(3, 4)] is before.edges[(3, 4)]
        # edges touching 1 or 5 moved by exactly ln(f(3))
        delta = math.log(reinforcement(3.0, state.params))
        assert after.weight(1, 2) == before.weight(1, 2) + delta
        assert after.weight(4, 5) == before.weight(4, 5) + delta

    def test_new_edge_lower_bound(self, settled):
        state = apply_event(settled, AddNode(3.0))[0]
        state = apply_event(state, AddEdge(1, 3, 2.0))[0]
        assert state.weight(1, 3) > 2.0 + math.log(2)


class TestNodeEvent:
    def test_static_expansion(self, settled):
        state = apply_event(settled, AddNode(3.0, label="a proposition"))[0]
        assert state.phase == 2
        assert state.node_ids() == [1, 2, 3]
        assert state.mass(3) == 3.0
        assert state.label(3) == "a proposition"
        assert state.nodes[1] is settled.nodes[1]
        assert state.nodes[2] is settled.nodes[2]
        assert state.edges == settled.edges

    def test_mass_must_exceed_one(self, settled):
        with pytest.raises(InputError):
            apply_event(settled, AddNode(1.0))[0]

    def test_requires_settled_state(self, phase0):
        with pytest.raises(SequencingError):
            apply_event(phase0, AddNode(4.0))

    def test_on_empty_graph(self):
        state = settle_phase_one(new_graph([], []))
        state = apply_event(state, AddNode(2.5))[0]
        assert state.node_ids() == [1]
        assert state.mass(1) == 2.5

    def test_ids_never_reused(self, settled):
        state = apply_event(settled, AddNode(3.0))[0]
        state = apply_event(state, AddEdge(1, 3, 2.0))[0]
        state, _ = apply_event(state, Prune(3.6))  # kills node 2
        state = apply_event(state, AddNode(4.0))[0]
        assert state.node_ids() == [1, 2, 3, 4]     # id 2 still present, dead
        assert not state.alive(2)
        assert state.next_id == 5

    def test_a_taken_next_id_is_refused(self):
        # ids 2 and 3, which validate_state refuses: the next id, 3, is a node
        state = GraphState(1, {2: NodeRecord(2.0), 3: NodeRecord(2.0)})
        before = dict(state.nodes)
        with pytest.raises(InputError, match="node 3 exists"):
            apply_event(state, AddNode(2.0))
        assert state.nodes == before


class TestPrune:
    @pytest.fixture
    def traced(self, settled):
        state = apply_event(settled, AddNode(3.0))[0]
        return apply_event(state, AddEdge(1, 3, 2.0))[0]

    def test_worked_trace(self, traced):
        state, report = apply_event(traced, Prune(3.6))
        assert state.phase == 4
        assert not state.has_edge(1, 2)
        assert state.has_edge(1, 3)
        assert state.alive_ids() == [1, 3]
        assert not state.alive(2)
        assert state.mass(2) == pytest.approx(M_SETTLED, abs=TOL)  # mass retained
        assert report.threshold == 3.6
        assert report.removed_nodes == (2,)
        ((pair, last_weight),) = report.removed_edges
        assert pair == (1, 2)
        assert last_weight == pytest.approx(W12_AFTER_EDGE, abs=TOL)

    def test_zero_threshold_removes_only_isolated(self, settled):
        state = apply_event(settled, AddNode(3.0))[0]  # node 3 isolated
        pruned, report = apply_event(state, Prune(0.0))
        assert report.removed_edges == ()
        assert report.removed_nodes == (3,)
        assert pruned.alive_ids() == [1, 2]

    def test_an_edge_weighing_the_threshold_is_kept(self):
        # a prune removes the edges weighing less than its threshold, not those at it
        state = settle_phase_one(new_graph([2.0] * 3, [(1, 2, 2.0), (2, 3, 50.0)]))
        pruned, report = apply_event(state, Prune(state.weight(2, 3)))
        assert [pair for pair, _ in report.removed_edges] == [(1, 2)]
        assert report.removed_nodes == (1,)
        assert pruned.edges == {(2, 3): state.weight(2, 3)}
        assert pruned.alive_ids() == [2, 3]

    def test_infinite_threshold_clears_everything(self, traced):
        # inf itself is rejected at the boundary; the largest finite float acts alike
        state, report = apply_event(traced, Prune(sys.float_info.max))
        assert state.edges == {}
        assert state.alive_ids() == []
        assert len(report.removed_edges) == 2
        assert report.removed_nodes == (1, 2, 3)

    def test_idempotent(self, traced):
        once, _ = apply_event(traced, Prune(3.6))
        twice, report = apply_event(once, Prune(3.6))
        assert report.removed_edges == ()
        assert report.removed_nodes == ()
        assert twice.edges == once.edges
        assert twice.nodes == once.nodes
        assert twice.phase == once.phase + 1

    def test_requires_settled_state(self):
        # a prune at phase 0 would skip settlement and delete unsettled nodes
        with pytest.raises(SequencingError):
            apply_event(new_graph([2.0, 3.0], [(1, 2, 2.5)]), Prune(3.0))

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, settled, threshold):
        isolated = apply_event(settled, AddNode(3.0))[0]
        with pytest.raises(InputError):
            apply_event(isolated, Prune(threshold))
        # nothing was deleted: the isolated node is still there to prune
        assert apply_event(isolated, Prune(0.0))[1].removed_nodes == (3,)

    def test_non_numeric_threshold_rejected(self, settled):
        with pytest.raises(InputError):
            apply_event(settled, Prune("x"))


class TestBoundary:
    @pytest.mark.parametrize("bad_id", [1.0, True])
    def test_edge_ids_must_be_int(self, settled, bad_id):
        state = apply_event(settled, AddNode(3.0))[0]
        with pytest.raises(NodeLookupError):
            apply_event(state, AddEdge(bad_id, 3, 2.0))[0]
        with pytest.raises(NodeLookupError):
            apply_event(state, AddEdge(3, bad_id, 2.0))[0]

    @pytest.mark.parametrize("bad", ["x", None, [2.0]])
    def test_non_numeric_mass_and_weight_rejected(self, settled, bad):
        with pytest.raises(InputError):
            apply_event(settled, AddNode(bad))[0]
        with pytest.raises(InputError):
            apply_event(apply_event(settled, AddNode(3.0))[0], AddEdge(1, 3, bad))[0]
        with pytest.raises(InputError):
            new_graph([2, bad], [])
        with pytest.raises(InputError):
            new_graph([2, 2], [(1, 2, bad)])

    @pytest.mark.parametrize("label", [5, 3.0, b"x"])
    def test_label_must_be_text(self, settled, label):
        with pytest.raises(InputError):
            apply_event(settled, AddNode(3.0, label=label))[0]

    def test_integer_too_large_for_a_float_rejected(self, settled):
        huge = 10**400
        with pytest.raises(InputError):
            new_graph([2, huge], [])
        with pytest.raises(InputError):
            new_graph([2, 2], [(1, 2, huge)])
        with pytest.raises(InputError):
            apply_event(settled, AddNode(huge))[0]
        with pytest.raises(InputError):
            apply_event(settled, Prune(huge))


class TestOverflow:
    """A transition whose masses or weights leave the float range raises
    instead of writing inf into the next state."""

    BIG = sys.float_info.max

    def test_settlement(self):
        with pytest.raises(InputError, match=r"edge \(1, 2\)"):
            settle_phase_one(new_graph([self.BIG / 2, self.BIG * 0.75], [(1, 2, 2.0)]))

    def test_edge_event(self):
        settled = settle_phase_one(new_graph([self.BIG / 2, self.BIG * 0.75], []))
        with pytest.raises(InputError, match=r"edge \(1, 2\)"):
            apply_event(settled, AddEdge(1, 2, 2.0))[0]


class TestDispatch:
    def test_each_variant(self, settled):
        state, report = apply_event(settled, AddNode(initial_mass=3.0))
        assert report is None and state.node_ids() == [1, 2, 3]
        state, report = apply_event(state, AddEdge(k=1, l=3, initial_weight=2.0))
        assert report is None and state.has_edge(1, 3)
        state, report = apply_event(state, Prune(threshold=3.6))
        assert report is not None and report.removed_nodes == (2,)

    def test_rejects_non_events(self, settled):
        with pytest.raises(TypeError):
            apply_event(settled, "prune")


@pytest.mark.parametrize("value", [NodeRecord(2.5, "hub", False), AddEdge(1, 2, 2.0),
                                   AddNode(3.0, "new"), Prune(3.6),
                                   MetricsReport(3, 10.5, 2, 1, (1, 6.0), 0.6, (0, 2))])
def test_records_and_events_are_slotted_values(value):
    assert dataclasses.replace(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(TypeError):
        vars(value)  # no per-instance __dict__
    # the hand-written __init__ takes every field, in order, with its
    # default, and sets every slot, by keyword or by position alike
    kind, fields = type(value), dataclasses.fields(value)
    assert [(p.name, p.default) for p in inspect.signature(kind).parameters.values()] == \
        [(f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
         for f in fields]
    values = [getattr(value, f.name) for f in fields]
    by_name, by_place = kind(**{f.name: v for f, v in zip(fields, values)}), kind(*values)
    assert by_name == by_place == value
    assert hash(by_name) == hash(by_place) == hash(value)
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


class TestDeterminismAndInvariants:
    def test_identical_replay_is_bitwise_equal(self, phase0):
        events = [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6), AddNode(2.5),
                  AddEdge(3, 4, 5.5)]
        def play():
            state = settle_phase_one(phase0)
            for ev in events:
                state, _ = apply_event(state, ev)
            return state
        a, b = play(), play()
        assert a == b
        assert [a.nodes[i].mass for i in a.node_ids()] == \
               [b.nodes[i].mass for i in b.node_ids()]

    def test_every_transition_validates_clean(self, phase0):
        state = settle_phase_one(phase0)
        assert validate_state(state) == []
        for ev in [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6), AddNode(2.5),
                   AddEdge(1, 4, 9.0), Prune(100.0)]:
            state, _ = apply_event(state, ev)
            assert validate_state(state) == []

    def test_mass_monotonicity(self, phase0):
        state = settle_phase_one(phase0)
        for ev in [AddNode(3.0), AddEdge(1, 3, 2.0), Prune(3.6), AddNode(2.5),
                   AddEdge(1, 4, 9.0)]:
            prev = state
            state, _ = apply_event(state, ev)
            for i in prev.node_ids():
                assert state.mass(i) >= prev.mass(i)
            if isinstance(ev, AddEdge):
                assert state.mass(ev.k) > prev.mass(ev.k)
                assert state.mass(ev.l) > prev.mass(ev.l)

    def test_conservation_identity(self, phase0):
        params = KernelParams()
        state = settle_phase_one(phase0)
        state, _ = apply_event(state, AddNode(3.0))
        before = state.total_mass()
        state, _ = apply_event(state, AddEdge(1, 3, 2.0))
        gain = reinforcement(2.0, params)
        assert state.total_mass() == pytest.approx(before + 2 * gain, abs=1e-9)
        removed_mass = state.mass(2)
        before = state.total_mass()
        state, _ = apply_event(state, Prune(3.6))
        assert state.total_mass() == pytest.approx(before - removed_mass, abs=1e-9)
