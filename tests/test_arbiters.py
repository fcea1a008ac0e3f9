"""Unit and property tests for the arbiters."""

from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from repro.core.arbiters import MatrixArbiter, RoundRobinArbiter, oldest_first
from repro.sim.flit import Flit
from repro.sim.ports import Port


class TestRoundRobin:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_no_requests_no_grant(self):
        assert RoundRobinArbiter(4).grant([]) is None

    def test_single_request_wins(self):
        assert RoundRobinArbiter(4).grant([2]) == 2

    def test_rotates_after_grant(self):
        arb = RoundRobinArbiter(3)
        grants = [arb.grant([0, 1, 2]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_strong_fairness(self):
        """A continuously requesting index is served within size grants."""
        arb = RoundRobinArbiter(5)
        waits = 0
        for _ in range(20):
            if arb.grant([1, 3]) == 3:
                break
            waits += 1
        assert waits < 5

    @given(
        st.lists(
            st.sets(st.integers(0, 4), min_size=1, max_size=5), min_size=1, max_size=40
        )
    )
    def test_grant_always_among_requests(self, rounds):
        arb = RoundRobinArbiter(5)
        for req in rounds:
            got = arb.grant(req)
            assert got in req


def _reference_grant(ptr, size, req):
    """The textbook rotating-priority scan: (winner, next pointer)."""
    for off in range(size):
        idx = (ptr + off) % size
        if idx in req:
            return idx, (idx + 1) % size
    return None, ptr


#: Every non-empty request subset of a 5-way arbiter.
SUBSETS = [set(c) for r in range(1, 6) for c in combinations(range(5), r)]


class TestRoundRobinEquivalence:
    """``grant`` against the reference scan, exhaustively for P = 5."""

    @staticmethod
    def _at(ptr):
        arb = RoundRobinArbiter(5)
        arb.load_state_dict({"ptr": ptr})
        return arb

    def test_every_pointer_and_subset(self):
        for ptr, req in product(range(5), SUBSETS):
            want, next_ptr = _reference_grant(ptr, 5, req)
            for given_as in (set(req), sorted(req), iter(sorted(req, reverse=True))):
                arb = self._at(ptr)
                assert arb.grant(given_as) == want, (ptr, req)
                assert arb.peek_pointer() == next_ptr, (ptr, req)

    def test_every_two_grant_sequence(self):
        for ptr, first, second in product(range(5), SUBSETS, SUBSETS):
            arb = self._at(ptr)
            ref_ptr = ptr
            for req in (first, second):
                want, ref_ptr = _reference_grant(ref_ptr, 5, req)
                assert arb.grant(req) == want
                assert arb.peek_pointer() == ref_ptr

    @given(st.integers(0, 4), st.lists(st.sets(st.integers(0, 4)), max_size=60))
    def test_long_sequences(self, ptr, rounds):
        arb = self._at(ptr)
        ref_ptr = ptr
        for req in rounds:
            want, ref_ptr = _reference_grant(ref_ptr, 5, req)
            assert arb.grant(req) == want
            assert arb.peek_pointer() == ref_ptr

    def test_ports_in_ports_out(self):
        arb = self._at(2)
        got = arb.grant({Port.NORTH, Port.WEST})
        assert got is Port.WEST
        assert arb.peek_pointer() == 4 and type(arb.peek_pointer()) is int

    @pytest.mark.parametrize("req", [{7}, {5}, {-1}, [0, 5], {1, 2, 9}])
    def test_out_of_range_raises(self, req):
        arb = self._at(3)
        with pytest.raises(ValueError):
            arb.grant(req)
        assert arb.peek_pointer() == 3


class TestMatrixArbiter:
    def test_no_requests(self):
        assert MatrixArbiter(4).grant([]) is None

    def test_least_recently_served_wins(self):
        arb = MatrixArbiter(3)
        assert arb.grant([0, 1]) == 0
        assert arb.grant([0, 1]) == 1
        # 0 was served longest ago among {0, 2}? 2 never served: initial
        # priority had 0 > 2, but 0 was just demoted below everyone.
        assert arb.grant([0, 2]) == 2

    def test_unique_winner_every_round(self):
        arb = MatrixArbiter(4)
        for _ in range(50):
            got = arb.grant([0, 1, 2, 3])
            assert got in (0, 1, 2, 3)

    @given(
        st.lists(
            st.sets(st.integers(0, 3), min_size=1, max_size=4), min_size=1, max_size=40
        )
    )
    def test_starvation_freedom(self, rounds):
        """No index requesting in every round goes unserved for > size
        consecutive grants."""
        arb = MatrixArbiter(4)
        last_served = {i: 0 for i in range(4)}
        always = set.intersection(*rounds) if rounds else set()
        for t, req in enumerate(rounds):
            got = arb.grant(req)
            last_served[got] = t
        for idx in always:
            # Served at least once in any window of 4 requests.
            assert last_served[idx] >= len(rounds) - 5


class TestOldestFirst:
    def test_orders_by_injection_cycle(self):
        f1 = Flit(0, 0, 0, 1, injected_cycle=9)
        f2 = Flit(1, 1, 0, 1, injected_cycle=3)
        assert oldest_first([f1, f2]) == [f2, f1]

    def test_stable_total_order(self):
        flits = [
            Flit(i, packet_id=i % 3, src=0, dst=1, injected_cycle=5) for i in range(6)
        ]
        once = oldest_first(flits)
        twice = oldest_first(list(reversed(flits)))
        assert [f.fid for f in once] == [f.fid for f in twice]
