import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim.auction import (
    Bid,
    DuplicateBidError,
    UnknownBidderError,
    clear_auction,
    feedback_for,
)
from offloadsim.engine import derive_stream

from oracles import check_outcome_against_oracle


def bid(bidder, price, service_type="F1", estimate=3.0, deadline=300):
    return Bid(bidder, service_type, price, estimate, deadline)


# grid prices make boundary ties common; floats cover everything else
PRICES = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]), st.floats(0.0, 1e6))


@st.composite
def clearing_instances(draw):
    """(types, {bidder: {type: price}}, slots): up to 10 bidders and 3 types,
    each bidder bidding on any subset of the types, 0..8 slots per type."""
    types = ["F1", "F2", "F3"][: draw(st.integers(1, 3))]
    n_bidders = draw(st.integers(1, 10))
    prices = {f"m{b}": draw(st.dictionaries(st.sampled_from(types), PRICES)) for b in range(n_bidders)}
    slots = {t: draw(st.integers(0, 8)) for t in types}
    return types, prices, slots


class TestClearing:
    def test_single_slot_second_price(self):
        rng = derive_stream(1, "auction")
        out = clear_auction([bid("A", 5.0), bid("B", 3.0), bid("C", 2.0)], {"F1": 1}, rng)
        assert out.winners["F1"] == {"A"}
        assert out.payment_vector["F1"] == 3.0

    def test_two_slots(self):
        rng = derive_stream(1, "auction")
        out = clear_auction([bid("A", 5.0), bid("B", 3.0), bid("C", 2.0)], {"F1": 2}, rng)
        assert out.winners["F1"] == {"A", "B"}
        assert out.payment_vector["F1"] == 2.0

    def test_all_bids_fit_pays_zero(self):
        rng = derive_stream(1, "auction")
        out = clear_auction([bid("A", 5.0), bid("B", 3.0)], {"F1": 3}, rng)
        assert out.winners["F1"] == {"A", "B"}
        assert out.payment_vector["F1"] == 0.0

    def test_zero_slots_pay_top_price(self):
        rng = derive_stream(1, "auction")
        out = clear_auction([bid("A", 5.0), bid("B", 3.0)], {"F1": 0}, rng)
        assert out.winners["F1"] == set()
        assert out.payment_vector["F1"] == 5.0

    def test_boundary_tie_is_uniform(self):
        wins = {"A": 0, "B": 0}
        n = 10_000
        for seed in range(n):
            rng = derive_stream(seed, "auction")
            out = clear_auction([bid("A", 4.0), bid("B", 4.0)], {"F1": 1}, rng)
            assert out.payment_vector["F1"] == 4.0
            (winner,) = out.winners["F1"]
            wins[winner] += 1
        assert abs(wins["A"] / n - 0.5) < 0.03

    def test_duplicate_bid_rejected(self):
        rng = derive_stream(1, "auction")
        with pytest.raises(DuplicateBidError):
            clear_auction([bid("A", 5.0), bid("A", 4.0)], {"F1": 1}, rng)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_price_rejected(self, bad):
        with pytest.raises(ValueError, match="price"):
            bid("B", bad)

    def test_negative_rebid_count_rejected(self):
        with pytest.raises(ValueError, match="rebid_count"):
            Bid("B", "F1", 1.0, 3.0, 300, rebid_count=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_resource_estimate_rejected(self, bad):
        with pytest.raises(ValueError, match="resource_estimate"):
            bid("B", 1.0, estimate=bad)

    @pytest.mark.parametrize("count", [1.7, True, float("nan"), -1])
    def test_bad_slot_count_rejected(self, count):
        # 1.7 and True used to clear as 1 slot (winner A at payment 4.0), and
        # NaN raised from int()
        rng = derive_stream(1, "auction")
        with pytest.raises(ValueError, match="slot count for F1 must be an integer >= 0"):
            clear_auction([bid("A", 5.0), bid("B", 4.0), bid("C", 3.0)], {"F1": count}, rng)
        assert rng.draw_counter == 0

    def test_types_clear_independently(self):
        rng = derive_stream(1, "auction")
        out = clear_auction(
            [bid("A", 5.0, "F1"), bid("B", 3.0, "F1"), bid("A", 1.0, "F2"), bid("C", 9.0, "F2")],
            {"F1": 1, "F2": 1},
            rng,
        )
        assert out.winners["F1"] == {"A"}
        assert out.winners["F2"] == {"C"}
        assert out.payment_vector["F2"] == 1.0


class TestOracleEquivalence:
    def run_case(self, prices_by_bidder, types, slots, seed=0):
        bids = []
        bids_by_type = {t: [] for t in types}
        for bidder, per_type in prices_by_bidder.items():
            for service_type, price in per_type.items():
                bids.append(bid(bidder, price, service_type))
                bids_by_type[service_type].append((bidder, price))
        rng = derive_stream(seed, "auction")
        out = clear_auction(bids, slots, rng)
        check_outcome_against_oracle(out, bids_by_type, slots)
        return out

    @settings(max_examples=300, deadline=None)
    @given(instance=clearing_instances(), seed=st.integers(0, 2**64 - 1))
    def test_random_instances_match_oracle(self, instance, seed):
        types, prices, slots = instance
        self.run_case(prices, types, slots, seed=seed)

    def test_price_raise_never_unseats_winner(self):
        # monotonicity: a winner that raises its price keeps winning
        rng_case = derive_stream(17, "caser")
        grid = [1.0, 2.0, 3.0, 4.0]
        for _ in range(200):
            prices = {f"m{b}": {"F1": grid[rng_case.integer_array(0, 4, None)]} for b in range(4)}
            slots = {"F1": 2}
            seed = int(rng_case.integer_array(0, 10_000, None))
            out = clear_auction(
                [bid(b, p["F1"]) for b, p in prices.items()], slots, derive_stream(seed, "auction")
            )
            for winner in sorted(out.winners["F1"]):
                raised = dict(prices)
                raised[winner] = {"F1": prices[winner]["F1"] + 1.5}
                out2 = clear_auction(
                    [bid(b, p["F1"]) for b, p in raised.items()],
                    slots,
                    derive_stream(seed, "auction"),
                )
                # strictly above the old boundary now: must win outright
                assert winner in out2.winners["F1"]


class TestFeedback:
    def outcome(self):
        rng = derive_stream(1, "auction")
        return clear_auction(
            [bid("A", 5.0), bid("B", 3.0)], {"F1": 1}, rng, roster=["A", "B", "C"]
        )

    def test_winner_feedback(self):
        fb = feedback_for(self.outcome(), "A", 0.4)
        assert fb.outcomes == {"F1": 1}
        assert fb.prices == {"F1": 3.0}
        assert fb.beta == 0.4

    def test_loser_sees_final_price(self):
        fb = feedback_for(self.outcome(), "B", 0.4)
        assert fb.outcomes == {"F1": 0}
        assert fb.prices == {"F1": 3.0}

    def test_backed_off_bidder_gets_beta_only(self):
        fb = feedback_for(self.outcome(), "C", 0.4)
        assert fb.outcomes == {}
        assert fb.prices == {}
        assert fb.beta == 0.4

    def test_unknown_bidder(self):
        with pytest.raises(UnknownBidderError):
            feedback_for(self.outcome(), "Z", 0.4)

    def test_no_competitor_identities_leak(self):
        fb = feedback_for(self.outcome(), "B", 0.4)
        assert set(vars(fb)) == {"bidder_id", "outcomes", "prices", "beta"}
        assert fb.bidder_id == "B"
