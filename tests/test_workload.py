from dataclasses import replace

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from offloadsim.engine import derive_stream
from offloadsim.workload import (
    ARRIVAL_HORIZON_MS,
    MMPP_EPOCH_MS,
    MmppState,
    EmptyCatalogError,
    ServiceTypeSpec,
    TaskSpec,
    mmpp_next_arrival,
    mmpp_step_epoch,
    normalize_catalog,
    sample_service_request,
    synthetic_catalog,
)


def high_regime_state(**kw):
    defaults = dict(regime="High", lambda_high=0.54e-3, lambda_low=0.06e-3, p_high=0.6, p_low=0.6)
    defaults.update(kw)
    return MmppState(**defaults)


class TestMmpp:
    def test_symmetric_chain_occupancy(self):
        rng = derive_stream(7, "mmpp")
        state = high_regime_state()
        high = 0
        n = 20_000
        for _ in range(n):
            state = mmpp_step_epoch(state, rng)
            high += state.regime == "High"
        assert abs(high / n - 0.5) < 0.02

    def test_mean_interarrival_matches_rate(self):
        # lambda_high = 0.54/s -> mean gap 1852 ms
        rng = derive_stream(11, "mmpp")
        state = high_regime_state(p_high=0.0, p_low=0.0)  # pinned regime
        total = 0.0
        n = 100_000
        for _ in range(n):
            gap, state = mmpp_next_arrival(state, rng)
            total += gap
        mean = total / n
        assert abs(mean - 1852.0) / 1852.0 < 0.02

    def test_vanishing_rate_caps_at_horizon(self):
        rng = derive_stream(3, "mmpp")
        state = MmppState("Low", lambda_high=1e-3, lambda_low=0.0, p_high=0.0, p_low=0.0)
        gap, _ = mmpp_next_arrival(state, rng)
        assert gap == ARRIVAL_HORIZON_MS

    def test_a_draw_past_the_horizon_is_capped(self):
        # the property's capped example below: seed 3's first gap at a Low
        # rate just above the cap's inverse lies past the cap
        low = 1e-3 * 1.2e-6
        assert derive_stream(3, "mmpp").exponential(1.0 / low) > ARRIVAL_HORIZON_MS
        state = MmppState("Low", lambda_high=1e-3, lambda_low=low, p_high=0.0, p_low=0.5, ms_into_epoch=640.5)
        gap, _ = mmpp_next_arrival(state, derive_stream(3, "mmpp"))
        assert gap == ARRIVAL_HORIZON_MS

    def test_fixed_regime_gaps_are_exponential(self):
        rng = derive_stream(19, "mmpp")
        state = high_regime_state(p_high=0.0, p_low=0.0)
        gaps = []
        for _ in range(10_000):
            gap, state = mmpp_next_arrival(state, rng)
            gaps.append(gap)
        d = stats.kstest(gaps, "expon", args=(0, 1 / 0.54e-3))
        assert d.pvalue > 0.001

    def test_in_place_step_matches_copying_reference(self):
        def reference_next_arrival(state, rng):
            """The MMPP step with a fresh state per change, via `replace`."""
            rate = state.lambda_high if state.regime == "High" else state.lambda_low
            gap = min(rng.exponential(1.0 / rate), 1e9)
            elapsed = state.ms_into_epoch + gap
            crossings = int(elapsed // MMPP_EPOCH_MS)
            for _ in range(crossings):
                p_switch = state.p_high if state.regime == "High" else state.p_low
                if rng.uniform() < p_switch:
                    state = replace(state, regime="Low" if state.regime == "High" else "High")
            return gap, replace(state, ms_into_epoch=elapsed - crossings * MMPP_EPOCH_MS)

        ref_rng, rng = derive_stream(23, "mmpp"), derive_stream(23, "mmpp")
        ref, state = high_regime_state(), high_regime_state()
        switches = 0
        for _ in range(10_000):
            before = ref.regime
            ref_gap, ref = reference_next_arrival(ref, ref_rng)
            gap, advanced = mmpp_next_arrival(state, rng)
            assert advanced is state
            assert (gap, state.regime, state.ms_into_epoch) == (ref_gap, ref.regime, ref.ms_into_epoch)
            switches += state.regime != before
        assert switches > 1000
        assert rng.draw_counter == ref_rng.draw_counter
        assert mmpp_step_epoch(state, rng) is state

    @pytest.mark.parametrize("field, value, match", [("p_high", 1.5, "switch probabilities"), ("regime", "Mid", "regime")])
    def test_bad_switch_probability_or_regime_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            high_regime_state(**{field: value})

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            MmppState("High", lambda_high=0.1, lambda_low=0.2, p_high=0.5, p_low=0.5)

    def test_infinite_high_rate_rejected(self):
        # every gap would be 0.0: the next arrival would never leave its millisecond
        with pytest.raises(ValueError, match="lambda_high"):
            high_regime_state(lambda_high=math.inf)

    @pytest.mark.parametrize("offset", [-5000.0, -0.5, 1000.0, 2500.0, math.nan, math.inf, -math.inf])
    def test_offset_outside_the_epoch_rejected(self, offset):
        with pytest.raises(ValueError, match="ms_into_epoch"):
            high_regime_state(ms_into_epoch=offset)

    def test_offset_range_bounds(self):
        assert high_regime_state(ms_into_epoch=0.0).ms_into_epoch == 0.0
        assert high_regime_state(ms_into_epoch=999.999).ms_into_epoch == 999.999


def general_next_arrival(state, rng):
    """mmpp_next_arrival without its fast path: the cap by `min`, and the
    crossings loop run even when it crosses nothing."""
    rate = state.lambda_high if state.regime == "High" else state.lambda_low
    if rate <= 1.0 / ARRIVAL_HORIZON_MS:
        gap = ARRIVAL_HORIZON_MS
    else:
        gap = min(rng.exponential(1.0 / rate), ARRIVAL_HORIZON_MS)
    elapsed = state.ms_into_epoch + gap
    crossings = int(elapsed // MMPP_EPOCH_MS)
    for _ in range(crossings):
        mmpp_step_epoch(state, rng)
    state.ms_into_epoch = elapsed - crossings * MMPP_EPOCH_MS
    return gap


@settings(max_examples=150, deadline=None)
@given(
    lambda_high=st.floats(1e-3, 0.5),
    low_share=st.floats(0.05, 0.99),  # a mean Low gap of up to 20 epochs; the vanishing rates are examples
    p_high=st.floats(0.0, 1.0),
    p_low=st.floats(0.0, 1.0),
    regime=st.sampled_from(["High", "Low"]),
    offset=st.floats(0.0, MMPP_EPOCH_MS, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    arrivals=st.integers(1, 40),
)
# a vanishing Low rate: the capped gap without a draw, then a million epoch draws
@example(lambda_high=1e-3, low_share=0.0, p_high=0.0, p_low=0.0, regime="Low", offset=0.0, seed=3, arrivals=1)
# a Low rate just above the cap's inverse: seed 3's first exponential draw exceeds the cap, so min caps it
@example(lambda_high=1e-3, low_share=1.2e-6, p_high=0.0, p_low=0.5, regime="Low", offset=640.5, seed=3, arrivals=1)
def test_next_arrival_matches_the_general_step(
    lambda_high, low_share, p_high, p_low, regime, offset, seed, arrivals
):
    def fresh():
        return MmppState(regime, lambda_high, lambda_high * low_share, p_high, p_low, offset)

    ref, state = fresh(), fresh()
    ref_rng, rng = derive_stream(seed, "mmpp"), derive_stream(seed, "mmpp")
    for _ in range(arrivals):
        ref_gap = general_next_arrival(ref, ref_rng)
        gap, advanced = mmpp_next_arrival(state, rng)
        assert advanced is state
        assert (gap, state.regime, state.ms_into_epoch) == (ref_gap, ref.regime, ref.ms_into_epoch)
        assert rng.draw_counter == ref_rng.draw_counter


class TestCatalog:
    def test_paper_share_is_sampling_weight(self):
        # the F1/300ms entry carries an 18.75% share
        catalog = [
            ServiceTypeSpec("F1-300", (TaskSpec("F1", 3.0),), 300, 0.1875),
            ServiceTypeSpec("other", (TaskSpec("F1", 3.0),), 300, 0.8125),
        ]
        rng = derive_stream(5, "catalog")
        n = 100_000
        hits = sum(sample_service_request(catalog, rng).type_id == "F1-300" for _ in range(n))
        assert abs(hits / n - 0.1875) < 0.01

    def test_single_entry_catalog(self):
        # the one spec comes from the same draw and loop as any other catalog
        catalog = [ServiceTypeSpec("only", (TaskSpec("F1", 3.0),), 300, 1.0)]
        rng = derive_stream(5, "catalog")
        for calls in range(1, 4):
            assert sample_service_request(catalog, rng) is catalog[0]
            assert rng.draw_counter == calls

    def test_shares_below_one_fall_through_to_the_last_spec(self):
        # every draw lies above the 1e-9 total, so the loop ends without a pick
        catalog = [
            ServiceTypeSpec("a", (TaskSpec("F1", 3.0),), 300, 0.5e-9),
            ServiceTypeSpec("b", (TaskSpec("F1", 3.0),), 300, 0.5e-9),
        ]
        rng = derive_stream(5, "catalog")
        assert [sample_service_request(catalog, rng).type_id for _ in range(20)] == ["b"] * 20

    def test_task_units(self):
        catalog = synthetic_catalog()
        by_id = {s.type_id: s for s in catalog}
        assert by_id["F1-300"].task_chain[0].resource_units == 3.0
        assert by_id["F2-300"].task_chain[0].resource_units == 30.0

    def test_synthetic_catalog_is_normalized(self):
        catalog = synthetic_catalog()
        assert sum(s.probability for s in catalog) == pytest.approx(1.0, abs=1e-9)
        # raw shares summed to 112.5%; each entry is rescaled by 1/1.125
        by_id = {s.type_id: s for s in catalog}
        assert by_id["F1-300"].probability == pytest.approx(0.1875 / 1.125)

    def test_sampling_chi_square_goodness_of_fit(self):
        catalog = synthetic_catalog()
        rng = derive_stream(23, "catalog")
        n = 100_000
        counts = {s.type_id: 0 for s in catalog}
        for _ in range(n):
            counts[sample_service_request(catalog, rng).type_id] += 1
        observed = [counts[s.type_id] for s in catalog]
        expected = [s.probability * n for s in catalog]
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        critical = stats.chi2.ppf(1 - 0.001, df=len(catalog) - 1)
        assert chi2 < critical

    def test_empty_catalog(self):
        rng = derive_stream(5, "catalog")
        with pytest.raises(EmptyCatalogError):
            sample_service_request([], rng)
        with pytest.raises(EmptyCatalogError):
            normalize_catalog([])

    @pytest.mark.parametrize("units", [math.nan, math.inf])
    def test_non_finite_work_rejected(self, units):
        with pytest.raises(ValueError, match="resource_units"):
            TaskSpec("F1", units)

    @pytest.mark.parametrize("deadline", [0, -50, 2.5, math.nan, math.inf, True])
    def test_bad_deadline_rejected(self, deadline):
        # NaN, inf and 2.5 used to pass here and fail only at the first
        # arrival, as a non-integer event time; True was taken as 1 ms
        with pytest.raises(ValueError, match="F1-300: deadline_ms must be an integer >= 1"):
            ServiceTypeSpec("F1-300", (TaskSpec("F1", 3.0),), deadline, 1.0)

    def test_empty_task_chain_rejected(self):
        with pytest.raises(ValueError, match="task_chain must be non-empty"):
            ServiceTypeSpec("F1-300", (), 300, 1.0)

    def test_all_zero_shares_rejected(self):
        catalog = [ServiceTypeSpec(t, (TaskSpec("F1", 3.0),), 300, 0.0) for t in "XY"]
        with pytest.raises(ValueError, match="positive sum"):
            normalize_catalog(catalog)

    def test_repeated_type_id_rejected(self):
        # a driver keyed by type would silently merge the two types' queues
        catalog = [
            ServiceTypeSpec("X", (TaskSpec("F1", 3.0),), 50, 0.5),
            ServiceTypeSpec("Y", (TaskSpec("F1", 3.0),), 50, 0.25),
            ServiceTypeSpec("X", (TaskSpec("F1", 3.0),), 300, 0.25),
        ]
        with pytest.raises(ValueError, match="service type X appears twice"):
            normalize_catalog(catalog)

    @pytest.mark.parametrize("share", [math.nan, math.inf, -0.5])
    def test_bad_share_rejected(self, share):
        # NaN turns every normalized share into NaN, and a negative share
        # makes the cumulative sampler skip the next type
        with pytest.raises(ValueError, match="probability"):
            ServiceTypeSpec("F1-300", (TaskSpec("F1", 3.0),), 300, share)
