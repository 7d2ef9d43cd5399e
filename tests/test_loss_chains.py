"""Each model's chain is one LossChainSpec, solved by loss_chain_probs and
simulated by the DES.  These tests hold that one description to the two
it replaced, the des.spec_for_* builders and queueing's own birth/death
lists (kept verbatim in oracles.py): specs and probabilities must be equal
to the last bit, not merely close."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from femtonet import des
from femtonet.queueing import (
    CH6_SCHEMES,
    Ch7QueueParams,
    LossChainSpec,
    _with_hand_rate,
    loss_chain_probs,
    solve_ch6,
    solve_ch7,
    solve_two_tier,
)
from femtonet.scenario import Scenario, scenario_from_preset


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lam", [0.05, 0.7, 1.3, 2.5])
@pytest.mark.parametrize("scheme", CH6_SCHEMES)
def test_ch6_chain_equals_old_spec_and_birth_lists(scheme, lam):
    params = Scenario({}).ch6_params(lam_new=lam)
    sol = solve_ch6(params, scheme)
    lam_h = sol.handover_rate
    assert des.spec_for_ch6(params, lam_h, scheme) == oracles.spec_for_ch6(params, lam_h, scheme)
    probs, p_b, p_d = oracles.ch6_probs(params, lam_h, scheme)
    assert _same_bits(sol.probs, probs)
    assert (sol.p_block, sol.p_drop) == (p_b, p_d)


@pytest.mark.parametrize("lam_total", [2.0, 8.0, 20.0])
@pytest.mark.parametrize("n", [0, 1, 100, 400, 1000])
def test_two_tier_chains_equal_old_specs_and_birth_lists(n, lam_total):
    params = scenario_from_preset("table-5.1").two_tier_params(n=n, lam_total=lam_total)
    sol = solve_two_tier(params)
    assert (des.spec_for_two_tier_macro(params, sol)
            == oracles.spec_for_two_tier_macro(params, sol))
    assert (des.spec_for_two_tier_femto(params, sol)
            == oracles.spec_for_two_tier_femto(params, sol))
    femto, macro = oracles.two_tier_probs(params, sol)
    assert _same_bits(sol.femto.probs, femto)
    assert _same_bits(sol.macro.probs, macro)


def _ch7_grid():
    rng = np.random.default_rng(20)
    for _ in range(120):
        m = int(rng.integers(0, 5))
        n = m + int(rng.integers(0, 7))
        s = int(rng.integers(0, 5))
        if n + s == 0:
            continue
        yield Ch7QueueParams(
            sessions=m, n_states=n, s_states=s, l_states=int(rng.integers(0, s + 1)),
            lam_new_voice=float(rng.uniform(0.01, 2.0)),
            lam_new_unicast=float(rng.uniform(0.01, 2.0)),
            lam_new_background=float(rng.uniform(0.01, 2.0)),
            lam_hand=float(rng.uniform(0.01, 2.0)),
            mu=float(rng.uniform(0.05, 1.0)))
    # sessions only (no arrivals), and a one-state chain (M = N, S = 0)
    yield Ch7QueueParams(12, 40, 8, 4, 0.0, 0.0, 0.0, 0.0, 1 / 120.0)
    yield Ch7QueueParams(3, 3, 0, 0, 0.5, 0.1, 0.4, 0.3, 1 / 120.0)


def test_ch7_chain_equals_old_spec_and_birth_lists():
    for params in _ch7_grid():
        assert des.spec_for_ch7(params) == oracles.spec_for_ch7(params), params
        sol = solve_ch7(params)
        probs, p_b_v, p_b_back, p_d = oracles.ch7_probs(params)
        assert _same_bits(sol.probs, probs), params
        assert (sol.extra["P_B_voice"], sol.extra["P_B_background"], sol.p_drop) \
            == (p_b_v, p_b_back, p_d), params


def test_stream_limited_at_or_below_the_floor_is_always_rejected():
    # stream 0 may enter only below state 1, but the chain never leaves 2..3
    spec = LossChainSpec((0.5, 1.0), (1, 3), (0.0, 1.0, 2.0, 3.0),
                         start_state=2, min_state=2)
    probs, (reject_0, reject_1) = loss_chain_probs(spec)
    assert len(probs) == 2 and reject_0 == 1.0
    assert reject_1 == pytest.approx(probs[-1])
    sim = des.simulate_des(spec, total_calls=2_000, seed=1)
    assert sim.per_stream[0]["p_reject"] == 1.0


@pytest.mark.parametrize("lam_h", [0.0, 0.4, 7.5])
def test_new_hand_rate_gives_the_spec_a_full_build_gives(lam_h):
    spec = LossChainSpec((0.5, 0.2), (3, 5), (0.0, 1.0, 2.0, 3.0, 3.5, 4.0), hand_stream=1)
    assert _with_hand_rate(spec, lam_h) == replace(spec, stream_rates=(0.5, lam_h))


@pytest.mark.parametrize("lam_h", [-0.01, math.nan, math.inf])
def test_bad_new_hand_rate_is_rejected(lam_h):
    spec = LossChainSpec((0.5, 0.2), (3, 5), (0.0, 1.0, 2.0, 3.0, 3.5, 4.0), hand_stream=1)
    with pytest.raises(ValueError, match="finite and >= 0"):
        _with_hand_rate(spec, lam_h)
