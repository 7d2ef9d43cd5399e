import math
import re
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import balance_equation_solve, erlang_b_direct

from femtonet import admission, experiments, queueing
from femtonet.admission import TrafficClass
from femtonet.queueing import (
    CH6_SCHEMES,
    Ch6QueueParams,
    Ch7QueueParams,
    CoverageError,
    NonConvergenceError,
    TwoTierParams,
    birth_death_probs,
    chain_dimensions,
    ch6_cells,
    channel_release_rates,
    erlang_b,
    forced_termination_probability,
    handover_probabilities,
    solve_ch6,
    solve_ch6_sweep,
    solve_ch7,
    solve_two_tier,
    solve_two_tier_sweep,
)
from femtonet.cli import EXIT_OK, main
from femtonet.scenario import apply_overrides, scenario_from_preset

# Table 6.1 traffic classes
TABLE61 = (
    TrafficClass(1, "rt", 25.0, arrival_share=0.35),
    TrafficClass(2, "rt", 128.0, arrival_share=0.10),
    TrafficClass(3, "rt", 56.0, arrival_share=0.05),
    TrafficClass(4, "nrt", 128.0, 0.4, 0.6, 0.15),
    TrafficClass(5, "nrt", 13.0, 0.2, 0.3, 0.10),
    TrafficClass(6, "nrt", 56.0, 0.2, 0.5, 0.15),
    TrafficClass(7, "nrt", 56.0, 0.5, 0.8, 0.10),
)


def _two_tier(n=1000, lam_f=2.0, lam_m=1.0, alpha=0.8, beta=0.2, **kw):
    defaults = dict(
        lambda_o_f=lam_f, lambda_o_m=lam_m, mu=1 / 120.0,
        eta_f=1 / 360.0, eta_m=1 / 240.0, n=n,
        r_f=10.0, r_m=1000.0, femto_capacity=4,
        macro_base_states=100, macro_adaptive_states=30,
        alpha=alpha, beta_prob=beta,
    )
    defaults.update(kw)
    return TwoTierParams(**defaults)


# ---------------------------------------------------------------------------
# handover probabilities (Ch. 5)


def test_handover_prob_mm_symmetric():
    p = handover_probabilities(_two_tier(eta_m=1 / 120.0))
    assert p.mm == pytest.approx(0.5)


def test_handover_prob_fm_direct_evaluation():
    # n=1000, r_f/r_m = 0.01, 1/mu = 120 s, 1/eta_f = 360 s:
    # [1 - 0.1] * (1/360) / (1/360 + 1/120) = 0.9 * 0.25 = 0.225
    p = handover_probabilities(_two_tier())
    assert p.fm == pytest.approx(0.9 * 0.25)


def test_handover_prob_no_femtos():
    p = handover_probabilities(_two_tier(n=0, lam_f=0.0))
    assert p.mf == 0.0 and p.ff == 0.0


@pytest.mark.parametrize("kw", [dict(n=0, lam_f=-1.0), dict(n=-5)])
def test_two_tier_params_reject_negative_rate_or_count(kw):
    with pytest.raises(ValueError):
        _two_tier(**kw)


@pytest.mark.parametrize("name", ["lambda_o_f", "lambda_o_m"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_two_tier_params_name_a_bad_arrival_rate(name, value):
    # NaN and inf used to pass here and fail in solve_two_tier, unnamed
    kw = {"lam_f" if name == "lambda_o_f" else "lam_m": value}
    with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0, got"):
        _two_tier(**kw)


def test_two_tier_params_reject_femto_arrivals_without_femtocells():
    # solve_two_tier would report femto p_block 0 while its own femto chain,
    # offered these calls, blocks 0.978 of them
    with pytest.raises(ValueError, match=r"^lambda_o_f must be 0 with no femtocells "
                                         r"\(n = 0\), got 2\.0$"):
        TwoTierParams(lambda_o_f=2.0, lambda_o_m=1.0, mu=1 / 120, eta_f=1 / 360,
                      eta_m=1 / 240, n=0)
    assert solve_two_tier(_two_tier(n=0, lam_f=0.0)).femto.p_block == 0.0


@pytest.mark.parametrize("name", ["n", "femto_capacity", "macro_base_states",
                                  "macro_adaptive_states"])
def test_two_tier_params_name_a_negative_count(name):
    # the femto chain is built at n = 0 too, so a negative K fails here, by name
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number >= 0, got -1$"):
        _two_tier(**{"n": 0, "lam_f": 0.0, name: -1})


@pytest.mark.parametrize("name", ["n", "femto_capacity", "macro_base_states",
                                  "macro_adaptive_states"])
@pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
def test_two_tier_params_take_whole_counts_only(name, value):
    # n = 2.5 solved with 2.5 femtocells, and a fractional chain size failed
    # in range() with an unnamed TypeError
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number >= 0, "
                                         rf"got {re.escape(repr(value))}$"):
        _two_tier(**{"n": 0, "lam_f": 0.0, name: value})


def test_two_tier_params_store_a_whole_float_count_as_an_int():
    params = _two_tier(n=1000.0, femto_capacity=np.int64(4), macro_base_states=100.0)
    assert [type(v) for v in (params.n, params.femto_capacity, params.macro_base_states)] \
        == [int, int, int]
    assert solve_two_tier(params).femto.p_block == solve_two_tier(_two_tier()).femto.p_block


@pytest.mark.parametrize("name, value", [
    ("mu", 0.0), ("mu", math.nan), ("eta_f", -1e-3), ("eta_f", math.nan),
    ("eta_m", -1e-3), ("eta_m", math.nan),
])
def test_two_tier_params_name_a_bad_service_or_dwell_rate(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be (> 0|>= 0), got"):
        _two_tier(**{name: value})


@pytest.mark.parametrize("name", ["mu", "eta_f", "eta_m"])
def test_two_tier_params_reject_an_infinite_rate(name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got inf"):
        _two_tier(**{name: math.inf})


@pytest.mark.parametrize("name", ["alpha", "beta_prob"])
@pytest.mark.parametrize("value", [math.nan, -0.5, 1.5])
def test_two_tier_params_take_alpha_and_beta_only_in_the_unit_interval(name, value):
    # NaN passed the alpha + beta <= 1 check, and a negative alpha ran
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got"):
        _two_tier(**{"alpha": 0.0, name: value})


def test_two_tier_zero_dwell_rates_mean_no_mobility():
    sol = solve_two_tier(_two_tier(eta_f=0.0, eta_m=0.0))
    assert sol.probabilities.mm == sol.probabilities.fm == sol.probabilities.mf == 0.0
    assert sol.rates["lambda_h_m"] == 0.0 and sol.macro.p_drop == 0.0


def test_a_macro_handover_probability_of_one_is_named_by_its_dwell_rate():
    """eta_m so far above mu that P_mm rounds to 1 would leave a call
    handing over forever, and the fixed point dividing by P_D,m = 0; the
    solver names the rate instead.  Just below, it solves."""
    with pytest.raises(ValueError, match=r"^the macrocell dwell rate eta_m = 1e\+300 makes "
                                         r"P_mm round to 1$"):
        solve_two_tier(_two_tier(eta_m=1e300))
    assert handover_probabilities(_two_tier(eta_m=1e13)).mm < 1.0


def test_two_tier_params_reject_coverage_above_one_by_count():
    with pytest.raises(CoverageError, match=r"^n = 20000 femtocells cover a fraction 2\.000 > 1"):
        _two_tier(n=20000)
    assert _two_tier(n=10000).coverage == 1.0


@pytest.mark.parametrize("kw", [dict(r_m=0.0), dict(r_m=math.inf), dict(r_f=math.nan),
                                dict(r_f=0.0), dict(r_f=1000.0)])
def test_two_tier_params_reject_bad_radii(kw):
    with pytest.raises(ValueError, match=r"^require a finite r_m > r_f > 0, got"):
        _two_tier(**kw)


def test_handover_prob_coverage_error():
    with pytest.raises(CoverageError):
        handover_probabilities(_two_tier(n=20000))


def test_channel_release_rates_verbatim():
    mu_m, mu_f = channel_release_rates(_two_tier(n=1000))
    assert mu_m == pytest.approx((1 / 240.0) * (math.sqrt(1000) + 1) + 1 / 120.0)
    assert mu_f == pytest.approx(1 / 360.0 + 1 / 120.0)


# ---------------------------------------------------------------------------
# Erlang-B and the generic chain


def test_erlang_b_against_direct():
    for servers, load in [(1, 1.0), (2, 1.0), (4, 3.2), (10, 8.0), (100, 90.0)]:
        assert erlang_b(servers, load) == pytest.approx(
            erlang_b_direct(servers, load), rel=1e-12)


def test_erlang_b_k1_load1():
    assert erlang_b(1, 1.0) == pytest.approx(0.5)


@pytest.mark.parametrize("servers, offered, name", [
    (4, math.nan, "offered"),
    (4, math.inf, "offered"),
    (4, -1.0, "offered"),
    (2.5, 1.0, "servers"),
    (math.nan, 1.0, "servers"),
    (-1, 1.0, "servers"),
])
def test_erlang_b_names_a_bad_argument(servers, offered, name):
    # a NaN or infinite load returned nan; 2.5 servers an unnamed TypeError
    value = {"servers": servers, "offered": offered}[name]
    with pytest.raises(ValueError, match=rf"^{name} must be .* >= 0, got {value!r}$"):
        erlang_b(servers, offered)


def test_erlang_b_takes_a_whole_float_server_count():
    assert erlang_b(4.0, 3.2) == erlang_b(4, 3.2)


def test_birth_death_matches_balance_solve():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        births = rng.uniform(0.1, 5.0, size=n)
        deaths = rng.uniform(0.1, 5.0, size=n)
        p = birth_death_probs(births, deaths)
        pi = balance_equation_solve(births, deaths)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.max(np.abs(p - pi)) < 1e-9


# ---------------------------------------------------------------------------
# two-tier fixed point


def test_two_tier_converges_table51():
    sol = solve_two_tier(_two_tier())
    assert sol.residuals[-1] < 1e-8
    assert sol.iterations <= 10_000
    sol.femto.check_normalized()
    sol.macro.check_normalized()
    # handover dropping kept below new-call blocking on the macro layer
    assert sol.macro.p_drop < sol.macro.p_block


def test_two_tier_n0_reduces_to_erlang_b():
    params = _two_tier(n=0, lam_f=0.0, lam_m=8.0, macro_adaptive_states=0)
    sol = solve_two_tier(params)
    mu_m, _ = channel_release_rates(params)
    # with no femtos the only arrivals are lam_o_m plus mm-handover feedback
    lam = 8.0 + sol.rates["lambda_h_m"]
    expected = erlang_b_direct(100, lam / mu_m)
    assert sol.macro.p_block == pytest.approx(expected, abs=1e-9)
    assert sol.femto.p_block == 0.0


def test_two_tier_femto_chain_is_erlang():
    params = _two_tier()
    sol = solve_two_tier(params)
    offered = sol.rates["lambda_T_f"] / params.n / sol.rates["mu_f"]
    assert sol.femto.p_block == pytest.approx(erlang_b_direct(4, offered), rel=1e-9)


def test_two_tier_trends_in_n():
    lam = 6.0
    results = []
    for n in (0, 100, 400, 1000):
        frac = n * 1e-4
        lam_f = lam * 20 * frac / (20 * frac + (1 - frac))
        sol = solve_two_tier(_two_tier(n=n, lam_f=lam_f, lam_m=lam - lam_f))
        results.append(sol)
    blocks = [r.macro.p_block for r in results]
    assert all(a >= b for a, b in zip(blocks, blocks[1:]))
    release = [r.rates["mu_m"] for r in results]
    assert all(a < b for a, b in zip(release, release[1:]))
    femto_ho = [r.rates["lambda_h_mf"] + r.rates["lambda_h_ff"]
                + r.rates["lambda_h_fm"] for r in results]
    assert all(a < b for a, b in zip(femto_ho, femto_ho[1:]))


# ---------------------------------------------------------------------------
# Ch. 6 chain


def test_chain_dimensions_table61():
    n, s, ell = chain_dimensions(TABLE61, 6000.0)
    # sum a_m beta_m = 58.85 kbps -> N = floor(6000/58.85) = 101
    assert n == 101
    assert s == 54
    assert ell == 27


def test_ch6_erlang_reduction():
    # all gamma zero, N=2, 1 erlang offered -> Erlang-B: P_B = P_D = 0.2,
    # verified against the dense balance-equation solve of the 3-state chain
    classes = (TrafficClass(1, "rt", 50.0, arrival_share=1.0, duration_s=100.0),)
    eta = 1e-9  # negligible mobility: mu_c ~ mu, P_h ~ 0 so lam_h ~ 0
    params = Ch6QueueParams(lam_new=0.01, capacity=100.0, classes=classes, eta=eta)
    sol = solve_ch6(params, scheme="hard-qos")
    lam = 0.01 + sol.handover_rate
    mu1 = eta + 0.01
    pi = balance_equation_solve([lam] * 2, [mu1, 2 * mu1])
    assert sol.p_block == pytest.approx(pi[-1], abs=1e-9)
    assert sol.p_block == pytest.approx(0.2, abs=1e-6)
    assert sol.p_drop == pytest.approx(sol.p_block)


def test_ch6_handover_rate_identity():
    # P_h = 0.5 when eta = mu; if blocking ~ 0 then lam_h ~ lam_n
    classes = (TrafficClass(1, "rt", 1.0, arrival_share=1.0, duration_s=100.0),)
    params = Ch6QueueParams(lam_new=0.001, capacity=1000.0, classes=classes,
                            eta=1 / 100.0)
    sol = solve_ch6(params, scheme="hard-qos")
    (cell,) = ch6_cells(params, ("hard-qos",))
    assert cell.p_h == pytest.approx(0.5)
    assert sol.handover_rate == pytest.approx(params.lam_new, rel=1e-3)


def test_ch6_proposed_chain_matches_balance_solve():
    params = Ch6QueueParams(lam_new=1.0, capacity=6000.0, classes=TABLE61,
                            eta=1 / 240.0)
    sol = solve_ch6(params, "proposed")
    sol.check_normalized()
    (cell,) = ch6_cells(params, ("proposed",))
    n, s, ell = cell.n, cell.s, cell.ell
    lam = params.lam_new + sol.handover_rate
    births = [lam] * (n + ell) + [sol.handover_rate] * (s - ell)
    deaths = cell.srv[1:]
    pi = balance_equation_solve(births, deaths)
    assert np.max(np.abs(sol.probs - pi)) < 1e-9
    assert sol.p_block == pytest.approx(pi[n + ell:].sum(), abs=1e-9)
    assert sol.p_drop == pytest.approx(pi[-1], abs=1e-9)


def test_ch6_block_dominates_drop():
    for lam in (0.5, 1.0, 1.5, 2.0):
        params = Ch6QueueParams(lam_new=lam, capacity=6000.0, classes=TABLE61,
                                eta=1 / 240.0)
        sol = solve_ch6(params, "proposed")
        assert sol.p_drop <= sol.p_block
        assert sol.p_drop < sol.p_block  # strict: L < S here


def test_ch6_scheme_reductions_exact():
    params = Ch6QueueParams(lam_new=1.2, capacity=6000.0, classes=TABLE61,
                            eta=1 / 240.0)
    # non-prioritized == proposed with gamma_n := gamma_h
    np_classes = tuple(
        TrafficClass(c.index, c.kind, c.requested_bw, c.degrade_hand,
                     c.degrade_hand, c.arrival_share, c.duration_s)
        for c in TABLE61)
    manual = solve_ch6(Ch6QueueParams(1.2, 6000.0, np_classes, 1 / 240.0),
                       "proposed")
    auto = solve_ch6(params, "non-prioritized")
    np_cell, aq_cell = ch6_cells(params, ("non-prioritized", "aqos"))
    assert np_cell.ell == np_cell.s
    assert np.max(np.abs(manual.probs - auto.probs)) < 1e-12

    # aqos == proposed with gamma_n := 0 (L = 0: any state >= N blocks)
    aq = solve_ch6(params, "aqos")
    assert aq_cell.ell == 0
    aq_manual_classes = tuple(
        TrafficClass(c.index, c.kind, c.requested_bw, 0.0, c.degrade_hand,
                     c.arrival_share, c.duration_s)
        for c in TABLE61)
    aq_manual = solve_ch6(Ch6QueueParams(1.2, 6000.0, aq_manual_classes, 1 / 240.0),
                          "proposed")
    assert np.max(np.abs(aq.probs - aq_manual.probs)) < 1e-12


def test_ch6_monotone_in_load():
    sols = [solve_ch6(Ch6QueueParams(lam, 6000.0, TABLE61, 1 / 240.0), "proposed")
            for lam in (0.4, 0.8, 1.2, 1.6, 2.0)]
    blocks = [s.p_block for s in sols]
    drops = [s.p_drop for s in sols]
    assert all(a <= b + 1e-15 for a, b in zip(blocks, blocks[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(drops, drops[1:]))


def test_ch6_guard_scheme():
    params = Ch6QueueParams(lam_new=1.5, capacity=6000.0, classes=TABLE61,
                            eta=1 / 240.0, guard_channels=5)
    guard = solve_ch6(params, "guard")
    proposed = solve_ch6(params, "proposed")
    guard.check_normalized()
    assert proposed.p_drop < guard.p_drop
    assert guard.p_block > proposed.p_block  # guard blocks far more new calls


@pytest.mark.parametrize("lam", [0.8, 1.6])
@pytest.mark.parametrize("scheme, guard", [("hard-qos", 0), ("guard", 5), ("guard", 12)])
def test_ch6_hard_qos_and_guard_chains_match_balance_solve(scheme, guard, lam):
    params = Ch6QueueParams(lam_new=lam, capacity=6000.0, classes=TABLE61,
                            eta=1 / 240.0, guard_channels=guard)
    sol = solve_ch6(params, scheme)
    (cell,) = ch6_cells(params, (scheme,))
    n = cell.n
    assert cell.s == cell.ell == 0  # neither scheme degrades a call
    guard = guard if scheme == "guard" else 0
    mu1 = params.eta + 1.0 / sum(c.arrival_share * c.duration_s for c in TABLE61)
    lam_h = sol.handover_rate
    births = [lam + lam_h] * (n - guard) + [lam_h] * guard
    deaths = [(i + 1) * mu1 for i in range(n)]
    pi = balance_equation_solve(births, deaths)
    assert np.max(np.abs(sol.probs - pi)) < 1e-9
    assert sol.p_block == pytest.approx(pi[n - guard:].sum(), abs=1e-9)
    assert sol.p_drop == pytest.approx(pi[-1], abs=1e-9)
    p_h = cell.p_h
    fixed = p_h * (1 - sol.p_block) * lam / (1 - p_h * (1 - sol.p_drop))
    assert lam_h == pytest.approx(fixed, abs=1e-7)


@pytest.mark.parametrize("scheme", ["proposed", "guard"])
@pytest.mark.parametrize("lam_new", [-0.5, math.nan])
def test_ch6_rejects_bad_arrival_rate_when_the_chain_is_built(lam_new, scheme):
    with pytest.raises(ValueError, match="finite and >= 0"):
        Ch6QueueParams(lam_new=lam_new, capacity=6000.0, classes=TABLE61,
                       eta=1 / 240.0, guard_channels=5)
    cells = ch6_cells(Ch6QueueParams(lam_new=1.0, capacity=6000.0, classes=TABLE61,
                                     eta=1 / 240.0, guard_channels=5), (scheme,))
    with pytest.raises(ValueError, match="finite and >= 0"):
        solve_ch6_sweep(cells, [lam_new])


@pytest.mark.parametrize("lam_new", [-0.5, math.nan, math.inf])
def test_ch6_cell_solve_names_a_bad_arrival_rate(lam_new):
    cells = ch6_cells(Ch6QueueParams(lam_new=1.0, capacity=6000.0, classes=TABLE61,
                                     eta=1 / 240.0, guard_channels=5), ("guard",))
    with pytest.raises(ValueError, match=r"lam_new must be finite and >= 0, got"):
        solve_ch6_sweep(cells, [lam_new])


@pytest.mark.parametrize("kw, message", [
    (dict(capacity=0.0), "capacity"), (dict(capacity=-5.0), "capacity"),
    (dict(capacity=math.nan), "capacity"), (dict(capacity=math.inf), "capacity"),
    (dict(eta=-1e-3), "eta"), (dict(eta=math.nan), "eta"), (dict(eta=math.inf), "eta"),
    (dict(lam_new=math.inf), "lam_new"), (dict(guard_channels=-1), "guard_channels"),
    (dict(guard_channels=2.5), "guard_channels"), (dict(guard_channels=math.nan), "guard_channels"),
    (dict(guard_channels=math.inf), "guard_channels"),
])
def test_ch6_params_reject_bad_fields(kw, message):
    fields = dict(lam_new=1.0, capacity=6000.0, classes=TABLE61, eta=1 / 240.0)
    with pytest.raises(ValueError, match=message):
        Ch6QueueParams(**{**fields, **kw})


def test_a_ch6_handover_probability_of_one_is_named_by_its_dwell_rate():
    """eta so far above the call completion rate that p_h rounds to 1 would
    leave the fixed point dividing by P_D = 0; the cell names the rate
    instead, for every scheme.  Just below, the cells are built."""
    params = Ch6QueueParams(lam_new=1.0, capacity=6000.0, classes=TABLE61, eta=1e15)
    for scheme in CH6_SCHEMES:
        with pytest.raises(ValueError, match=r"^the dwell rate eta = 1000000000000000\.0 "
                                             r"makes p_h round to 1$"):
            solve_ch6(params, scheme)
    (cell,) = ch6_cells(replace(params, eta=1e13), ("proposed",))
    assert cell.p_h < 1.0


def test_a_whole_float_guard_count_is_stored_and_solved_as_an_int():
    params = Ch6QueueParams(lam_new=1.2, capacity=6000.0, classes=TABLE61, eta=1 / 240.0,
                            guard_channels=5.0)
    assert type(params.guard_channels) is int and params.guard_channels == 5
    got = solve_ch6(params, "guard")
    want = solve_ch6(replace(params, guard_channels=5), "guard")
    assert got.probs.tobytes() == want.probs.tobytes()
    assert (got.p_block, got.p_drop, got.handover_rate) == (want.p_block, want.p_drop,
                                                            want.handover_rate)


def test_ch6_cell_arrays_are_read_only_and_not_shared():
    params = Ch6QueueParams(lam_new=1.2, capacity=6000.0, classes=TABLE61, eta=1 / 240.0)
    (cell,) = ch6_cells(params, ("proposed",))
    assert isinstance(cell.srv, tuple) and not cell.occupancy.flags.writeable
    with pytest.raises(ValueError):
        cell.occupancy[0] = 1.0
    ((a, b),) = solve_ch6_sweep((cell,), [1.2, 1.2])
    assert not np.shares_memory(a.probs, b.probs)
    assert a.extra == b.extra == {"scheme": "proposed"}


def test_fig6_cac_builds_one_cell_per_scheme(monkeypatch):
    counts = {"state_release_rates": 0}
    batches = []  # the state count of each rebalance_states call

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def batch(capacity, classes, class_counts, allocs):
        batches.append(len(class_counts[0]))
        return admission.rebalance_states(capacity, classes, class_counts, allocs)

    monkeypatch.setattr(queueing, "rebalance_states", batch)
    monkeypatch.setattr(queueing, "state_release_rates",
                        counted("state_release_rates", queueing.state_release_rates))
    experiments.run_experiment("fig6-cac")
    # one pass over the S = 54 adaptive states of proposed, non-prioritized
    # and aqos serves hard-qos and guard (S = 0) too, and rebalances all 54
    # in one batch
    assert counts == {"state_release_rates": 1}
    assert batches == [54]


def _count_product_form_passes(monkeypatch, name):
    """How many times the default run of experiment `name` evaluates the
    product form."""
    calls = 0
    real = queueing._stationary

    def counted(births, log_deaths):
        nonlocal calls
        calls += 1
        return real(births, log_deaths)

    monkeypatch.setattr(queueing, "_stationary", counted)
    experiments.run_experiment(name)
    monkeypatch.undo()
    return calls


def test_fig6_cac_solves_each_cell_grid_in_one_pass_per_iteration(monkeypatch):
    """One product-form pass per state count per iteration of its slowest
    point, plus one per state count for the converged rates, not one per
    cell or per rate: the five cells' chains have two state counts, 156
    (slowest point 25 iterations) and 102 (24)."""
    scenario = scenario_from_preset(experiments.DEFAULT_PRESET["fig6-cac"])
    grid, base, cells = experiments._read_fig6(scenario)
    iterations = {cell.scheme: [oracles.solve_ch6(replace(base, lam_new=lam), cell.scheme)
                                .iterations for lam in grid] for cell in cells}
    slowest = {}  # per state count, the most iterations of its points
    for cell in cells:
        states = cell.n + cell.s + 1
        slowest[states] = max(slowest.get(states, 0), *iterations[cell.scheme])
    assert slowest == {156: 25, 102: 24}
    passes = _count_product_form_passes(monkeypatch, "fig6-cac")
    assert passes == sum(its + 1 for its in slowest.values()) == 51
    # the per-cell count of one sweep per scheme, and the per-rate count of
    # the lone solves
    assert sum(max(its) + 1 for its in iterations.values()) == 127
    assert sum(i + 1 for its in iterations.values() for i in its) > 10 * passes


def test_fig5_mobility_solves_its_sweep_in_one_pass_per_iteration(monkeypatch):
    """The baseline and every femtocell count share one macro pass per
    iteration of the slowest point, then one macro and one femto pass."""
    baseline, swept = experiments._read_fig5_mobility(
        scenario_from_preset(experiments.DEFAULT_PRESET["fig5-mobility"]))
    iterations = [oracles.solve_two_tier(params).iterations
                  for params in (baseline, *(params for _, params in swept))]
    passes = _count_product_form_passes(monkeypatch, "fig5-mobility")
    assert passes == max(iterations) + 2
    assert sum(i + 1 for i in iterations) > 3 * passes


def test_fig5_mobility_solves_its_macro_only_baseline_once(monkeypatch):
    """The macro-only baseline and the swept count 0 are equal points, so a
    default run solves 6 points, not 7."""
    sizes = []
    real = queueing.solve_two_tier_sweep

    def counted(sweep):
        sizes.append(len(sweep))
        return real(sweep)

    monkeypatch.setattr(queueing, "solve_two_tier_sweep", counted)
    experiments.run_experiment("fig5-mobility")
    assert sizes == [6]


# ---------------------------------------------------------------------------
# Ch. 7 chain


def _ch7(lam_scale=1.0, **kw):
    defaults = dict(sessions=12, n_states=40, s_states=8, l_states=4,
                    lam_new_voice=0.05 * lam_scale,
                    lam_new_unicast=0.01 * lam_scale,
                    lam_new_background=0.04 * lam_scale,
                    lam_hand=0.03 * lam_scale,
                    mu=1 / 120.0)
    defaults.update(kw)
    return Ch7QueueParams(**defaults)


@pytest.mark.parametrize("name, value", [
    ("sessions", 12.5), ("n_states", 119.5), ("s_states", 8.5), ("l_states", 2.5),
    *((name, bad) for name in ("sessions", "n_states", "s_states", "l_states")
      for bad in (-1, math.nan)),
])
def test_ch7_params_take_whole_counts_only(name, value):
    # 12.5 sessions or 119.5 states failed in range() with an unnamed TypeError
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number >= 0, "
                                         rf"got {re.escape(repr(value))}$"):
        _ch7(**{name: value})


def test_ch7_normalization_and_indices():
    sol = solve_ch7(_ch7(lam_scale=30.0))
    sol.check_normalized()
    assert sol.extra["P_B_background"] >= sol.extra["P_B_voice"] >= sol.p_drop


def test_ch7_collapsed_blocking_set():
    # L = S: the voice blocking set is the single top state, so P_B_v = P_D
    sol = solve_ch7(_ch7(lam_scale=30.0, l_states=8))
    assert sol.extra["P_B_voice"] == pytest.approx(sol.p_drop, rel=1e-12)


def test_ch7_sessions_only():
    sol = solve_ch7(_ch7(lam_scale=0.0))
    assert sol.probs[0] == pytest.approx(1.0)
    assert sol.p_drop == 0.0 and sol.extra["P_B_background"] == 0.0


def test_ch7_random_small_instances_match_balance_solve():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(0, 5))
        n = m + int(rng.integers(1, 7))
        s = int(rng.integers(1, 5))
        ell = int(rng.integers(0, s + 1))
        params = Ch7QueueParams(
            sessions=m, n_states=n, s_states=s, l_states=ell,
            lam_new_voice=float(rng.uniform(0.01, 2.0)),
            lam_new_unicast=float(rng.uniform(0.01, 2.0)),
            lam_new_background=float(rng.uniform(0.01, 2.0)),
            lam_hand=float(rng.uniform(0.01, 2.0)),
            mu=float(rng.uniform(0.05, 1.0)))
        sol = solve_ch7(params)
        lam_t = (params.lam_new_voice + params.lam_new_unicast
                 + params.lam_new_background + params.lam_hand)
        lam_mid = lam_t - params.lam_new_background
        births = [lam_t] * (n - m) + [lam_mid] * ell + [params.lam_hand] * (s - ell)
        deaths = [(i + 1) * params.mu for i in range(n + s - m)]
        pi = balance_equation_solve(births, deaths)
        assert abs(sol.probs.sum() - 1.0) < 1e-9
        assert np.max(np.abs(sol.probs - pi)) < 1e-9
        assert sol.p_drop == pytest.approx(pi[-1], abs=1e-9)
        assert sol.extra["P_B_voice"] == pytest.approx(pi[n + ell - m:].sum(), abs=1e-9)
        assert sol.extra["P_B_background"] == pytest.approx(pi[n - m:].sum(), abs=1e-9)


@pytest.mark.parametrize("kw", [dict(lam_new_voice=-0.5),  # voice + unicast < 0
                                dict(lam_new_voice=-0.005),  # voice + unicast > 0
                                dict(lam_hand=-0.01)])
def test_ch7_rejects_negative_rate(kw):
    with pytest.raises(ValueError):
        solve_ch7(_ch7(**kw))


@pytest.mark.parametrize("name, value", [
    ("lam_new_voice", math.nan), ("lam_new_unicast", math.inf), ("lam_new_background", -1.0),
    ("lam_hand", math.nan), ("mu", math.nan), ("mu", math.inf), ("mu", 0.0),
])
def test_ch7_params_name_a_bad_rate(name, value):
    bound = "> 0" if name == "mu" else ">= 0"
    with pytest.raises(ValueError, match=rf"^{name} must be finite and {bound}, got"):
        _ch7(**{name: value})


def test_ch7_rejects_empty_chain():
    # N = S = 0 leaves no state above the sessions to normalize over
    with pytest.raises(ValueError, match="N \\+ S"):
        Ch7QueueParams(0, 0, 0, 0, 0.1, 0.1, 0.1, 0.1, 1 / 120.0)


def test_forced_termination_probability():
    assert forced_termination_probability(0.5, 0.0) == 0.0
    assert forced_termination_probability(0.5, 1.0) == pytest.approx(0.5)
    low = forced_termination_probability(0.3, 0.01)
    high = forced_termination_probability(0.3, 0.05)
    assert low < high


def _damped(monkeypatch, damping, solve, *args):
    monkeypatch.setattr(queueing, "FIXED_POINT_DAMPING", damping)
    return solve(*args)


def test_fixed_point_damping_invariance(monkeypatch):
    params = _two_tier()
    a = _damped(monkeypatch, 0.3, solve_two_tier, params)
    b = _damped(monkeypatch, 0.7, solve_two_tier, params)
    for key in ("lambda_h_mm", "lambda_h_mf", "lambda_h_ff", "lambda_h_fm"):
        assert a.rates[key] == pytest.approx(b.rates[key], abs=1e-7)
    assert a.macro.p_block == pytest.approx(b.macro.p_block, abs=1e-8)

    ch6 = Ch6QueueParams(lam_new=1.2, capacity=6000.0, classes=TABLE61,
                         eta=1 / 240.0)
    x = _damped(monkeypatch, 0.35, solve_ch6, ch6, "proposed")
    y = _damped(monkeypatch, 0.8, solve_ch6, ch6, "proposed")
    assert x.handover_rate == pytest.approx(y.handover_rate, abs=1e-7)
    assert x.p_block == pytest.approx(y.p_block, abs=1e-8)


def test_both_fixed_points_raise_after_max_iterations(monkeypatch):
    # each point restarts RESTARTS times, so the residuals that the error
    # carries are those of its last attempt, at the smallest damping
    monkeypatch.setattr(queueing, "MAX_ITERATIONS", 3)
    ch6 = Ch6QueueParams(lam_new=1.2, capacity=6000.0, classes=TABLE61, eta=1 / 240.0)
    for what, point, solve in [
            ("two-tier", "n = 1000", lambda: solve_two_tier(_two_tier())),
            ("ch6", "scheme proposed, lam_new 1.2", lambda: solve_ch6(ch6, "proposed"))]:
        with pytest.raises(NonConvergenceError,
                           match=f"^{what} fixed point did not converge at {point} ") as err:
            solve()
        assert len(err.value.residuals) == 3


def test_sweeps_raise_after_max_iterations(monkeypatch):
    """A 30-point sweep stops at MAX_ITERATIONS beside points that converged
    at once, and its error names the first point still iterating and
    carries that point's own residuals, those of its lone solve's last
    attempt."""
    monkeypatch.setattr(queueing, "MAX_ITERATIONS", 3)
    base = Ch6QueueParams(lam_new=0.4, capacity=6000.0, classes=TABLE61, eta=1 / 240.0,
                          guard_channels=5)
    cells = ch6_cells(base, CH6_SCHEMES)
    two_tier = [_two_tier(n=0, lam_f=0.0, lam_m=0.0)] * 29 + [_two_tier(n=400)]
    for what, point, sweep, alone in [
            ("ch6", "scheme proposed, lam_new 0.4",
             lambda: solve_ch6_sweep(cells, [0.0, 0.0, 0.0, 0.4, 0.8, 1.2]),
             lambda: solve_ch6(base, "proposed")),
            ("two-tier", "n = 400", lambda: solve_two_tier_sweep(two_tier),
             lambda: solve_two_tier(two_tier[-1]))]:
        with pytest.raises(NonConvergenceError,
                           match=f"^{what} fixed point did not converge at {point} ") as err:
            sweep()
        with pytest.raises(NonConvergenceError) as lone:
            alone()
        assert len(err.value.residuals) == 3 and err.value.residuals[-1] > 0.0
        assert [r.hex() for r in err.value.residuals] == [r.hex() for r in lone.value.residuals]


# fig5-mobility runs whose two-tier points settle into an exact cycle at
# damping 0.5, so that the run raised before points restarted: the
# reproducer (total arrival rate 40/s, macro dwell 30 s; 4 of its 7 points
# cycle), then drawn runs whose macro-only baseline cycles, as (arrival
# rate, femto capacity, alpha, beta, femto dwell, macro dwell)
_REPRODUCER = ["traffic.total_arrival_per_s = 40", "traffic.macro_dwell_s = 30"]
_CYCLING = [(40.0, 2, 0.459, 0.2, 100.0, 30.0), (30.0, 1, 0.631, 0.2, 1000.0, 10.0),
            (40.0, 0, 0.351, 0.2, 10.0, 10.0), (30.0, 0, 0.725, 0.2, 30.0, 30.0),
            (30.0, 0, 0.872, 0.128, 100.0, 10.0), (40.0, 1, 0.705, 0.2, 1000.0, 10.0)]


def _fig5_mobility_points(sets):
    baseline, swept = experiments._read_fig5_mobility(
        apply_overrides(scenario_from_preset("table-5.1"), sets))
    return [baseline] + [params for _, params in swept]


def test_cycling_points_restart_and_converge(monkeypatch, tmp_path):
    """A point that cycles restarts at half the damping and converges: the
    CLI reproducer writes its CSV, and every point of its sweep and each
    drawn baseline is within the tolerance of its own fixed point, with no
    reference to the damping that reached it.  With no restarts the drawn
    baselines raise."""
    argv = ["run", "fig5-mobility", "--out", str(tmp_path)]
    assert main(argv + [arg for s in _REPRODUCER for arg in ("--set", s)]) == EXIT_OK
    assert (tmp_path / "fig5-mobility.csv").stat().st_size > 0
    keys = ("total_arrival_per_s", "femto_capacity_calls", "alpha", "beta", "femto_dwell_s",
            "macro_dwell_s")
    baselines = [_fig5_mobility_points([f"traffic.{k} = {v!r}" for k, v in zip(keys, run)])[0]
                 for run in _CYCLING]
    sweep = _fig5_mobility_points(_REPRODUCER) + baselines
    for params, sol in zip(sweep, solve_two_tier_sweep(sweep), strict=True):
        assert oracles.two_tier_own_residual(params, sol) < queueing.FIXED_POINT_TOL, params
    monkeypatch.setattr(queueing, "RESTARTS", 0)
    with pytest.raises(NonConvergenceError, match="^two-tier fixed point did not converge "
                                                  "at n = 0 in 1 attempts "):
        solve_two_tier_sweep(baselines)


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
def test_a_grid_names_a_bad_rate_before_iterating(bad, monkeypatch):
    cells = ch6_cells(Ch6QueueParams(lam_new=1.0, capacity=6000.0, classes=TABLE61,
                                     eta=1 / 240.0, guard_channels=5), ("guard",))
    calls = []
    monkeypatch.setattr(queueing.ChainBatch, "solve",
                        lambda batch, points, rates: calls.append(points))
    with pytest.raises(ValueError, match=f"^lam_new must be finite and >= 0, got {bad!r}$"):
        solve_ch6_sweep(cells, [0.4, 1.0, bad, 1.6])
    assert calls == []
