"""The exact per-call reference of the hard-qos scheme: Kaufman-Roberts.

Under hard-qos no call is degraded, so a call of a Table 6.1 class holds
its requested bandwidth for its whole stay, and new calls and handovers
are admitted alike while that bandwidth fits.  Every class has T_m = 120 s,
so every call leaves at eta + 1/120.  With the handover stream exogenous
Poisson at the chain's fixed point, the per-call policy is a multi-rate
loss system with complete sharing, whose blocking the Kaufman-Roberts
recursion gives exactly.  The ch6 chain, which counts calls of the mean
request, is not that system: the tests pin the gap."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kaufman_roberts

from femtonet.experiments import FIG6_ARRIVAL_GRID
from femtonet.presets import TABLE_6_1, table61_classes
from femtonet.queueing import Ch6QueueParams, ch6_cells, erlang_b, solve_ch6_sweep


def _product_form_blocking(classes, capacity, rates):
    """kaufman_roberts by enumeration: the multi-class states n with
    sum_m n_m b_m <= capacity weigh prod_m a_m**n_m / n_m!, in exact
    rationals, and class m blocks in those with no room for b_m more."""
    rates = [Fraction(a) for a in rates]
    total, blocked = Fraction(0), [Fraction(0)] * len(classes)
    for n in itertools.product(*(range(capacity // b + 1) for b in classes)):
        used = sum(k * b for k, b in zip(n, classes))
        if used > capacity:
            continue
        weight = math.prod(a**k / math.factorial(k) for a, k in zip(rates, n))
        total += weight
        for m, b in enumerate(classes):
            if used + b > capacity:
                blocked[m] += weight
    return [float(x / total) for x in blocked]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.floats(0.01, 8.0)), min_size=1, max_size=3),
       st.integers(1, 30))
def test_the_recursion_matches_the_product_form(classes_and_rates, capacity):
    classes, rates = zip(*classes_and_rates)
    assert kaufman_roberts(classes, capacity, rates) == pytest.approx(
        _product_form_blocking(classes, capacity, rates), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("servers", [1, 2, 7, 40, 200])
@pytest.mark.parametrize("offered", [0.01, 0.5, 1.0, 6.3, 45.0, 300.0])
def test_one_class_of_one_unit_is_erlang_b(servers, offered):
    assert kaufman_roberts([1], servers, [offered])[0] == pytest.approx(
        erlang_b(servers, offered), rel=1e-12)


# the share-weighted per-call P_B of hard-qos along fig6-cac's default grid;
# it lies above the chain's P_B at the two lightest loads and below from 1.0 up
HARD_QOS_PER_CALL_P_B = (2.950e-08, 0.01098, 0.1017, 0.1935, 0.2671, 0.3430)
PER_CALL_ABOVE_CHAIN = (True, True, False, False, False, False)


def test_hard_qos_per_call_blocking_along_the_fig6_grid():
    """At each new-call rate, every class offers its share of the new and
    handover calls, at the hard-qos chain's fixed-point handover rate, for
    a mean stay of 1 / (eta + 1/120), with eta = 1/240 (the 240 s macro
    dwell), over 6000 kbps."""
    classes = table61_classes()
    capacity = TABLE_6_1["capacity_kbps"]
    eta = 1.0 / TABLE_6_1["macro_dwell_s"]
    assert {c.duration_s for c in classes} == {120.0}
    params = Ch6QueueParams(lam_new=FIG6_ARRIVAL_GRID[0], capacity=capacity,
                            classes=classes, eta=eta)
    (solutions,) = solve_ch6_sweep(ch6_cells(params, ("hard-qos",)), FIG6_ARRIVAL_GRID)
    bandwidth = [int(c.requested_bw) for c in classes]
    assert bandwidth == [c.requested_bw for c in classes]
    for sol, want, above in zip(solutions, HARD_QOS_PER_CALL_P_B, PER_CALL_ABOVE_CHAIN):
        lam = sol.spec.stream_rates[0] + sol.handover_rate
        rates = [lam * c.arrival_share / (eta + 1.0 / 120.0) for c in classes]
        blocking = kaufman_roberts(bandwidth, int(capacity), rates)
        per_call = sum(c.arrival_share * b for c, b in zip(classes, blocking))
        assert per_call == pytest.approx(want, rel=1e-3)
        assert (per_call > sol.p_block) == above
