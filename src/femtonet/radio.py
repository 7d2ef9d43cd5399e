"""Propagation, SIR, outage probability, and Shannon throughput.

Link model: mean-path power P_R = P_T * P0 * d^-eta, attenuated a further
wall_loss_db per wall; every SIR report is on these mean paths.  Rayleigh
fading enters only the outage probability, as a unit-mean exponential power
factor Z on the serving link (closed form and Monte Carlo).  The
macro-interference constants are anchored to a 900 MHz urban Hata evaluation
at the 200 m reference range; the femto constants to free-space at 1 m.  A
scenario overrides only the two tx powers and `sir_cap_db` of
`PropagationParams`, plus the SIR threshold and UE-to-FAP range that the
experiments read; the path-loss constants keep their defaults.  Experiment
checks assert scheme orderings, not absolute levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import topology as topo_mod
from ._checks import finite, whole_count
from .spectrum import SpectrumPlan, bands_overlap
from .topology import CellTopology, DegenerateGeometryError


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


# Hata (900 MHz, 50 m BS, 2 m UE, small/medium city) gives 98.5 dB at 200 m;
# the steeper default interferer exponent keeps that anchor while decaying
# faster with range, standing in for the unpublished macro model.
_MACRO_ANCHOR_PL_DB = 98.5
_MACRO_ANCHOR_M = 200.0
_DEFAULT_ETA_MACRO = 5.0
# free-space loss at 1 m, 900 MHz
_FEMTO_INTERCEPT_DB = 31.5


@dataclass(frozen=True)
class PropagationParams:
    p0_macro: float = db_to_linear(-(_MACRO_ANCHOR_PL_DB - 10.0 * _DEFAULT_ETA_MACRO * math.log10(_MACRO_ANCHOR_M)))
    p0_femto: float = db_to_linear(-_FEMTO_INTERCEPT_DB)
    path_loss_exp_serving: float = 2.0      # inside the serving home
    path_loss_exp_femto_interf: float = 3.0  # between homes
    path_loss_exp_macro_interf: float = _DEFAULT_ETA_MACRO
    wall_loss_db: float = 20.0
    tx_power_macro_w: float = 1500.0
    tx_power_femto_w: float = 0.01
    sir_cap_db: float = 30.0

    def __post_init__(self):
        # each check is written so that NaN fails it
        for name in ("path_loss_exp_serving", "path_loss_exp_femto_interf",
                     "path_loss_exp_macro_interf"):
            finite(name, getattr(self, name), 2)
        finite("wall_loss_db", self.wall_loss_db, 0)
        for name in ("tx_power_macro_w", "tx_power_femto_w"):
            finite(name, getattr(self, name), 0, strict=True)
        finite("sir_cap_db", self.sir_cap_db)


@dataclass(frozen=True)
class SirReport:
    signal_w: float
    femto_interf_w: float
    macro_interf_w: float
    per_source: tuple[tuple[str, float], ...]
    interference_free: bool

    @property
    def total_interference_w(self) -> float:
        return self.femto_interf_w + self.macro_interf_w

    @property
    def sir_linear(self) -> float:
        """Signal over total interference; +inf when interference-free."""
        if self.interference_free:
            return math.inf
        return self.signal_w / self.total_interference_w

    def capped_sir(self, params: PropagationParams) -> float:
        """SIR against the configured ceiling, composed harmonically.

        The cap acts as a noise floor of mean_signal/cap, so the result is
        exactly cap when interference-free and strictly decreasing in any
        added interference (1/SINR = 1/SIR + 1/cap)."""
        cap = db_to_linear(params.sir_cap_db)
        if self.interference_free:
            return cap
        return 1.0 / (1.0 / self.sir_linear + 1.0 / cap)


def wall_attenuation(wall_loss_db: float, walls: int) -> float:
    """Linear power factor of `walls` walls at wall_loss_db each."""
    return db_to_linear(-wall_loss_db * walls)


def link_power(tx_power_w: float, p0: float, distance_m: float, eta: float,
               wall_att: float) -> float:
    """P_T * P0 * d^-eta * wall_att on plain floats, in watts.

    The one place the link formula is written: `sir` computes every link
    with it, and the RSSI scan every level."""
    return tx_power_w * p0 * distance_m ** (-eta) * wall_att


def sir(
    topo: CellTopology,
    plan: SpectrumPlan,
    ue_xy,
    serving: int,
    params: PropagationParams | None = None,
    macro_tiers: str = "all",
) -> SirReport:
    """Mean-path SIR report for a femtocell user.

    Interference is summed over the serving FAP's neighbor femtocells and
    over the macro BSs, counting a source only when its band toward the UE
    overlaps the band serving the UE there.  macro_tiers="all" includes the
    first-tier ring; "reference" keeps only the overlaid macro BS (used by
    the mid-cell measurement protocol, where the ring sits several cell
    radii away and its contribution is negligible next to any in-band
    source).  Each link's power is one `link_power` call, and a link of
    zero length, or one so short that its power is not finite, raises
    DegenerateGeometryError.
    """
    if macro_tiers not in ("all", "reference"):
        raise ValueError(f"macro_tiers must be 'all' or 'reference', not {macro_tiers!r}")
    params = params or PropagationParams()
    serving_band = plan.band_for_link(serving, ue_xy, topo)
    macro_sites = (topo.macro_sites if macro_tiers == "all"
                   else topo.macro_sites[:1])

    ue = tuple(ue_xy)

    def power(source, tx_power_w, p0, eta, walls):
        d = topo_mod.distance(topo, source, ue)
        if d == 0.0:
            raise DegenerateGeometryError("zero-length link")
        try:
            p = link_power(tx_power_w, p0, d, eta, wall_attenuation(params.wall_loss_db, walls))
        except OverflowError:
            p = math.inf
        if not math.isfinite(p):
            raise DegenerateGeometryError(f"a link of {d!r} m has no finite power")
        return p

    signal = power(serving, params.tx_power_femto_w, params.p0_femto,
                   params.path_loss_exp_serving, 0)

    per_source = []
    i_f = 0.0
    for nid in sorted(topo_mod.neighbors_of(topo, serving)):
        if not bands_overlap(serving_band, plan.interferer_band(nid)):
            continue
        p = power(nid, params.tx_power_femto_w, params.p0_femto,
                  params.path_loss_exp_femto_interf, topo.walls_between(serving, nid))
        i_f += p
        per_source.append((f"femto:{nid}", p))

    i_m = 0.0
    for j, site in enumerate(macro_sites):
        if not bands_overlap(serving_band, plan.macro_band(j)):
            continue
        p = power(site, params.tx_power_macro_w, params.p0_macro,
                  params.path_loss_exp_macro_interf, topo.macro_ue_walls)
        i_m += p
        per_source.append((f"macro:{j}", p))

    return SirReport(
        signal_w=signal,
        femto_interf_w=i_f,
        macro_interf_w=i_m,
        per_source=tuple(per_source),
        interference_free=(i_f + i_m) == 0.0,
    )


def outage_probability_closed_form(
    mean_signal: float, gamma_linear: float, interference: float
) -> float:
    """P(S_bar * Z < gamma * I) for exponential unit-mean fast fading:
    1 - exp(-gamma * I / S_bar)."""
    finite("mean_signal", mean_signal, 0, strict=True)
    finite("gamma_linear", gamma_linear, 0, strict=True)
    finite("interference", interference, 0)
    return -math.expm1(-gamma_linear * interference / mean_signal)


def outage_probability_mc(
    topo: CellTopology,
    plan: SpectrumPlan,
    ue_xy,
    serving: int,
    gamma_linear: float,
    trials: int,
    seed: int,
    params: PropagationParams | None = None,
) -> tuple[float, float]:
    """Monte-Carlo outage estimate with binomial standard error.

    Interference is held at its mean-path value and only the serving link's
    fast fade is drawn, matching the closed form's conditioning.
    """
    trials = whole_count("trials", trials, 1)
    params = params or PropagationParams()
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    base = sir(topo, plan, ue_xy, serving, params)
    if base.interference_free:
        return 0.0, 0.0
    z = rng.exponential(1.0, size=trials)
    outages = int(np.sum(base.signal_w * z < gamma_linear * base.total_interference_w))
    p = outages / trials
    return p, math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


def shannon_throughput(bandwidth_hz: float, sir_linear: float) -> float:
    """W * log2(1 + SIR) in bit/s; zero bandwidth gives zero."""
    finite("bandwidth_hz", bandwidth_hz, 0)
    if not sir_linear >= 0.0:
        raise ValueError(f"sir_linear must be >= 0, got {sir_linear!r}")
    if bandwidth_hz == 0.0:
        return 0.0
    return bandwidth_hz * math.log2(1.0 + sir_linear)
