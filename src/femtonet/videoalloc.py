"""Scalable-video bandwidth allocation.

Two sides: the MBS/non-MBS budget split with its two layer-degradation
techniques (equal two-level reduction vs strict priority multi-level), and
the popularity-proportional allocator, which allocates one row of viewer
counts per draw and scores each row's user satisfaction.
Layer counts are integers; a receiver cannot take a fraction of a layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import require

BW_TOL = 1e-9


class InfeasibleAllocationError(ValueError):
    """Budget below the guaranteed-minimum floor."""


@dataclass
class MbsSession:
    id: int
    base_bw: float  # base layer
    layer_bw: float  # per enhanced layer (uniform within a session)
    max_layers: int
    min_layers: int = 0
    popularity: int = 0  # viewer count; rank 1 = most viewers

    def __post_init__(self):
        if not 0 <= self.min_layers <= self.max_layers:
            raise ValueError("need 0 <= min_layers <= max_layers")
        if not 0 < self.base_bw < math.inf:
            raise ValueError(f"base_bw must be finite and > 0, got {self.base_bw!r}")
        if not 0 <= self.layer_bw < math.inf:
            raise ValueError(f"layer_bw must be finite and >= 0, got {self.layer_bw!r}")

    def bw_at(self, layers: int) -> float:
        return self.base_bw + self.layer_bw * layers

    @property
    def min_bw(self) -> float:
        return self.bw_at(self.min_layers)

    @property
    def max_bw(self) -> float:
        return self.bw_at(self.max_layers)


def total_min_bw(sessions) -> float:
    return sum(s.min_bw for s in sessions)


def total_max_bw(sessions) -> float:
    return sum(s.max_bw for s in sessions)


def allocate_mbs_budget(capacity: float, non_mbs_bw: float, sessions):
    """Split the cell capacity between MBS sessions and non-MBS traffic.

    Returns (regime, mbs_budget): in the lower-traffic regime the full
    demand fits and every session runs at maximum quality; under congestion
    the sessions receive what the non-MBS traffic leaves, never below the
    guaranteed floor.
    """
    if not sessions:
        raise ValueError("no MBS sessions")
    for name, value in (("capacity", capacity), ("non_mbs_bw", non_mbs_bw)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not capacity > 0:
        raise ValueError(f"capacity must be > 0, got {capacity!r}")
    if not non_mbs_bw >= 0:
        raise ValueError(f"non_mbs_bw must be >= 0, got {non_mbs_bw!r}")
    if capacity < non_mbs_bw:
        raise ValueError("non-MBS load exceeds capacity")
    remaining = capacity - non_mbs_bw
    if remaining >= total_max_bw(sessions) - BW_TOL:
        return "lower-traffic", total_max_bw(sessions)
    if remaining < total_min_bw(sessions) - BW_TOL:
        raise InfeasibleAllocationError(
            f"budget {remaining} below the MBS floor {total_min_bw(sessions)}")
    return "congested", remaining


@dataclass
class LayerAllocation:
    layers: list[int]
    total_bw: float
    split_index: int | None = None  # M_I or M_2


def _check_budget(budget: float, sessions) -> None:
    """Both techniques rank the sessions by their order, so it must be one
    of non-increasing popularity (rank 1 first)."""
    if math.isnan(budget):
        raise ValueError("budget must not be NaN")
    for i, (prev, session) in enumerate(zip(sessions, sessions[1:]), 1):
        if session.popularity > prev.popularity:
            raise ValueError(f"sessions must come in non-increasing popularity, but session {i} "
                             f"(popularity {session.popularity}) follows one of {prev.popularity}")
    if budget < total_min_bw(sessions) - BW_TOL:
        raise InfeasibleAllocationError(
            f"budget {budget} below minimum demand {total_min_bw(sessions)}")


def technique_two_level(budget: float, sessions) -> LayerAllocation:
    """Equal degradation: remove P layers from the top M_I sessions and P+1
    from the rest, so no two sessions differ by more than one layer.

    Sessions must come in non-increasing popularity (rank 1 first).  At
    exact budget boundaries the larger allocation is chosen.
    """
    _check_budget(budget, sessions)

    def level_total(p: int) -> float:
        return sum(s.bw_at(max(s.max_layers - p, s.min_layers)) for s in sessions)

    full = level_total(0)
    if budget >= full - BW_TOL:
        layers = [s.max_layers for s in sessions]
        return LayerAllocation(layers, full, split_index=len(sessions))

    max_p = max(s.max_layers - s.min_layers for s in sessions)
    p_star = next(q for q in range(max_p + 1) if level_total(q) <= budget + BW_TOL)

    if level_total(p_star) >= budget - BW_TOL:
        # budget divides exactly: everyone holds N_max - P (the larger choice)
        p, m_i = p_star, len(sessions)
        layers = [max(s.max_layers - p, s.min_layers) for s in sessions]
        spent = level_total(p)
    else:
        p = p_star - 1
        layers = [max(s.max_layers - p - 1, s.min_layers) for s in sessions]
        spent = sum(s.bw_at(l) for s, l in zip(sessions, layers))
        m_i = 0
        for idx, s in enumerate(sessions):
            hi = max(s.max_layers - p, s.min_layers)
            step = s.bw_at(hi) - s.bw_at(layers[idx])
            if spent + step <= budget + BW_TOL:
                layers[idx] = hi
                spent += step
                m_i = idx + 1
            else:
                break

    return LayerAllocation(layers=layers, total_bw=spent, split_index=m_i)


def technique_multi_level(budget: float, sessions) -> LayerAllocation:
    """Strict priority: the top M_2 sessions keep full quality, the rest drop
    to minimum; the first session past the split absorbs whatever layer
    budget remains so both techniques consume the same total.  Sessions
    must come in non-increasing popularity (rank 1 first)."""
    _check_budget(budget, sessions)

    base = total_min_bw(sessions)
    layers = [s.min_layers for s in sessions]
    spent = base
    m2 = 0
    for idx, s in enumerate(sessions):
        step = s.max_bw - s.min_bw
        if spent + step <= budget + BW_TOL:
            layers[idx] = s.max_layers
            spent += step
            m2 = idx + 1
        else:
            break

    if m2 < len(sessions):
        s = sessions[m2]
        if s.layer_bw > 0:
            extra = int((budget - spent + BW_TOL) / s.layer_bw)
            extra = min(extra, s.max_layers - s.min_layers)
            layers[m2] = s.min_layers + extra
            spent += extra * s.layer_bw

    return LayerAllocation(layers=layers, total_bw=spent, split_index=m2)


# ---------------------------------------------------------------------------
# popularity-based allocation


@dataclass
class PopularityAllocation:
    """Popularity allocations of M sessions for several viewer draws at once:
    row t of bandwidths is the allocation of viewer row t."""

    bandwidths: np.ndarray  # (rows, M)
    viewers: np.ndarray  # (rows, M)
    capacity: float
    beta_max: float
    congested: bool

    def satisfaction(self) -> tuple[np.ndarray, np.ndarray, float]:
        """User satisfaction = allocated / maximum bandwidth: (per rank, one
        row per draw; its viewer-weighted average per row, which scores the
        proposed scheme; the equal-share baseline C / (M * beta_max))."""
        n_rows, m_total = self.bandwidths.shape
        if not self.congested:
            return np.ones((n_rows, m_total)), np.ones(n_rows), 1.0
        per_rank = self.bandwidths / self.beta_max
        k_total = self.viewers.sum(axis=1)
        # a running sum in rank order from the first term, as sum() adds
        weighted = np.add.accumulate(per_rank * self.viewers, axis=1)[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            average = np.where(k_total > 0, weighted / k_total, per_rank[:, 0])
        return per_rank, average, self.capacity / (self.beta_max * m_total)


def allocate_popularity(capacity: float, beta_max: float, beta_min: float,
                        viewers) -> PopularityAllocation:
    """Popularity-proportional bandwidth for M always-on video sessions.

    viewers is a 2-D array of counts, one row per draw, each row sorted
    non-increasing (rank order); row t of the result is the allocation of
    row t alone.  Uncongested (M*beta_max <= C) every session gets beta_max.
    Congested, each session m is provisionally offered beta_min + a*K_m plus
    the overflow carried from higher ranks; whatever exceeds beta_max is
    spread over the remaining sessions.  The congested allocation conserves
    C exactly.
    """
    # whole counts are exact as floats, so every product and sum below
    # equals its integer counterpart
    viewers = np.asarray(viewers, dtype=float)
    if viewers.ndim != 2 or viewers.size == 0:
        raise ValueError(f"viewers must be a non-empty 2-D array, got shape {viewers.shape}")
    n_rows, m_total = viewers.shape
    if not (np.isfinite(viewers) & (viewers >= 0)).all():
        raise ValueError("viewers must be finite and >= 0")
    if (viewers[:, :-1] - viewers[:, 1:]).min(initial=0) < 0:
        raise ValueError("viewers must be sorted non-increasing in each row")
    if not math.isfinite(capacity):
        raise ValueError(f"capacity must be finite, got {capacity!r}")
    if not math.inf > beta_max >= beta_min > 0:
        raise ValueError("need a finite beta_max >= beta_min > 0")
    if m_total * beta_min > capacity + BW_TOL:
        raise InfeasibleAllocationError(
            f"{m_total} sessions need {m_total * beta_min} > capacity {capacity}")

    if m_total * beta_max <= capacity + BW_TOL:
        return PopularityAllocation(np.full((n_rows, m_total), beta_max), viewers,
                                    capacity, beta_max, congested=False)

    k_total = viewers.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(k_total > 0, (m_total / k_total) * (capacity / m_total - beta_min),
                         0.0)
    beta_diff = beta_max - beta_min

    # Session m is offered beta_min + a*K_m plus the overflow carried from
    # higher ranks; what exceeds beta_max is spread over the sessions left.
    # Once no row overflows at a rank, none overflows later: its carry stops
    # growing while a*K_m does not rise down a non-increasing row.  (a < 0
    # only within BW_TOL of the M*beta_min floor, where nothing overflows.)
    bws = np.empty((n_rows, m_total))
    carry = np.zeros(n_rows)
    for rank in range(m_total):
        provisional = scale * viewers[:, rank] + carry
        if provisional.max() <= beta_diff + BW_TOL:
            bws[:, rank:] = beta_min + (scale[:, None] * viewers[:, rank:] + carry[:, None])
            break
        over = provisional > beta_diff + BW_TOL
        left = m_total - (rank + 1)
        require(left > 0, "top-rank overflow cannot land on the last session")
        bws[:, rank] = np.where(over, beta_max, beta_min + provisional)
        carry = carry + np.where(over, (provisional - beta_diff) / left, 0.0)

    return PopularityAllocation(bws, viewers, capacity, beta_max, congested=True)
