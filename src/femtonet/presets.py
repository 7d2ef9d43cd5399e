"""Named parameter presets.

One frozen mapping per source table; a golden-file test pins every value.
Scenario files refer to these by name ("table-4.3", ...) and may override
individual keys.
"""

from __future__ import annotations

from types import MappingProxyType

from .admission import TrafficClass
from .videoalloc import MbsSession

# Ch. 4 evaluation geometry and radio constants
TABLE_4_3 = MappingProxyType({
    "macro_radius_m": 1000.0,
    "femto_radius_m": 10.0,
    "reference_fap_distance_m": 200.0,
    "carrier_hz": 900e6,
    "tx_power_macro_w": 1500.0,
    "tx_power_femto_w": 0.01,
    "macro_bs_height_m": 50.0,
    "fap_height_m": 2.0,
    "sir_threshold_db": 9.0,
    "dense_femtocells": 1000,
    "ue_fap_distance_m": 5.0,
    # Ch. 4 tables carry no penetration entry: macro interference reaches the
    # indoor user unobstructed in this scenario
    "macro_ue_walls": 0,
    "inter_femto_walls": 1,
})

# Ch. 5 mobility / two-tier traffic model
TABLE_5_1 = MappingProxyType({
    "s_t0_dbm": -90.0,
    "s_t1_dbm": -75.0,
    "capacity_kbps": 6000.0,
    "rigid_bw_kbps": 64.0,
    "adaptive_max_kbps": 56.0,
    "adaptive_min_kbps": 28.0,
    "arrival_ratio_rigid": 0.5,
    "arrival_ratio_adaptive": 0.5,
    "snir_t1_db": 10.0,
    "snir_t2_db": 12.0,
    "femtocells": 1000,
    "mean_call_duration_s": 120.0,
    "femto_dwell_s": 360.0,
    "macro_dwell_s": 240.0,
    "arrival_density_ratio": 20.0,
    "penetration_loss_db": 20.0,
    "macro_ue_walls": 1,
    # derived chain dimensions: N = C / mean request, S from the 56->28
    # degradation span (see queueing.chain_dimensions on the class table)
    "macro_base_states": 100,
    "macro_adaptive_states": 30,
    "femto_capacity_calls": 4,
})

# Ch. 6 traffic classes: (index, kind, kbps, gamma_n, gamma_h, share)
TABLE_6_1_CLASSES = (
    (1, "rt", 25.0, 0.0, 0.0, 0.35),
    (2, "rt", 128.0, 0.0, 0.0, 0.10),
    (3, "rt", 56.0, 0.0, 0.0, 0.05),
    (4, "nrt", 128.0, 0.4, 0.6, 0.15),
    (5, "nrt", 13.0, 0.2, 0.3, 0.10),
    (6, "nrt", 56.0, 0.2, 0.5, 0.15),
    (7, "nrt", 56.0, 0.5, 0.8, 0.10),
)

TABLE_6_1 = MappingProxyType({
    "classes": TABLE_6_1_CLASSES,
    "mean_call_duration_s": 120.0,
    "user_speed_kmh": 7.5,
    "cell_radius_km": 1.0,
    "background_file_mbit": 6.0,
    "macro_dwell_s": 240.0,
    "capacity_kbps": 6000.0,  # macrocell system bandwidth, as in the Ch. 5 table
    "guard_fraction": 0.05,
})

# Ch. 7 MBS cell
TABLE_7_1 = MappingProxyType({
    "capacity_mbps": 20.0,
    "voice_bw_kbps": 64.0,
    "unicast_max_mbps": 0.5,
    "unicast_max_layers": 10,
    "unicast_min_layers": 0,
    "unicast_layer_kbps": 20.0,
    "mbs_max_mbps": 1.0,
    "mbs_min_mbps": 0.5,
    "mbs_max_layers": 10,
    "mbs_min_layers": 0,
    "mbs_layer_kbps": 50.0,
    "mbs_sessions": 12,
    "background_max_kbps": 120.0,
    "background_min_kbps": 60.0,
    "background_degrade_hand": 0.5,
    "background_degrade_new": 0.3,
    "mean_call_duration_s": 120.0,
    "arrival_ratio_voice": 5.0,
    "arrival_ratio_unicast": 1.0,
    "arrival_ratio_background": 4.0,
    "cell_dwell_s": 540.0,
})

# Ch. 8 popularity allocation
TABLE_8_1 = MappingProxyType({
    "capacity_mbps": 30.0,
    "beta_max_mbps": 2.0,
    "beta_min_mbps": 0.6,
    "total_viewers": 200,
})

PRESETS = MappingProxyType({
    "table-4.3": TABLE_4_3,
    "table-5.1": TABLE_5_1,
    "table-6.1": TABLE_6_1,
    "table-7.1": TABLE_7_1,
    "table-8.1": TABLE_8_1,
})


def table61_classes() -> tuple[TrafficClass, ...]:
    return tuple(
        TrafficClass(index=i, kind=kind, requested_bw=bw, degrade_new=gn,
                     degrade_hand=gh, arrival_share=share,
                     duration_s=TABLE_6_1["mean_call_duration_s"])
        for (i, kind, bw, gn, gh, share) in TABLE_6_1_CLASSES
    )


def table71_mbs_sessions():
    t = TABLE_7_1
    return [
        MbsSession(id=i, base_bw=t["mbs_min_mbps"] * 1e6,
                   layer_bw=t["mbs_layer_kbps"] * 1e3,
                   max_layers=t["mbs_max_layers"],
                   min_layers=t["mbs_min_layers"],
                   popularity=t["mbs_sessions"] - i)
        for i in range(t["mbs_sessions"])
    ]
