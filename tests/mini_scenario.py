"""The single-vehicle scenario template that ``make_scenario_file`` writes.

It lives outside ``conftest.py`` so test modules can import it by a name
that no other test directory's conftest shadows.
"""

MINI_SCENARIO = {
    "name": "mini",
    "dem_file": "flat.dem",
    "duration_s": 80.0,
    "dt_s": 1.0,
    "target": {"north_m": 0.0, "east_m": 0.0, "height_m": 110.0},
    "guidance": {
        "k_chi": 8.8844,
        "k_gamma": 8.8844,
        "acceptance_radius_m": 40.0,
        "delta_lat_rad": 0.5,
        "delta_lon_rad": 0.5,
    },
    "coordination": {"k_theta": 1.0, "gamma_d": 1.0, "k_vg": 0.001},
    "comm": {
        "r_com_m": 30000.0,
        "c_max": 2,
        "gamma_signal": 1.0,
        "dropout_schedule": [],
    },
    "replan": {
        "k_samples": 500,
        "delta_r_m": 300.0,
        "delta_h_m": 60.0,
        "delta_angle_rad": 1.5707963267948966,
        "clearance_m": 10.0,
        "terrain_step_m": 25.0,
        "max_iterations": 20,
    },
    "autopilot": {"tau_phi_s": 0.5, "tau_n_s": 0.5, "tau_v_s": 2.0, "tau_psi_s": 1.0},
    "wind": {
        "ambient_mps": [0.0, 0.0, 0.0],
        "sigma_u_mps": 0.0,
        "sigma_v_mps": 0.0,
        "sigma_w_mps": 0.0,
        "length_u_m": 200.0,
        "length_v_m": 200.0,
        "length_w_m": 50.0,
        "airspeed_nominal_mps": 13.5,
        "d_max_radps": 0.1,
    },
    "limits": {
        "v_g_min_mps": 9.0,
        "v_g_max_mps": 18.0,
        "phi_min_rad": -0.6,
        "phi_max_rad": 0.6,
        "n_lf_min": 0.0,
        "n_lf_max": 2.1,
        "eta_lat_min_rad": -1.5,
        "eta_lat_max_rad": 1.5,
        "eta_lon_min_rad": -1.5,
        "eta_lon_max_rad": 1.5,
    },
    "master_seed": 11,
    "uavs": [
        {
            "id": 0,
            "initial": {
                "north_m": -600.0,
                "east_m": 0.0,
                "height_m": 110.0,
                "chi_rad": 0.0,
                "gamma_rad": 0.0,
                "psi_rad": 0.0,
                "v_g_mps": 13.5,
                "phi_rad": 0.0,
                "n_lf": 1.0,
            },
            "waypoints": [[-300.0, 0.0, 110.0], [0.0, 0.0, 110.0]],
        },
    ],
}
