"""The public surface of the package, pinned name by name."""

import types

import tmtmag

PUBLIC = {
    # wavelets: one array API per transform
    "WaveletBasis", "WaveletError", "available_bases", "basis_registry", "default_levels",
    "dwt_decompose", "dwt_reconstruct", "uwt_analyze", "uwt_synthesize",
    # ramsey: ensembles are (n_experiments, n_samples) arrays
    "GAMMA_E", "AcquisitionPlan", "SensorParams", "calib_frequency", "sensing_frequency",
    "shot_noise", "simulate_ensemble", "template",
    # tmt
    "FrequencyGrid", "FrequencySearchError", "estimate_frequencies", "margin_width",
    "tmt_denoise",
    # bench
    "BenchmarkSetup", "BetaSweepResult", "DetectionPointSet", "EnsembleStats", "GainPoint",
    "ScalingFit", "SnrPoint", "benchmark_snr", "default_beta_grid",
    "ensemble_stats", "find_detection_points", "fit_scaling", "gain_profile",
    "signal_amplitude", "snr", "sweep_beta",
}


def test_public_names_are_pinned():
    names = {name for name in dir(tmtmag)
             if not name.startswith("_")
             and not isinstance(getattr(tmtmag, name), types.ModuleType)}
    assert names == PUBLIC
