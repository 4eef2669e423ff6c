"""Shot-noise-limited Ramsey PL simulation and template-margin wavelet denoising."""

from .wavelets import (
    WaveletBasis,
    WaveletDecomposition,
    WaveletError,
    available_bases,
    basis_registry,
    default_levels,
    dwt_decompose,
    dwt_reconstruct,
    iuwt_reconstruct,
    uwt_decompose,
)
from .ramsey import (
    GAMMA_E,
    AcquisitionPlan,
    PLTrace,
    SensorParams,
    calib_frequency,
    derive_photon_levels,
    sensing_frequency,
    shot_noise,
    simulate_ensemble,
    simulate_trace,
    template,
)
from .tmt import (
    FrequencyGrid,
    FrequencySearchError,
    build_margins,
    denoise_pipeline,
    estimate_frequencies,
    margin_width,
    tmt_denoise,
)
from .bench import (
    BenchmarkSetup,
    BetaSweepResult,
    DetectionPointSet,
    EnsembleStats,
    GainPoint,
    ScalingFit,
    SnrPoint,
    benchmark_snr,
    calibrate_beta,
    default_beta_grid,
    ensemble_stats,
    find_detection_points,
    fit_scaling,
    gain_profile,
    signal_amplitude,
    snr,
    sweep_beta,
)

__version__ = "0.1.0"
