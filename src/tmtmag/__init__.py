"""Shot-noise-limited Ramsey PL simulation and template-margin wavelet denoising."""

from .wavelets import (
    WaveletBasis,
    WaveletError,
    available_bases,
    basis_registry,
    default_levels,
    dwt_decompose,
    dwt_reconstruct,
    uwt_analyze,
    uwt_synthesize,
)
from .ramsey import (
    GAMMA_E,
    AcquisitionPlan,
    SensorParams,
    calib_frequency,
    sensing_frequency,
    shot_noise,
    simulate_ensemble,
    template,
)
from .tmt import (
    FrequencyGrid,
    FrequencySearchError,
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
