"""The public surface of the package, pinned name by name, and its imports."""

import ast
import sys
import types
from pathlib import Path

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


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency: scipy, mpmath and hypothesis are
    # test extras, and an import of one of them would fail on a plain install
    allowed = set(sys.stdlib_module_names) | {"numpy", "tmtmag"}
    files = sorted(Path(tmtmag.__file__).parent.rglob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, (path.name, name)
