"""One tmtmag mode run in a fresh process, timed from the inside.

    python3 child.py CONFIG OUT_DIR SEED [--setup-only] [--spans FILE]

The clock starts before ``tmtmag`` is imported.  ``setup_s`` covers the
import, reading the workload config and building the ``RunConfig``;
``run_s`` covers ``tmtmag.cli.run``, from the parsed config to the last
file written.  With ``--spans`` the public functions each module exposes
are wrapped where their callers look them up, spans are kept in memory,
written to FILE at the end and summarised as per-layer metrics.

The last line on stdout is one JSON object with the measurements.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402


class TraceError(RuntimeError):
    """A wrap point the per-layer trace relies on does not exist."""


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.last_synth = None

    def span(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr, name, count=None):
        fn = owner.__dict__.get(attr)
        if not callable(fn):
            raise TraceError(f"wrap point {owner.__name__}.{attr} is missing")
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer.span(name, fn, *args, **kwargs)
            if count is not None:
                count(tracer, out, *args, **kwargs)
            return out

        setattr(owner, attr, wrapper)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]))


# These counters are computed from array sizes, so they repeat exactly for
# a given workload whatever the seed.  cli.bytes_written is measured: the
# text length of a float depends on its value.
EXACT_COUNTS = ("wavelets.synth_calls", "wavelets.samples_synthesized", "bench.beta_evals",
                "bench.points_read", "tmt.spectrum_calls", "tmt.grid_macs",
                "ramsey.samples_drawn", "cli.rows_written")

def _count_simulate(tr, out, *args, **kwargs):
    tr.counts["ramsey.samples_drawn"] += out.size


def _count_spectrum(tr, out, values, times, params, omegas, *args, **kwargs):
    n_traces = 1 if out.ndim == 1 else out.shape[0]
    tr.counts["tmt.spectrum_calls"] += 1
    tr.counts["tmt.grid_macs"] += n_traces * len(omegas) * len(times)


def _count_synthesize(tr, out, *args, **kwargs):
    tr.counts["wavelets.synth_calls"] += 1
    tr.counts["wavelets.samples_synthesized"] += out.size
    tr.last_synth = out


def _count_denoised(tr, out, *args, **kwargs):
    tr.counts["bench.beta_evals"] += out.shape[0]


def _count_stats(tr, out, traces, points, *args, **kwargs):
    # only reads of a synthesized ensemble make synthesis useful
    if traces is tr.last_synth:
        tr.counts["bench.points_read"] += traces.shape[0] * len(points)


def _count_export(tr, paths, records, *args, **kwargs):
    tr.counts["cli.rows_written"] += len(records) * len(paths)
    tr.counts["cli.bytes_written"] += sum(p.stat().st_size for p in paths)


def install_wraps(tracer: Tracer) -> None:
    """Wrap every layer at the namespace its caller reads it from."""
    import tmtmag.bench as bench
    import tmtmag.cli as cli
    import tmtmag.tmt as tmt

    tracer.wrap(bench, "simulate_ensemble", "ramsey.simulate", _count_simulate)
    tracer.wrap(bench, "estimate_frequencies", "tmt.freq_search")
    tracer.wrap(tmt, "correlation_spectrum", "tmt.spectrum", _count_spectrum)
    tracer.wrap(bench, "uwt_analyze", "wavelets.analyze")
    tracer.wrap(bench, "uwt_synthesize", "wavelets.synthesize", _count_synthesize)
    tracer.wrap(bench, "ensemble_stats", "bench.stats", _count_stats)
    tracer.wrap(cli, "ensemble_stats", "bench.stats", _count_stats)
    tracer.wrap(cli, "export_table", "cli.export", _count_export)
    tracer.wrap(bench.EnsembleRun, "__init__", "bench.init")
    tracer.wrap(bench.EnsembleRun, "denoised", "bench.denoised", _count_denoised)


def layer_metrics(tracer: Tracer, run_start: float, run_s: float) -> dict:
    """Per-layer totals: span time (or self time), counts and ratios."""
    total = Counter()
    child_time = Counter()
    top_level = 0.0
    for name, start, end, parent in tracer.spans:
        total[name] += end - start
        if parent is not None:
            child_time[tracer.spans[parent][0]] += end - start
        elif start >= run_start:
            top_level += end - start
    metrics = {
        "wavelets.synthesize_s": total["wavelets.synthesize"],
        "wavelets.analyze_s": total["wavelets.analyze"],
        "bench.clamp_s": total["bench.denoised"] - child_time["bench.denoised"],
        "bench.init_self_s": total["bench.init"] - child_time["bench.init"],
        "bench.stats_s": total["bench.stats"],
        "tmt.freq_search_s": total["tmt.freq_search"],
        "ramsey.simulate_s": total["ramsey.simulate"],
        "cli.export_s": total["cli.export"],
        "config.parse_s": total["config.parse"],
        "unaccounted_s": run_s - top_level,
    }
    for key in EXACT_COUNTS + ("cli.bytes_written",):
        metrics[key] = tracer.counts[key]
    synthesized = tracer.counts["wavelets.samples_synthesized"]
    metrics["bench.synth_useful_ratio"] = (
        tracer.counts["bench.points_read"] / synthesized if synthesized else 0.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("seed", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    import tmtmag.cli
    from tmtmag.config import parse_config

    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        install_wraps(tracer)
    data = json.loads(args.config.read_text())
    data.setdefault("plan", {})["seed"] = args.seed
    data.setdefault("output", {})["directory"] = str(args.out_dir)
    if tracer is None:
        config = parse_config(data)
    else:
        config = tracer.span("config.parse", parse_config, data)
    run_start = time.perf_counter()
    result = {"setup_s": run_start - _T0, "tmtmag_file": tmtmag.__file__}

    if not args.setup_only:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tmtmag.cli.run(config)
        if code != 0:
            raise RuntimeError(f"tmtmag.cli.run returned {code}")
        result["run_s"] = time.perf_counter() - run_start
        if tracer is not None:
            tracer.write(args.spans)
            result["layers"] = layer_metrics(tracer, run_start, result["run_s"])
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
