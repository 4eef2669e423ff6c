"""End-to-end and per-layer benchmark of the tmtmag CLI modes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-refs

Each mode run is one fresh single-process child (``child.py``) with
OMP/OpenBLAS/MKL pinned to one thread; the child imports ``tmtmag`` from
``src/`` of the checkout this file sits in.  A benchmark run does:

1. one discarded set-up child (fills the bytecode cache), then
   ``SETUP_CHILDREN`` set-up-only children for ``setup_s``;
2. a mode run at the reference seed, compared with ``refs/<workload>.json``;
3. a mode run at a seed derived from ``--seed``, and a second run with that
   seed whose files must be byte-identical (traced with ``--trace 1``);
4. with ``--trace 0``, further mode runs at fresh seeds while fewer than
   ``--seconds`` have passed since step 2 began; with ``--trace 1``,
   further untraced/traced pairs.

Every mode run is timed and checked (``check.py``).  The last stdout line
is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from the traced runs with ``--trace 1``, where ``trace_overhead_s``
is the median traced ``run_s`` minus the median untraced one.  The lines before it
give quartiles, sample counts and the machine.  Work files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from child import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REF_SEED = 7
SETUP_CHILDREN = 10
# a benchmark run must end within 180 s: no mode run starts after
# LAST_START_S and every child is killed at DEADLINE_S
LAST_START_S = 120.0
DEADLINE_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# workload -> tables its mode writes.  Why each workload is here:
# snr-scaling: benchmark mode, 5 ensembles x 200 traces x 61 filter orders
#   at N=150; per-beta clamp + synthesis dominate, as in every sweep.
# gain-profile: calibration transfer; N grows 53 -> 411 and the depth 5 -> 8
#   levels (n_sd = 1, 5, 9), so length- and depth-dependent costs show.
# denoise-export: one filter order on 200 traces of N=448 whose full
#   traces are exported as CSV+JSON; export and memory dominate.
WORKLOADS = {
    "snr-scaling": ["benchmark", "scaling_fits"],
    "gain-profile": ["gain_profile"],
    "denoise-export": ["denoise", "template_estimates"],
}

class ChildError(RuntimeError):
    pass


def trace_beta_evals(config: dict) -> int:
    """(trace, beta) denoise evaluations one mode run performs."""
    grid = config["filter"].get("beta_grid")
    n_exp = config["plan"]["n_experiments"]
    exp = config["experiment"]
    if exp["mode"] == "denoise":
        return n_exp
    n_beta = int(round((grid["stop"] - grid["start"]) / grid["step"])) + 1
    if exp["mode"] == "benchmark":
        return len(exp["m_values"]) * n_exp * n_beta
    if exp["mode"] == "gain-profile":
        # a calibration sweep plus one sensing ensemble per n_sd
        return len(exp["n_sd_values"]) * n_exp * (n_beta + 1)
    raise ValueError(f"no work count for mode {exp['mode']!r}")


def derived_seed(workload: str, seed: int, k: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def spawn(config_path: Path, out_dir: Path, seed: int, timeout: float, *,
          setup_only: bool = False, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), str(config_path), str(out_dir), str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"seed {seed}: killed after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise ChildError(f"seed {seed}: exit {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["tmtmag_file"]).resolve().is_relative_to(ROOT / "src"):
        raise ChildError(f"imported tmtmag from {result['tmtmag_file']}, not from src/")
    return result


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "bytes" if key.endswith("bytes_written") else "count"


def describe(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile with at
    least ten samples beyond it, when that lies above the upper quartile."""
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (ordered[0],) * 3
    out = {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": n,
           "tail_pct": None, "tail": None}
    pct = int(100 * (1 - 10 / n))
    if pct > 75:
        out["tail_pct"] = pct
        out["tail"] = statistics.quantiles(ordered, n=100)[pct - 1]
    return out


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "threads": THREAD_ENV, "load": "one child process at a time"}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    import numpy
    info["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = None
    return info


class Session:
    """One benchmark run of one workload: children, checks and samples."""

    def __init__(self, workload: str, seed: int, trace: bool, started: float):
        self.started = started
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.config_path = HERE / "workloads" / f"{workload}.json"
        self.config = json.loads(self.config_path.read_text())
        self.tables = WORKLOADS[workload]
        self.ref = json.loads((HERE / "refs" / f"{workload}.json").read_text())
        self.evals = trace_beta_evals(self.config)
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failures: dict[str, str] = {}  # child name -> first problem
        self.setup_s: list[float] = []
        self.runs: list[dict] = []  # untraced mode runs
        self.traced: list[dict] = []
        self.ref_identical = (0, 0)

    def fail(self, name: str, problems: list[str]) -> None:
        if problems and name not in self.failures:
            more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
            self.failures[name] = problems[0] + more

    def child(self, name: str, seed: int, **kwargs) -> dict | None:
        self.attempted += 1
        try:
            timeout = DEADLINE_S - (time.monotonic() - self.started)
            return spawn(self.config_path, self.dir / name, seed, timeout, **kwargs)
        except (ChildError, ValueError, KeyError) as exc:
            self.fail(name, [str(exc)])
            return None

    def setup_phase(self) -> None:
        self.child("warmup", REF_SEED, setup_only=True)  # fills the bytecode cache; discarded
        for i in range(SETUP_CHILDREN):
            result = self.child(f"setup{i}", REF_SEED, setup_only=True)
            if result:
                self.setup_s.append(result["setup_s"])

    def mode_run(self, seed: int, name: str, traced: bool = False) -> tuple[dict, Path] | None:
        out = self.dir / name
        spans = self.dir / f"{name}-spans.json" if traced else None
        result = self.child(name, seed, spans=spans)
        if result is None:
            return None
        problems = check.check_run(out, self.config, self.tables)
        if traced:
            if result["layers"]["bench.beta_evals"] != self.evals:
                problems.append(f"traced bench.beta_evals {result['layers']['bench.beta_evals']}"
                                f" != {self.evals} computed from the workload config")
            self.traced.append(result)
        else:
            self.runs.append(result)
            self.setup_s.append(result["setup_s"])
        if problems:
            self.fail(name, problems)
            return None
        return result, out

    def reference_run(self) -> None:
        done = self.mode_run(REF_SEED, "ref")
        if done is None:
            return
        problems, identical, total = check.compare_reference(done[1], self.ref)
        self.ref_identical = (identical, total)
        self.fail("ref", problems)
        shutil.rmtree(done[1])

    def pair(self, k: int) -> None:
        """Two runs with one seed.  When tracing, one of them is traced,
        the first in even pairs and the second in odd ones."""
        seed = derived_seed(self.workload, self.seed, k)
        traced = (self.trace and k % 2 == 0, self.trace and k % 2 == 1)
        first = self.mode_run(seed, f"run{k}a", traced[0])
        second = self.mode_run(seed, f"run{k}b", traced[1])
        if first and second:
            self.fail(f"run{k}b", check.same_outputs(first[1], second[1]))
        for done in (first, second):
            if done:
                shutil.rmtree(done[1])

    def single(self, k: int) -> None:
        done = self.mode_run(derived_seed(self.workload, self.seed, k), f"run{k}")
        if done:
            shutil.rmtree(done[1])

    def measure(self, seconds: float) -> None:
        self.setup_phase()
        begin = time.monotonic()
        self.reference_run()
        self.pair(1)
        k = 2
        while (time.monotonic() - begin < seconds
               and time.monotonic() - self.started < LAST_START_S and not self.failures):
            if self.trace:
                self.pair(k)
            else:
                self.single(k)
            k += 1

    def end_to_end(self) -> dict:
        run_s = [r["run_s"] for r in self.runs]
        return {
            "run_s": (run_s, "s"),
            "trace_betas_per_s": ([self.evals / t for t in run_s], "1/s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": ([r["peak_rss_mib"] for r in self.runs], "MiB"),
        }

    def per_layer(self) -> dict:
        out = {}
        layers = [r["layers"] for r in self.traced]
        for key in layers[0] if layers else ():
            values = [layer[key] for layer in layers]
            if key in EXACT_COUNTS and len(set(values)) > 1:
                self.fail("traced-counts", [f"count {key} differs between traced runs: {values}"])
            out[key] = (values, layer_unit(key))
        if self.traced and self.runs:
            overhead = (statistics.median(r["run_s"] for r in self.traced)
                        - statistics.median(r["run_s"] for r in self.runs))
            out["trace_overhead_s"] = ([overhead], "s")
        return out


def write_refs() -> int:
    for workload, tables in WORKLOADS.items():
        config_path = HERE / "workloads" / f"{workload}.json"
        out = WORK / "refs" / workload
        shutil.rmtree(out, ignore_errors=True)
        spawn(config_path, out, REF_SEED, DEADLINE_S)
        problems = check.check_run(out, json.loads(config_path.read_text()), tables)
        if problems:
            sys.stderr.write(f"{workload}: {problems}\n")
            return 1
        ref = check.make_reference(out, REF_SEED, tables)
        (HERE / "refs" / f"{workload}.json").write_text(json.dumps(ref, indent=1) + "\n")
        shutil.rmtree(out)
        print(f"wrote refs/{workload}.json")
    return 0


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true",
                        help="run every workload at the reference seed and store its tables")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tmtmag" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tmtmag sources under {ROOT / 'src'}\n")
        return 2
    if args.write_refs:
        return write_refs()
    if args.workload is None:
        parser.error("--workload is required")

    session = Session(args.workload, args.seed, bool(args.trace), started)
    session.measure(args.seconds)
    samples = session.per_layer() if args.trace else session.end_to_end()
    metrics = {}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "trace_beta_evals_per_run": session.evals, "machine": machine(),
              "ref_identical_files": list(session.ref_identical), "metrics": {}}
    for name, (values, unit) in samples.items():
        if not values:
            continue
        stats = describe(values)
        report["metrics"][name] = dict(stats, unit=unit, samples=values)
        if name in EXACT_COUNTS:
            metrics[name] = {"value": values[0], "unit": unit}
            print(f"{name}: {values[0]} {unit} (computed from array sizes, exact)")
            continue
        metrics[name] = {"value": stats["median"], "unit": unit}
        tail = "none (fewer than 41 samples)" if stats["tail"] is None else \
            f"p{stats['tail_pct']} {stats['tail']:.6g}"
        print(f"{name}: median {stats['median']:.6g} {unit}, quartiles {stats['q1']:.6g} .. "
              f"{stats['q3']:.6g}, tail {tail}, n={stats['n']}")
    print(f"input size: {session.evals} (trace, beta) denoise evaluations per mode run")
    attempted, failed = session.attempted, len(session.failures)
    error_rate = failed / attempted
    if not args.trace:
        metrics["pass_rate"] = {"value": 1.0 - error_rate, "unit": "ratio"}
    else:
        metrics["check.ref_identical_files"] = {"value": session.ref_identical[0], "unit": "count"}
    for name, problem in session.failures.items():
        print(f"FAILED {name}: {problem}")
    print(f"error_rate: {error_rate:.4g} ({failed} of {attempted} children); reference files "
          f"byte-identical: {session.ref_identical[0]} of {session.ref_identical[1]}")
    print(f"machine: {json.dumps(report['machine'], sort_keys=True)}")
    report.update(attempted=attempted, failed=failed, error_rate=error_rate,
                  failures=session.failures)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
