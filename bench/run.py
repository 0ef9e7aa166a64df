"""driftsim benchmark: time-to-forecast, accuracy and per-layer cost.

    python3 bench/run.py --workload moons-coda --seed 0 --seconds 40 --trace 0

Run from the repository root; the package is imported from `src/`. The last
line of standard output is one JSON object with keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the `end_to_end`
metrics of BENCHMARK.json, measured untraced; with `--trace 1` they are its
`per_layer` metrics, taken from traced calls that each follow an untraced
call on the same inputs, so the tracing overhead can be reported. Spans of a
traced run are written to `.bench_trace/` when it ends. Workloads, metric
definitions and the layer-to-end-to-end map are in bench/README.md.

Load is a closed loop on one thread: each experiment (or verify batch)
starts when the previous one returns.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from dataclasses import replace

import numpy as np

from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
sys.path.insert(0, SRC)

from driftsim import (autodiff, bounds, datasets, density_baseline,  # noqa: E402
                      harness, optim, simulator)
from driftsim.correlation import matrix_distance, pearson_matrix  # noqa: E402
from driftsim.predictor import PredictorConfig  # noqa: E402
from driftsim.simulator import SimulatorConfig  # noqa: E402

SETUP_REPS = 9                # set-ups per run; setup_s is their median
MOONS = {"domains": 10, "n_per_domain": 200, "noise_std": 0.15}
VERIFY_PAIRS = 1000           # pairs in one `driftsim verify-bound` call at its defaults
VERIFY_DIMS, VERIFY_SUPPORT = 4, 16
# moons-coda trains every stage for a fixed number of epochs (patience equal to
# max_epochs, so nothing stops early). Under the default early stopping the work
# of one call varies by 30 % across data seeds. The budgets are half of where
# the defaults stop on data seed 0 (predictor 630, simulator 300 warm-up + 595,
# MLP 786), so that the run time fits beside the other workloads.
FIXED_EPOCHS = harness.ExperimentConfig(
    predictor=PredictorConfig(max_epochs=300, patience=300),
    simulator=SimulatorConfig(warmup_epochs=150, max_epochs=450, patience=450),
    downstream=harness.DownstreamConfig(max_epochs=400, patience=400))
# workload -> (harness method, config, model seeds); bound-verify has no method
WORKLOADS = {"moons-coda": ("coda", FIXED_EPOCHS, (0, 1)),
             "moons-prelim": ("prelim", harness.ExperimentConfig(), (0,)),
             "bound-verify": (None, None, ())}
# stage spans: every span under one of these is attributed to that stage
STAGES = {"harness.train_predictor": "predictor",
          "harness.train_simulator": "simulator",
          "harness.train_downstream": "downstream",
          "density_baseline.train_prelim": "prelim"}
TRACED = ([(autodiff, name) for name in
           ("evaluate_with_gradients", "backward", "evaluate_value")]
          + [(optim.Adam, "step"), (simulator, "loss_snapshot"),
             (density_baseline, "train_prelim")]
          + [(harness, name) for name in
             ("train_predictor", "predict_next", "train_simulator", "sample",
              "train_downstream", "evaluate", "pearson_matrix",
              "fit_apply_normalization")]
          + [(bounds, name) for name in
             ("random_distribution_pair", "verify_bound", "check_moment_deltas")])

IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import driftsim.cli; "
               "print(time.perf_counter() - t)")


def repeat(op, seconds: float) -> list:
    """Call op(0), op(1), ... while the next call should end within `seconds`."""
    start = time.perf_counter()
    results = []
    while True:
        t = time.perf_counter()
        results.append(op(len(results)))
        if time.perf_counter() - start + (time.perf_counter() - t) > seconds:
            return results


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def span_name(owner, attr: str) -> str:
    """`autodiff.backward`, `optim.Adam.step`: the qualified name without `driftsim.`."""
    name = (owner.__name__ if isinstance(owner, types.ModuleType)
            else f"{owner.__module__}.{owner.__qualname__}")
    return f"{name.removeprefix('driftsim.')}.{attr}"


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.method, self.config, self.model_seeds = WORKLOADS[workload]
        self.attempted = self.failed = 0
        self.mce = []               # per model seed, from untraced calls
        self.untraced_s = []        # wall seconds of each untraced call
        self.traced_s = []          # wall seconds of each traced call
        self.forecasts = []         # predict_next results inside traced calls
        self.tracer = Tracer()
        self.stream_ms = 0.0

    def set_up(self) -> float:
        """Median over SETUP_REPS of (fresh-process import + input build)."""
        totals, stream_s = [], []
        for _ in range(SETUP_REPS):
            child = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC],
                                   capture_output=True, text=True, check=True,
                                   timeout=120)
            t = time.perf_counter()
            if self.method is not None:
                stream = datasets.make_moons_stream(**MOONS, seed=self.seed)
                stream_s.append(time.perf_counter() - t)
                normalized, _ = datasets.fit_apply_normalization(stream)
                self.stream, self.target_corr = stream, pearson_matrix(normalized.target)
            totals.append(float(child.stdout) + time.perf_counter() - t)
        if stream_s:
            self.stream_ms = 1e3 * statistics.median(stream_s)
        return statistics.median(totals)

    # -- operations ----------------------------------------------------------

    def experiment(self, traced: bool):
        """One run_experiment call over the model seeds; per-seed McE or None."""
        config = replace(self.config, seeds=self.model_seeds)
        self.attempted += len(self.model_seeds)
        t = time.perf_counter()
        try:
            report = harness.run_experiment(self.stream, self.method, config)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"experiment failed: {exc!r}", file=sys.stderr)
            self.failed += len(self.model_seeds)
            return None
        (self.traced_s if traced else self.untraced_s).append(time.perf_counter() - t)
        values = list(report.seed_values)
        self.failed += sum(not (math.isfinite(v) and 0.0 <= v <= 100.0) for v in values)
        return values

    def verify_batch(self, first: int, traced: bool):
        """Check pairs first..first+VERIFY_PAIRS-1; per-pair (lhs, rhs) or None."""
        out = []
        t = time.perf_counter()
        for i in range(first, first + VERIFY_PAIRS):
            self.tracer.run_id = i
            self.attempted += 1
            try:
                p, q = bounds.random_distribution_pair(
                    np.random.default_rng([self.seed, i]), max_dim=VERIFY_DIMS,
                    max_support=VERIFY_SUPPORT)
                report = bounds.verify_bound(p, q)
                ok = not report.violated and bounds.check_moment_deltas(p, q).ok
            except Exception as exc:  # a failed operation is counted, not fatal
                print(f"pair {i} failed: {exc!r}", file=sys.stderr)
                ok, report = False, None
            self.failed += not ok
            out.append(None if report is None else (report.lhs, report.rhs))
        (self.traced_s if traced else self.untraced_s).append(time.perf_counter() - t)
        return out

    def op(self, index: int, traced: bool = False):
        if self.method is None:
            return self.verify_batch(index * VERIFY_PAIRS, traced)
        self.tracer.run_id = index
        return self.experiment(traced)

    # -- runs ----------------------------------------------------------------

    def run_untraced(self) -> dict:
        outputs = repeat(self.op, self.seconds)
        if not self.untraced_s:
            raise RuntimeError("no operation completed")
        if self.method is None:
            accuracy = 100.0 * (1.0 - self.failed / self.attempted)
        else:
            self.mce = [v for values in outputs if values for v in values]
            accuracy = 100.0 - statistics.fmean(self.mce) if self.mce else 0.0
        # median of the run's calls: on a shared machine identical calls differ by
        # up to 2x in regimes lasting seconds to minutes; the fastest is a rare burst
        return {"experiment_s": statistics.median(self.untraced_s),
                "accuracy_pct": accuracy,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    def run_traced(self) -> dict:
        """Per-layer metrics from traced calls, each after an untraced call on the
        same inputs. Moons workloads trace their first model seed only, so a
        traced moons-coda run costs about as much as an untraced one."""
        self.model_seeds = self.model_seeds[:1]

        def pair(index):
            plain = self.op(index)
            for owner, attr in TRACED:
                self.tracer.wrap(owner, attr, span_name(owner, attr),
                                 self.forecasts if attr == "predict_next" else None)
            try:
                traced = self.op(index, traced=True)
            finally:
                self.tracer.restore()
            if plain != traced:  # tracing must not perturb any output
                print(f"call {index}: traced output {traced} != untraced {plain}",
                      file=sys.stderr)
                self.failed += len(self.model_seeds) if self.method else VERIFY_PAIRS
            return plain

        outputs = repeat(pair, self.seconds)
        if self.method is not None:
            self.mce = [v for values in outputs if values for v in values]
        if not self.traced_s:
            raise RuntimeError("no traced operation completed")
        return self.layer_metrics()

    def layer_metrics(self) -> dict:
        n = len(self.traced_s)
        totals = self.tracer.summary(STAGES)
        top_level = sum(end - start for _, start, end, parent, _ in self.tracer.spans
                        if parent is None)

        def get(name, stage, field):
            """Per traced call: one field summed over spans `name` in `stage` ("*": any)."""
            return sum(row[field] for (st, nm), row in totals.items()
                       if nm == name and stage in ("*", st)) / n

        def calls(name, stage="*"):
            return get(name, stage, 0)

        def incl(name, stage="*"):
            return get(name, stage, 1)

        def own(name, stage="*"):
            return get(name, stage, 2)

        def ratio(a, b):
            return a / b if b else 0.0

        ewg, bwd, step = "autodiff.evaluate_with_gradients", "autodiff.backward", "optim.Adam.step"
        m = {}
        for prefix, stage, span in (("predictor", "predictor", "harness.train_predictor"),
                                    ("simulator", "simulator", "harness.train_simulator"),
                                    ("density_baseline", "prelim", "density_baseline.train_prelim")):
            m[f"{prefix}.train_s"] = incl(span)
            m[f"{prefix}.backward_s"] = own(bwd, stage)
            if prefix != "density_baseline":
                m[f"{prefix}.tape_fwd_s"] = own(ewg, stage)
                m[f"{prefix}.adam_s"] = own(step, stage)
        m["predictor.epochs"] = calls(ewg, "predictor")
        m["simulator.steps"] = calls(ewg, "simulator")
        # one snapshot per epoch plus one before training, per fit
        m["simulator.epochs"] = (calls("simulator.loss_snapshot", "simulator")
                                 - calls("harness.train_simulator"))
        m["density_baseline.epochs"] = calls(ewg, "prelim")
        for prefix in ("predictor", "simulator", "density_baseline"):
            m[f"{prefix}.ms_per_epoch"] = 1e3 * ratio(m[f"{prefix}.train_s"],
                                                     m[f"{prefix}.epochs"])
        m["predictor.predict_ms"] = 1e3 * incl("harness.predict_next")
        m["predictor.forecast_l1"] = statistics.fmean(
            matrix_distance(c, self.target_corr, "elementwise-l1")
            for c in self.forecasts) if self.forecasts else 0.0
        m["simulator.sample_ms"] = 1e3 * incl("harness.sample")
        m["simulator.snapshot_s"] = incl("simulator.loss_snapshot", "simulator")
        m["simulator.snapshot_share"] = ratio(m["simulator.snapshot_s"], m["simulator.train_s"])
        m["autodiff.grad_calls"] = calls(ewg)
        m["autodiff.value_calls"] = calls("autodiff.evaluate_value")
        m["autodiff.backward_share"] = ratio(own(bwd), incl(ewg))
        m["optim.step_calls"] = calls(step)
        m["optim.step_us"] = 1e6 * ratio(own(step), calls(step))
        m["harness.downstream_s"] = incl("harness.train_downstream")
        m["harness.downstream_epochs"] = calls(ewg, "downstream")
        m["harness.downstream_ms_per_epoch"] = 1e3 * ratio(m["harness.downstream_s"],
                                                           m["harness.downstream_epochs"])
        m["harness.evaluate_ms"] = 1e3 * incl("harness.evaluate")
        m["harness.mce_pct"] = statistics.fmean(self.mce) if self.mce else 0.0
        for key, name in (("pair_gen_us", "random_distribution_pair"),
                          ("verify_us", "verify_bound"), ("moments_us", "check_moment_deltas")):
            m[f"bounds.{key}"] = 1e6 * ratio(own(f"bounds.{name}"), calls(f"bounds.{name}"))
        m["datasets.stream_ms"] = self.stream_ms
        m["datasets.normalize_ms"] = 1e3 * incl("harness.fit_apply_normalization")
        m["correlation.pearson_ms"] = 1e3 * incl("harness.pearson_matrix")
        m["trace.overhead_share"] = sum(self.traced_s) / sum(self.untraced_s) - 1.0
        m["trace.unattributed_share"] = 1.0 - top_level / sum(self.traced_s)
        return m


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: moons data seed / bound-verify rng root")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure at least one call, and more while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    bench = Bench(args.workload, args.seed, args.seconds)
    setup_s = bench.set_up()
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "nproc": os.cpu_count(),
               "python": platform.python_version(), "numpy": np.__version__,
               "blas_threads": blas_threads(), "bench_threads": 1}
    print("context " + json.dumps(context))
    if args.trace:
        values = bench.run_traced()
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
        bench.tracer.dump(path, context)
        print(f"spans written to {path}")
    else:
        values = {"setup_s": setup_s, **bench.run_untraced()}
    print(f"call seconds: untraced {bench.untraced_s} traced {bench.traced_s}")
    if bench.method is not None:
        print(f"model seeds {list(bench.model_seeds)}: McE % per seed, per call {bench.mce}")
    if set(values) != {d["name"] for d in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
