"""fdilsim benchmark: closed-loop workloads driven through the public API.

Run from the repository root::

    python3 benchmarks/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

Each workload is a fixed batch of experiments run one after another in this
process until ``--seconds`` have passed.  An experiment is
``run_experiment`` -> ``emit_runlog`` -> ``verify_runlog`` on a fresh
directory.  Batch 0 always uses the workload's default master seeds, whose
results are checked against ``references.json``; later batches take their
master seeds from ``--seed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it repeats batch 0, alternately untraced and with
every public fdilsim function wrapped (see ``tracing.py``, which an untraced
run never imports).  ``benchmarks/README.md`` maps each
metric to its module and workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# Set before fdilsim loads numpy: the hot path is bound by Python call
# overhead, and a second BLAS thread only adds noise.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")
REFERENCE_FILE = os.path.join(BENCH_DIR, "references.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Reference tolerances.  Last-bit moves in a gradient can flip a handful of
# borderline test predictions (each 1/240 of one task's accuracy) but move
# the probe-based constants only by rounding.  A wrong gradient or a skipped
# probe moves the constants by orders of magnitude more, and changes the
# exact probe counts.
ACC_ABS_TOL = 0.01
CONST_REL_TOL = 1e-6
CONST_ABS_TOL = 1e-12
ACC_KEYS = ("acc", "bwt")
CONST_KEYS = (
    "const_B",
    "const_L",
    "const_sigma_l",
    "const_sigma_g",
    "const_sigma_t",
    "const_eps_bkt",
    "const_eps_corr",
)
EXACT_KEYS = ("probe_points", "minibatch_draws")

# Set-up probes taken before the first batch; one more follows each batch,
# so that the median spans the machine's speed over the whole run.
SETUP_PROBES_FIRST = 3
SETUP_CHILD = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fdilsim\n"
    "for text in json.load(sys.stdin):\n"
    "    fdilsim.parse_config_text(text)\n"
)


@dataclass(frozen=True)
class Workload:
    """A fixed batch: every (algorithm, lambda) variant at each master seed."""

    config: str
    variants: tuple[tuple[str, float], ...]
    seeds_per_batch: int
    # (variant a, variant b) whose four output tables must be byte-identical.
    identical: tuple[tuple[int, int], ...] = ()
    # Variant run a second time in each batch; the repeat must be identical.
    repeat: int | None = None


WORKLOADS = {
    # Python call overhead on d = 9; all three algorithm paths; I/O per run.
    "desk-sweep": Workload(
        config="desk-sweep.ini",
        variants=(
            ("fedavg", 0.25),
            ("special", 0.0),
            ("special", 0.25),
            ("special", 1.0),
            ("special_c", 0.25),
        ),
        seeds_per_batch=2,
        identical=((0, 1),),
        repeat=2,
    ),
    # Probe estimator and joint-objective instrumentation at scale.
    "wide": Workload(config="wide.ini", variants=(("special", 0.25),), seeds_per_batch=1),
    # Local updates dominate; no random probes, no joint instrumentation.
    "protocol-long": Workload(
        config="protocol-long.ini", variants=(("special_c", 0.25),), seeds_per_batch=1
    ),
}


@dataclass
class Experiment:
    label: str
    text: str
    reference: str  # label whose reference values apply
    seconds: float | None = None
    error: str | None = None


@dataclass
class Batch:
    experiments: list[Experiment]
    wall: float = 0.0
    layers: dict = field(default_factory=dict)


def set_key(text: str, key: str, value) -> str:
    new, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    if count != 1:
        raise ValueError(f"workload config must set {key} exactly once")
    return new


def default_seed(text: str) -> int:
    match = re.search(r"^master_seed = (\d+)$", text, flags=re.M)
    if match is None:
        raise ValueError("workload config must set master_seed")
    return int(match.group(1))


def batch_seeds(workload: Workload, base_text: str, bench_seed: int, index: int) -> list[int]:
    """Batch 0 uses the default seeds; later batches hash --seed and the index."""
    if index == 0:
        first = default_seed(base_text)
        return [first + j for j in range(workload.seeds_per_batch)]
    seeds = []
    for j in range(workload.seeds_per_batch):
        digest = hashlib.sha256(f"fdilsim-bench:{bench_seed}:{index}:{j}".encode()).digest()
        seeds.append(int.from_bytes(digest[:4], "big"))
    return seeds


def batch_experiments(workload: Workload, base_text: str, seeds: list[int]) -> list[Experiment]:
    experiments = []
    for seed in seeds:
        for algorithm, lam in workload.variants:
            label = f"{algorithm}-l{lam!r}-s{seed}"
            text = set_key(base_text, "algorithm", algorithm)
            text = set_key(text, "prox_lambda", repr(lam))
            text = set_key(text, "master_seed", seed)
            experiments.append(Experiment(label, text, label))
        if workload.repeat is not None:
            original = experiments[-len(workload.variants) + workload.repeat]
            experiments.append(Experiment(original.label + "-repeat", original.text, original.label))
    return experiments


def read_summary(run_dir: str) -> dict[str, str]:
    with open(os.path.join(run_dir, "metrics_summary.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return dict(line.split(",", 1) for line in lines)


def reference_mismatches(summary: dict[str, str], expected: dict) -> list[str]:
    bad = []
    for key in ACC_KEYS:
        if abs(float(summary[key]) - expected[key]) > ACC_ABS_TOL:
            bad.append(f"{key}={summary[key]} vs reference {expected[key]!r}")
    for key in CONST_KEYS:
        got, want = float(summary[key]), expected[key]
        if not abs(got - want) <= CONST_REL_TOL * abs(want) + CONST_ABS_TOL:
            bad.append(f"{key}={summary[key]} vs reference {want!r}")
    for key in EXACT_KEYS:
        if int(summary[key]) != expected[key]:
            bad.append(f"{key}={summary[key]} vs reference {expected[key]}")
    return bad


def run_batch(fd, workload: Workload, experiments: list[Experiment], work_dir: str,
              references: dict | None) -> Batch:
    """Run one batch serially; failures are recorded on the experiments."""
    batch = Batch(experiments)
    start = time.perf_counter()
    for exp in experiments:
        t0 = time.perf_counter()
        try:
            artifacts = fd.run_experiment(exp.text)
            fd.emit_runlog(artifacts, os.path.join(work_dir, exp.label))
            violations = fd.verify_runlog(os.path.join(work_dir, exp.label))
        except Exception as exc:  # an op failure, not a benchmark crash
            exp.error = f"{type(exc).__name__}: {exc}"
            continue
        exp.seconds = time.perf_counter() - t0
        if violations:
            exp.error = f"verify: {violations[0]} ({len(violations)} violations)"

    pairs = []
    per_seed = len(workload.variants) + (workload.repeat is not None)
    for first in range(0, len(experiments), per_seed):
        group = experiments[first:first + per_seed]
        pairs += [(group[a], group[b]) for a, b in workload.identical]
        if workload.repeat is not None:
            pairs.append((group[workload.repeat], group[-1]))
    for a, b in pairs:
        if a.error is None and b.error is None:
            differing = fd.compare_runlogs(os.path.join(work_dir, a.label), os.path.join(work_dir, b.label))
            if differing:
                b.error = f"compare: {'+'.join(differing)} differ from {a.label}"

    for exp in experiments if references is not None else ():
        if exp.error is not None:
            continue
        try:
            bad = reference_mismatches(read_summary(os.path.join(work_dir, exp.label)),
                                       references[exp.reference])
        except (KeyError, ValueError) as exc:
            bad = [f"cannot check: {type(exc).__name__}: {exc}"]
        if bad:
            exp.error = "reference: " + "; ".join(bad)
    batch.wall = time.perf_counter() - start
    return batch


def setup_probe(payload: str) -> float:
    """Wall time of a fresh interpreter importing fdilsim and parsing configs."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, SRC],
        input=payload, text=True, check=True, capture_output=True, timeout=120,
    )
    return time.perf_counter() - t0


def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"experiment_s.p{q}", statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return None


def environment(fd) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {
            name: os.environ.get(name) for name in sorted(THREAD_ENV) + ["FDILSIM_THREADS"]
        },
        "fdilsim": os.path.relpath(os.path.dirname(fd.__file__), ROOT),
    }


def load_fdilsim():
    """Import fdilsim from this checkout's sources with threads pinned."""
    os.environ.update(THREAD_ENV)
    os.environ.pop("FDILSIM_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "fdilsim", "__init__.py")):
        sys.exit(f"benchmark: no fdilsim sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import fdilsim

    if not os.path.abspath(fdilsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported fdilsim from {fdilsim.__file__}, not {SRC}")
    return fdilsim


def load_references(name: str) -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[name]


def print_result(metrics: dict, attempted: int, failed: int, detail: dict,
                 extra: dict | None = None) -> None:
    """Print each metric with its unit, then the detail and result lines.

    ``extra`` metrics are printed but left out of the result line.
    """
    extra = {**(extra or {}), "ops_total": {"value": attempted, "unit": "count"},
             "ops_failed": {"value": failed, "unit": "count"}}
    for name, entry in {**metrics, **extra}.items():
        print(f"{name:<36} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(detail, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def failures(batches: list[Batch]) -> list[str]:
    return [f"{exp.label}: {exp.error}" for b in batches for exp in b.experiments if exp.error]


def run_timed(fd, name: str, workload: Workload, base_text: str, args, work_dir: str) -> None:
    references = load_references(name)
    payload = json.dumps(
        [e.text for e in batch_experiments(workload, base_text, batch_seeds(workload, base_text, args.seed, 0))]
    )
    setup = [setup_probe(payload) for _ in range(SETUP_PROBES_FIRST)]
    batches: list[Batch] = []
    start = time.perf_counter()
    while not batches or time.perf_counter() - start < args.seconds:
        index = len(batches)
        experiments = batch_experiments(workload, base_text, batch_seeds(workload, base_text, args.seed, index))
        batch_dir = os.path.join(work_dir, f"batch{index}")
        gc.collect()
        batches.append(run_batch(fd, workload, experiments, batch_dir, references if index == 0 else None))
        shutil.rmtree(batch_dir, ignore_errors=True)
        setup.append(setup_probe(payload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = [e.seconds for b in batches for e in b.experiments if e.seconds is not None]
    attempted = sum(len(b.experiments) for b in batches)
    failed = sum(1 for b in batches for e in b.experiments if e.error)
    metrics = {
        "experiment_s.p50": {"value": statistics.median(samples) if samples else float("nan"), "unit": "s"},
        "workload_s": {"value": statistics.median(b.wall for b in batches), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    detail = {
        "workload": name,
        "seed": args.seed,
        "experiments_timed": len(samples),
        "batches": len(batches),
        "experiments_per_batch": len(batches[0].experiments),
        "setup_probes": len(setup),
        "failures": failures(batches)[:20],
        "environment": environment(fd),
    }
    extra = {"experiment_s.samples": {"value": len(samples), "unit": "count"}}
    tail = tail_percentile(samples)
    if tail is not None:
        detail[tail[0]] = tail[1]
        extra[tail[0]] = {"value": tail[1], "unit": "s"}
    print_result(metrics, attempted, failed, detail, extra)


def run_traced(fd, name: str, workload: Workload, base_text: str, args, work_dir: str) -> None:
    import tracing

    references = load_references(name)
    seeds = batch_seeds(workload, base_text, args.seed, 0)
    tracer = tracing.Tracer()
    plain: list[Batch] = []
    traced: list[Batch] = []
    # Alternate untraced and traced repeats of batch 0, so that drift in the
    # machine's speed cancels out of the overhead ratio.
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        for batches, on in ((plain, False), (traced, True)):
            batch_dir = os.path.join(work_dir, f"{'traced' if on else 'untraced'}{len(batches)}")
            experiments = batch_experiments(workload, base_text, seeds)
            gc.collect()
            if on:
                tracer.clear()
                tracer.install()
            try:
                batch = run_batch(fd, workload, experiments, batch_dir, references)
            finally:
                tracer.uninstall()
            if on:
                batch.layers = tracer.reduce(batch.wall)
            batches.append(batch)
            if len(batches) > 1:  # the first pair is compared below
                shutil.rmtree(batch_dir, ignore_errors=True)

    # Tracing must not move a single output byte.
    for mine, theirs in zip(plain[0].experiments, traced[0].experiments):
        if mine.error is None and theirs.error is None:
            differing = fd.compare_runlogs(
                os.path.join(work_dir, "untraced0", mine.label),
                os.path.join(work_dir, "traced0", theirs.label),
            )
            if differing:
                theirs.error = f"traced output {'+'.join(differing)} differs from untraced"

    metrics, absent, unstable = tracing.combine([b.layers for b in traced])
    if unstable:
        exp = traced[0].experiments[0]
        exp.error = exp.error or f"counters changed between identical batches: {unstable}"
    metrics["trace.overhead_ratio"] = {
        "value": statistics.fmean(b.wall for b in traced) / statistics.fmean(b.wall for b in plain),
        "unit": "ratio",
    }
    batches = plain + traced
    attempted = sum(len(b.experiments) for b in batches)
    failed = sum(1 for b in batches for e in b.experiments if e.error)
    detail = {
        "workload": name,
        "seed": args.seed,
        "batch_pairs": len(traced),
        "experiments_per_batch": len(plain[0].experiments),
        "absent_metrics": absent,
        "failures": failures(batches)[:20],
        "environment": environment(fd),
    }
    if absent:
        print(f"benchmark: absent per-layer metrics: {', '.join(absent)}", file=sys.stderr)
    print_result(metrics, attempted, failed, detail)


def record_references(fd, work_dir: str) -> None:
    """Rewrite references.json from batch 0 of every workload."""
    refs = {}
    for name, workload in WORKLOADS.items():
        base_text = read_workload(workload)
        seeds = batch_seeds(workload, base_text, 0, 0)
        batch_dir = os.path.join(work_dir, name)
        batch = run_batch(fd, workload, batch_experiments(workload, base_text, seeds), batch_dir, None)
        if failures([batch]):
            sys.exit(f"benchmark: cannot record references: {failures([batch])}")
        refs[name] = {}
        for exp in batch.experiments:
            if exp.label != exp.reference:
                continue
            summary = read_summary(os.path.join(batch_dir, exp.label))
            entry = {key: float(summary[key]) for key in ACC_KEYS + CONST_KEYS}
            entry.update({key: int(summary[key]) for key in EXACT_KEYS})
            refs[name][exp.label] = entry
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_workload(workload: Workload) -> str:
    with open(os.path.join(WORKLOAD_DIR, workload.config), encoding="utf-8") as fh:
        return fh.read()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json at the default seeds and exit")
    args = parser.parse_args()
    if args.workload is None and not args.record_references:
        parser.error("--workload is required")
    fd = load_fdilsim()
    work_dir = os.path.join(WORK_ROOT, f"{args.workload or 'record'}-{os.getpid()}")
    try:
        if args.record_references:
            record_references(fd, work_dir)
        else:
            workload = WORKLOADS[args.workload]
            run = run_traced if args.trace else run_timed
            run(fd, args.workload, workload, read_workload(workload), args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


if __name__ == "__main__":
    main()
