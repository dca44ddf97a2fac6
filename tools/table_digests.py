"""Print the SHA-256 of the four output tables of ``fdilsim run`` for each config.

Usage, from the repository root::

    PYTHONPATH=src python tools/table_digests.py               # the built-in corpus
    PYTHONPATH=src python tools/table_digests.py CONFIG [CONFIG ...]

Each config goes through ``fdilsim run`` in process, into a temporary
directory that is removed afterwards.  One line is printed per table,
``<sha256>  <config>:<table>``, or ``exit <code>  <config>`` for a run that
fails (its message goes to stderr).  The output names no temporary path, so
two checkouts give equal text exactly when their tables are byte-identical:
point ``PYTHONPATH`` at each checkout's ``src`` in turn and diff the output.

Without arguments the tool runs ``CORPUS``: pairs of a base config (a path
from the repository root) and ``section.key=value`` overrides.  An entry is
named by its base and overrides, and an entry without overrides runs its
base file as given.

The corpus listing is checked in as ``tools/table_digests.expected``, under
a header that fingerprints the environment it was made in: Python, numpy,
the BLAS library and its version, and the CPU model and SIMD flags.  Two
more forms use it::

    PYTHONPATH=src python tools/table_digests.py --check   # rerun, name what differs
    PYTHONPATH=src python tools/table_digests.py --write   # rewrite the listing

``--check`` prints ``differs: <entry>:<table>`` (or the entry's changed
exit line) for each difference and exits 2 if there is one, 0 if there is
none.  In an environment whose fingerprint differs from the header the
listing cannot be expected to hold, so it prints the differing fingerprint
lines and exits 3 without running.  ``--write`` is for a change that moves
output bytes on purpose, and that change says so in CHANGES.md.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

from fdilsim.cli import main as fdilsim_main
from fdilsim.runio import OUTPUT_FILES

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().with_suffix(".expected")

DEFAULT = "profiles/default.ini"
TANH = ("model.kind=mlp1", "model.hidden_dim=8")
RELU = TANH + ("model.activation=relu",)
SEEDS = (1, 2, 3, 25, 77, 1234)


def shape(num_classes: int, input_dim: int) -> tuple[str, ...]:
    """Overrides for another class count and input width, with matching base means.

    Class c's mean is 1.5 c on the first coordinate (so the rows differ) and
    (c * j) mod 3 - 1 on coordinate j >= 1.
    """
    rows = (
        " ".join([repr(1.5 * c)] + [str((c * j) % 3 - 1) for j in range(1, input_dim)])
        for c in range(num_classes)
    )
    return (
        f"model.input_dim={input_dim}",
        f"model.num_classes={num_classes}",
        f"data.base_means={'; '.join(rows)}",
    )

CORPUS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("benchmarks/workloads/desk-sweep.ini", ()),
    ("benchmarks/workloads/wide.ini", ()),
    ("benchmarks/workloads/protocol-long.ini", ()),
    (DEFAULT, ()),
    ("profiles/wide.ini", ()),
    # Every model kind over master seeds.
    *(
        (DEFAULT, model + (f"federation.master_seed={seed}",))
        for model in ((), TANH, RELU)
        for seed in SEEDS
    ),
    # The desk sweep's algorithms over seeds, and the lambda = 0 reductions.
    *(
        (DEFAULT, (f"federation.algorithm={algorithm}", f"federation.master_seed={seed}"))
        for algorithm in ("fedavg", "special_c")
        for seed in (1, 2, 3)
    ),
    (DEFAULT, ("federation.algorithm=fedavg", "federation.prox_lambda=0.0")),
    (DEFAULT, ("federation.prox_lambda=0.0",)),
    (DEFAULT, ("federation.algorithm=special_c",)),
    (DEFAULT, RELU + ("federation.algorithm=special_c",)),
    # Full participation (N = M).
    (DEFAULT, ("federation.participants_per_round=8",)),
    (DEFAULT, TANH + ("federation.participants_per_round=8",)),
    # Local batches below, around and far above the shard sizes.
    *((DEFAULT, (f"federation.batch_size={b}",)) for b in (1, 8, 64, 480, 1000000)),
    (DEFAULT, RELU + ("federation.batch_size=1000000",)),
    (DEFAULT, ("model.kind=mlp1", "model.hidden_dim=16", "model.activation=relu")),
    # More probe draws.
    (DEFAULT, ("probe.minibatch_draws=12",)),
    (DEFAULT, RELU + ("probe.minibatch_draws=9",)),
    (DEFAULT, TANH + ("probe.minibatch_draws=8",)),
    # One-row shards, whole-shard local batches and one-row probe batches.
    (
        DEFAULT,
        RELU + (
            "partition.min_samples_per_client=1",
            "partition.dirichlet_alpha=0.05",
            "federation.batch_size=100",
            "probe.batch_size=1",
        ),
    ),
    # A single task.
    (DEFAULT, ("data.num_tasks=1",)),
    (DEFAULT, RELU + ("data.num_tasks=1",)),
    # Overflowing settings: inf bounds, diverged runs and NaN probe gradients.
    (DEFAULT, ("federation.prox_lambda=1e300",)),
    (DEFAULT, ("federation.local_lr=1e300",)),
    (DEFAULT, ("probe.probe_scale=5e307",)),
    (DEFAULT, RELU + ("probe.probe_scale=1e306",)),
    (DEFAULT, TANH + ("probe.probe_scale=1e200",)),
    # Wider models.
    (DEFAULT, ("model.kind=mlp1", "model.hidden_dim=32")),
    ("profiles/wide.ini", ("model.activation=relu",)),
    # Class counts on both sides of the kernel's column-wise reductions (C < 8),
    # and input widths other than 2.
    *(
        (DEFAULT, model + shape(num_classes, input_dim))
        for model in ((), TANH, RELU)
        for num_classes in (2, 7, 10)
        for input_dim in (1, 5)
        if model != RELU or input_dim == 5
    ),
    # An underflowing setting: lambda ** 2 is 0, so the caps divided by it are inf.
    (DEFAULT, ("federation.prox_lambda=1e-200",)),
    # lambda ** 2 is subnormal: the caps divided by it become inf without raising.
    (DEFAULT, ("federation.prox_lambda=1e-160",)),
    # Longer task sequences: more checkpoints and task pairs for the estimator.
    (DEFAULT, ("data.num_tasks=8",)),
    (DEFAULT, TANH + ("data.num_tasks=8", "federation.master_seed=3")),
    # Underflowing local rates: gamma_l ** 2 is 0, so the drift caps round to 0;
    # at 5e-324 the stationarity cap's divisor is 0 too.
    (DEFAULT, ("federation.local_lr=1e-300",)),
    (DEFAULT, ("federation.local_lr=5e-324",)),
    # Local steps that cannot move a float: the anchor pulls keep the drift at
    # exactly 0 under a small but representable drift cap.
    (DEFAULT, ("federation.local_lr=1e-20",)),
    (DEFAULT, ("federation.local_lr=1e-20", "federation.algorithm=special_c")),
    # Shards of up to 889 rows, whose full-shard stacks hold two points.
    (DEFAULT, ("data.train_samples_per_task=2400",)),
    (DEFAULT, ("data.train_samples_per_task=2400",) + TANH),
    # 2 * lambda overflows in the client-side proximal map, whose pull is then
    # the anchor.
    (DEFAULT, ("federation.algorithm=special_c", "federation.prox_lambda=9e307")),
    # Per-round accuracies, and a joint-objective cadence that does not divide
    # T, so the last round of a task is not tracked.
    (DEFAULT, ("io.eval_every=7", "io.joint_grad_every=3")),
    (DEFAULT, ("data.num_tasks=2", "io.joint_grad_every=3")),
    (DEFAULT, TANH + ("io.eval_every=4", "io.joint_grad_every=3")),
    # 2 * lambda is finite and near the top of the range in the proximal map.
    (
        DEFAULT,
        ("federation.algorithm=special_c", "federation.prox_lambda=8.9e307", "federation.local_lr=0.2"),
    ),
    # Every gamma draw of a class underflows to 0: the class goes to one client.
    (DEFAULT, ("partition.dirichlet_alpha=1e-300",)),
)


def entry_name(base: str, overrides: tuple[str, ...]) -> str:
    """How a corpus entry is named in the output."""
    return " ".join((base,) + overrides)


def entry_text(base: str, overrides: tuple[str, ...]) -> str:
    """The config text of a corpus entry: its base with the overrides set."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string((ROOT / base).read_text(encoding="utf-8"))
    for override in overrides:
        name, value = override.split("=", 1)
        section, key = name.split(".")
        parser[section][key] = value
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def table_digests(config: str, name: str | None = None) -> list[str]:
    """The digest lines of one config file, named ``name`` (default: its path)."""
    name = config if name is None else name
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            code = fdilsim_main(["run", config, "--out", str(out)])
        if code != 0:
            return [f"exit {code}  {name}"]
        return [
            f"{hashlib.sha256((out / table).read_bytes()).hexdigest()}  {name}:{table}"
            for table in OUTPUT_FILES
        ]


def corpus_digests(base: str, overrides: tuple[str, ...]) -> list[str]:
    """The digest lines of one corpus entry."""
    name = entry_name(base, overrides)
    if not overrides:
        return table_digests(str(ROOT / base), name)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.ini"
        config.write_text(entry_text(base, overrides), encoding="utf-8")
        return table_digests(str(config), name)


def fingerprint() -> list[str]:
    """The environment lines of the listing's header, without their ``# ``."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    model, flags = platform.processor() or "unknown", []
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                model = value.strip()
            elif key.strip() == "flags":
                simd = ("sse", "ssse", "avx", "fma", "amx")
                flags = sorted(f for f in value.split() if f.startswith(simd))
                break
    return [
        f"python {platform.python_version()}",
        f"numpy {np.__version__}",
        f"blas {blas}",
        f"cpu {model}",
        f"cpu-simd {' '.join(flags) or 'unknown'}",
    ]


def read_expected() -> tuple[list[str], dict[str, list[str]]]:
    """The checked-in header lines and each entry's expected digest lines."""
    header, entries = [], {}
    for line in EXPECTED.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            header.append(line[2:])
            continue
        name = line.split("  ", 1)[1]
        if not line.startswith("exit "):
            name = name.rsplit(":", 1)[0]
        entries.setdefault(name, []).append(line)
    return header, entries


def fingerprint_difference() -> list[str]:
    """``recorded -> here`` for each fingerprint line that differs from the listing's header."""
    recorded, here = read_expected()[0][1:], fingerprint()
    if len(recorded) != len(here):
        return [f"{recorded!r} -> {here!r}"]
    return [f"{a} -> {b}" for a, b in zip(recorded, here) if a != b]


def check(entries=CORPUS) -> list[str]:
    """Rerun ``entries`` and name each table (or exit line) that differs from the listing."""
    expected = read_expected()[1]
    differences = []
    for base, overrides in entries:
        name = entry_name(base, overrides)
        lines, want = corpus_digests(base, overrides), expected.get(name)
        if want is None:
            differences.append(f"missing from the listing: {name}")
        elif lines != want:
            tables = [line.split("  ", 1)[1] for line in lines if line not in want]
            differences += [f"differs: {table}" for table in tables] or [f"differs: {name}"]
    return differences


def main(argv: list[str]) -> int:
    if argv in (["--check"], ["--write"]):
        mismatch = fingerprint_difference() if argv == ["--check"] else []
        if mismatch:
            print("environment differs from the listing's:", *mismatch, sep="\n  ", file=sys.stderr)
            return 3
        if argv == ["--write"]:
            lines = [line for base, overrides in CORPUS for line in corpus_digests(base, overrides)]
            header = ["fdilsim table digests; regenerate with tools/table_digests.py --write"]
            EXPECTED.write_text(
                "".join(f"# {line}\n" for line in header + fingerprint()) + "\n".join(lines) + "\n",
                encoding="utf-8",
            )
            return 0
        differences = check()
        for line in differences:
            print(line, flush=True)
        return 2 if differences else 0
    if argv and argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 1
    lines = (
        (line for config in argv for line in table_digests(config))
        if argv
        else (line for base, overrides in CORPUS for line in corpus_digests(base, overrides))
    )
    for line in lines:
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
