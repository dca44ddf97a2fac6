import ast
import dataclasses
import hashlib
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fdilsim
from fdilsim.config import parse_config_text
from fdilsim.runio import OUTPUT_FILES

ROOT = Path(__file__).resolve().parent.parent


def test_table_digests_match_the_files_of_fdilsim_run(tmp_path):
    profile = ROOT / "profiles" / "default.ini"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "run"
    subprocess.run(
        [sys.executable, "-m", "fdilsim", "run", str(profile), "--out", str(out)],
        check=True, capture_output=True, env=env,
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "table_digests.py"), str(profile)],
        check=True, capture_output=True, text=True, env=env,
    )
    expected = [
        f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {profile}:{name}"
        for name in OUTPUT_FILES
    ]
    assert proc.stdout.splitlines() == expected
    assert len(OUTPUT_FILES) == 4


def load_table_digests():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import table_digests
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return table_digests


def test_every_corpus_entry_parses():
    # Builds each entry's config text without running it.
    table_digests = load_table_digests()
    names = [table_digests.entry_name(base, overrides) for base, overrides in table_digests.CORPUS]
    assert len(set(names)) == len(names) >= 39
    for base, overrides in table_digests.CORPUS:
        text = table_digests.entry_text(base, overrides)
        parse_config_text(text)
        for override in overrides:
            name, value = override.split("=", 1)
            assert f"\n{name.split('.')[1]} = {value}\n" in text


# The tier-1 share of the byte-contract gate: each model kind, each
# algorithm, lambda = 0, N = M, b = 1 and b = 1000000, one-row shards, the
# overflow entries, lambdas whose square underflows or is subnormal, an eight-task
# sequence, local rates whose square underflows, protocol-long, whose tasks plan
# their rounds in several chunks, shards of up to 889 rows, whose
# full-shard stacks hold two points, client-side lambdas where 2 lambda or
# 2 lambda anchor overflows, per-round accuracies with a joint-objective
# cadence that does not divide T, a Dirichlet alpha whose gamma draws all
# underflow, and every round tracked, so each task's end model is both a
# tracked round and a probe point of the full-shard stage.  The tool checks
# the whole corpus.
GATE_SUBSET = (
    "benchmarks/workloads/protocol-long.ini",
    "profiles/default.ini",
    "profiles/default.ini model.kind=mlp1 model.hidden_dim=8 federation.master_seed=1",
    "profiles/default.ini model.kind=mlp1 model.hidden_dim=8 model.activation=relu "
    "federation.master_seed=1",
    "profiles/default.ini federation.algorithm=fedavg federation.master_seed=1",
    "profiles/default.ini federation.algorithm=special_c federation.master_seed=1",
    "profiles/default.ini federation.algorithm=fedavg federation.prox_lambda=0.0",
    "profiles/default.ini federation.prox_lambda=0.0",
    "profiles/default.ini federation.participants_per_round=8",
    "profiles/default.ini federation.batch_size=1",
    "profiles/default.ini federation.batch_size=1000000",
    "profiles/default.ini model.kind=mlp1 model.hidden_dim=8 model.activation=relu "
    "partition.min_samples_per_client=1 partition.dirichlet_alpha=0.05 "
    "federation.batch_size=100 probe.batch_size=1",
    "profiles/default.ini federation.prox_lambda=1e300",
    "profiles/default.ini federation.prox_lambda=1e-200",
    "profiles/default.ini federation.local_lr=1e300",
    "profiles/default.ini probe.probe_scale=5e307",
    "profiles/default.ini federation.prox_lambda=1e-160",
    "profiles/default.ini data.num_tasks=8",
    "profiles/default.ini federation.local_lr=1e-300",
    "profiles/default.ini federation.local_lr=5e-324",
    "profiles/default.ini federation.local_lr=1e-20",
    "profiles/default.ini federation.local_lr=1e-20 federation.algorithm=special_c",
    "profiles/default.ini data.train_samples_per_task=2400",
    "profiles/default.ini data.train_samples_per_task=2400 model.kind=mlp1 model.hidden_dim=8",
    "profiles/default.ini federation.algorithm=special_c federation.prox_lambda=9e307",
    "profiles/default.ini io.eval_every=7 io.joint_grad_every=3",
    "profiles/default.ini data.num_tasks=2 io.joint_grad_every=3",
    "profiles/default.ini model.kind=mlp1 model.hidden_dim=8 io.eval_every=4 io.joint_grad_every=3",
    "profiles/default.ini federation.algorithm=special_c federation.prox_lambda=8.9e307 "
    "federation.local_lr=0.2",
    "profiles/default.ini partition.dirichlet_alpha=1e-300",
    "profiles/default.ini io.joint_grad_every=1",
)


def test_corpus_subset_matches_the_checked_in_listing():
    table_digests = load_table_digests()
    mismatch = table_digests.fingerprint_difference()
    if mismatch:
        pytest.skip("environment differs from the listing's: " + "; ".join(mismatch))
    entries = [e for e in table_digests.CORPUS if table_digests.entry_name(*e) in GATE_SUBSET]
    assert len(entries) == len(GATE_SUBSET)
    assert table_digests.check(entries) == []


def test_check_names_each_differing_table(tmp_path, monkeypatch):
    table_digests = load_table_digests()
    lines = table_digests.EXPECTED.read_text(encoding="utf-8").splitlines()
    name = "profiles/default.ini"
    at = lines.index(next(line for line in lines if line.endswith(f"  {name}:metrics_summary.csv")))
    lines[at] = "0" * 64 + lines[at][64:]
    tampered = tmp_path / "listing.expected"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(table_digests, "EXPECTED", tampered)
    entry = next(e for e in table_digests.CORPUS if table_digests.entry_name(*e) == name)
    assert table_digests.check([entry]) == [f"differs: {name}:metrics_summary.csv"]
    assert table_digests.check([("profiles/default.ini", ("data.num_tasks=2",))]) == [
        "missing from the listing: profiles/default.ini data.num_tasks=2"
    ]


def load_code_lines():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import code_lines
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return code_lines


CODE_LINES_FIXTURE = '''"""Module docstring
over two lines."""

# A comment line.
import os  # a trailing comment


@property
def f(x):
    """Function docstring."""

    text = """a string
that is not a docstring"""
    return x


class C:
    """Class docstring
    over two lines."""

    y = 1
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    code_lines = load_code_lines()
    # import, decorator, def, the two lines of the string, return, class, y.
    assert code_lines.code_lines(CODE_LINES_FIXTURE) == 8
    assert code_lines.code_lines("x = 1\n\n\n# only a comment\n") == 1
    path = tmp_path / "fixture.py"
    path.write_text(CODE_LINES_FIXTURE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(path)],
        check=True, capture_output=True, text=True,
    )
    assert proc.stdout.splitlines() == [f"8  {path}", "8  total"]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses; names listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_src_has_no_unused_imports():
    assert unused_imports("import os\nimport sys as system\nfrom a import b, c\nprint(c, os.sep)\n") == [
        "system (line 2)", "b (line 3)",
    ]
    assert unused_imports("from __future__ import annotations\nfrom a import b\n__all__ = ['b']\n") == []
    for path in sorted((ROOT / "src" / "fdilsim").glob("*.py")):
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def wide_lines(source: str, limit: int = 119) -> list[str]:
    """The lines of ``source`` wider than ``limit`` characters, as ``line <n> (<width>)``."""
    return [f"line {n} ({len(line)})" for n, line in enumerate(source.splitlines(), 1) if len(line) > limit]


def test_src_has_no_line_wider_than_119_characters():
    assert wide_lines("x = 1\n" + "y" * 120 + "\n" + "z" * 119 + "\n# é" + "w" * 117 + "\n") == [
        "line 2 (120)", "line 4 (120)",
    ]
    for path in sorted((ROOT / "src" / "fdilsim").glob("*.py")):
        assert wide_lines(path.read_text(encoding="utf-8")) == [], path.name


def test_every_name_in_fdilsim_all_resolves_once():
    # A stale export, such as a removed class, would otherwise fail only on
    # ``from fdilsim import *``.
    names = fdilsim.__all__
    assert [name for name in set(names) if names.count(name) > 1] == []
    assert [name for name in names if not hasattr(fdilsim, name)] == []


# --- Cross-references: every name a docstring role or README.md points at exists.

MODULES = {
    info.name: importlib.import_module(f"fdilsim.{info.name}")
    for info in pkgutil.iter_modules(fdilsim.__path__)
    if info.name != "__main__"
}
CLASSES = {
    name: obj
    for module in MODULES.values()
    for name, obj in vars(module).items()
    if isinstance(obj, type) and obj.__module__ == module.__name__
}
ROLE = re.compile(r":(?:func|class|meth|data):`~?([\w.]+)`")
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")
FILE_SUFFIXES = {"csv", "expected", "ini", "json", "md", "py", "toml", "txt"}


def _has_path(obj, names: list[str]) -> bool:
    """Whether ``obj.<names...>`` exists; a dataclass field counts as an attribute."""
    for i, name in enumerate(names):
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
            return i == len(names) - 1
        else:
            return False
    return True


def resolves(dotted: str, home=None) -> bool:
    """Whether ``dotted`` names an object: from ``fdilsim``, a ``fdilsim`` module, ``home``'s namespace or a class."""
    first, *rest = dotted.split(".")
    if first == "fdilsim":
        return _has_path(fdilsim, rest)
    if first in MODULES:
        return _has_path(MODULES[first], rest)
    if home is not None and hasattr(home, first):
        return _has_path(getattr(home, first), rest)
    return first in CLASSES and _has_path(CLASSES[first], rest)


def test_resolves_catches_stale_names():
    assert not resolves("server._joint_pass")
    assert not resolves("generate_sequence", MODULES["models"])
    assert resolves("generate_sequence", MODULES["datagen"])
    assert resolves("RunLog.rounds") and resolves("fdilsim.client.TaskPool.draw")
    assert not resolves("Rounds.no_such_column")


def test_every_docstring_role_in_src_resolves():
    # An unqualified name resolves against the docstring's own module.
    stale = []
    for name, module in MODULES.items():
        tree = ast.parse((ROOT / "src" / "fdilsim" / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                text = ast.get_docstring(node, clean=False) or ""
                stale += [f"{name}: {target}" for target in ROLE.findall(text) if not resolves(target, module)]
    assert stale == []


def test_the_readme_states_the_corpus_size():
    # README's account of tools/table_digests.py counts its built-in corpus.
    stated = re.findall(r"built-in corpus of (\d+) configs", (ROOT / "README.md").read_text(encoding="utf-8"))
    assert stated == [str(len(load_table_digests().CORPUS))]


def test_every_dotted_program_name_in_the_readme_resolves():
    # Only spans that start with a fdilsim module or class are program names;
    # file names (``config.ini``) and config keys (``io.eval_every``) are not.
    spans = DOTTED.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    names = [
        span for span in spans
        if span.split(".")[-1] not in FILE_SUFFIXES and span.split(".")[0] in {"fdilsim", *MODULES, *CLASSES}
    ]
    assert len(names) >= 10
    assert [name for name in names if not resolves(name)] == []
