import hashlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_every_corpus_entry_parses():
    # Builds each entry's config text without running it.
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import table_digests
    finally:
        sys.path.remove(str(ROOT / "tools"))
    names = [table_digests.entry_name(base, overrides) for base, overrides in table_digests.CORPUS]
    assert len(set(names)) == len(names) >= 39
    for base, overrides in table_digests.CORPUS:
        text = table_digests.entry_text(base, overrides)
        parse_config_text(text)
        for override in overrides:
            name, value = override.split("=", 1)
            assert f"\n{name.split('.')[1]} = {value}\n" in text
