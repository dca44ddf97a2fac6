import hashlib
import os
import subprocess
import sys
from pathlib import Path

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
