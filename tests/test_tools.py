import re
import subprocess
import sys
from pathlib import Path

import cesurv

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def test_output_digests_lists_every_normalized_output(tmp_path):
    out = tmp_path / "out"
    listing = subprocess.run([sys.executable, str(TOOL), str(out)], capture_output=True, text=True,
                             check=True).stdout.splitlines()
    paths = [line.split("  ", 1)[1] for line in listing]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in listing)
    assert paths == sorted(paths)
    assert set(paths) == {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    # 10 reproduce-paper runs of 9 files and a log each, a simulate run (a
    # file and a log), 4 sources of 2 run-experiment runs (3 files), 2
    # selects (2 files), a fit and an evaluate (1 file), each with a log,
    # and the simulation settings.
    assert len(paths) == 10 * 10 + 2 + 4 * (2 * 4 + 2 * 3 + 2 * 2) + 1
    package_dir = str(Path(cesurv.__file__).resolve().parent)
    for p in out.rglob("*"):
        if p.is_file():
            text = p.read_text()
            assert "created_at" not in text and package_dir not in text, p
            if p.suffix == ".log":
                assert text.endswith("--- exit 0\n"), p
