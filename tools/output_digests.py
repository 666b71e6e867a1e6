"""Digest every file the command line writes, to show that a refactor changed no output.

Usage: python tools/output_digests.py OUTDIR

Runs ``cesurv.cli.main`` from the ``src`` directory of this script's
checkout, with OUTDIR as the working directory:

- ``reproduce-paper --seed 0`` to ``--seed 9``;
- ``simulate --n 3000 --seed 0``, which writes ``simulate/data.csv``: a
  numeric file of three loader blocks whose rows are all kept;
- on a 300-row simulation (``--sim-config``), ``--bundled cancer``,
  ``--bundled veteran`` and ``--data simulate/data.csv``:
  ``run-experiment --top 4 --plot-data`` with and without
  ``--with-status``, ``select --top 4 --plot-data`` with and without
  ``--with-status``, ``fit``, and ``evaluate`` of that fit.

Each command's stdout, stderr and exit code go to a ``.log`` file beside
its outputs.  Then ``created_at`` is dropped from every JSON document and
the checkout's package directory is replaced by ``<cesurv>`` in every file,
so that OUTDIR holds only what the code computes.  One ``sha256  path``
line per file under OUTDIR is printed, sorted by path.  Run the script in
two checkouts (copy it into one that lacks it) and diff the listings;
``diff -r`` of the two OUTDIRs shows any file that differs.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cesurv  # noqa: E402
from cesurv.cli import main  # noqa: E402

SOURCES = {
    "simulation": ["--sim-config", "sim_config.json"],
    "cancer": ["--bundled", "cancer"],
    "veteran": ["--bundled", "veteran"],
    "data": ["--data", "simulate/data.csv"],
}


def commands():
    """(log name, argv) of every run, in order; ``evaluate`` reads the model ``fit`` wrote."""
    for seed in range(10):
        yield f"reproduce-paper/seed{seed}", ["reproduce-paper", "--seed", str(seed),
                                              "--out", f"reproduce-paper/seed{seed}"]
    yield "simulate/data", ["simulate", "--n", "3000", "--seed", "0", "--out", "simulate/data.csv"]
    for name, source in SOURCES.items():
        for status, flags in (("", []), ("-with-status", ["--with-status"])):
            out = f"run-experiment/{name}{status}"
            yield out, ["run-experiment", *source, *flags, "--top", "4",
                        "--out", f"{out}.json", "--plot-data", out]
            out = f"select/{name}{status}"
            yield out, ["select", *source, *flags, "--top", "4",
                        "--out", f"{out}.json", "--plot-data", f"{out}.csv"]
        yield f"fit/{name}", ["fit", *source, "--out", f"fit/{name}.json"]
        yield f"evaluate/{name}", ["evaluate", *source, "--model", f"fit/{name}.json",
                                   "--out", f"evaluate/{name}.json"]


def run_all(outdir: Path) -> None:
    for sub in ("reproduce-paper", "simulate", "run-experiment", "select", "fit", "evaluate"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)
    (outdir / "sim_config.json").write_text(json.dumps({"n_subjects": 300, "seed": 0}) + "\n")
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for log, argv in commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            Path(f"{log}.log").write_text(f"{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}\n")
    finally:
        os.chdir(cwd)


def normalize(path: Path, package_dir: bytes) -> None:
    """Drop ``created_at`` from a JSON document and the package directory from any file."""
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        if isinstance(doc, dict) and doc.pop("created_at", None) is not None:
            data = (json.dumps(doc, indent=2) + "\n").encode()
    path.write_bytes(data.replace(package_dir, b"<cesurv>"))


def digest_outputs(outdir: Path) -> None:
    run_all(outdir)
    package_dir = str(Path(cesurv.__file__).resolve().parent).encode()
    for name in sorted(p.relative_to(outdir).as_posix() for p in outdir.rglob("*") if p.is_file()):
        normalize(outdir / name, package_dir)
        print(f"{hashlib.sha256((outdir / name).read_bytes()).hexdigest()}  {name}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    digest_outputs(Path(sys.argv[1]))
