"""Digest every file the command line and library runs write, to show that a refactor changed no output.

Usage: python tools/output_digests.py OUTDIR

Runs ``cesurv.cli.main`` from the ``src`` directory of this script's
checkout, with OUTDIR as the working directory:

- ``reproduce-paper --seed 0`` to ``--seed 9``;
- ``simulate --n 3000 --seed 0``, which writes ``simulate/data.csv``: a
  numeric file of three loader blocks whose rows are all kept;
- on a 300-row simulation (``--sim-config``), ``--bundled cancer``,
  ``--bundled veteran``, ``--data simulate/data.csv`` and, with
  ``--event-value dead``, ``--data text/data.csv`` with its default
  covariates and with ``--covariates x1,x2,grade,site``:
  ``run-experiment --top 4 --plot-data`` with and without
  ``--with-status``, ``select --top 4 --plot-data`` with and without
  ``--with-status``, ``fit``, and ``evaluate`` of that fit.

``text/data.csv`` is written by this script (``write_text_table``): 2000
records whose status is ``dead`` or ``alive``, whose ``x1`` is ``NA`` in
every 37th record and space-padded elsewhere, and whose ``grade`` is a
number for the first 1500 records (more than one loader block) and text
after them, beside a text ``site``.  Its loads take the paths no other
source reaches: a number block with missing tokens, a number column that
falls back to being left out, one read again as text in a second pass,
and a text status.

In the library, ``run_experiment(simulate(SimConfig(seed=0,
n_subjects=n)), top_m=3, include_status_ranking=True)`` writes
``library/run-experiment-n{n}.json`` for n = 500, 3000 and 60,000: an
in-memory dataset, which no command passes, whose kNN searches run in the
calling thread, side by side in the job pool and, at 60,000 rows on more
than one CPU, over the block pool, which no command above reaches.

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
from cesurv.experiment import run_experiment  # noqa: E402
from cesurv.survsim import SimConfig, simulate  # noqa: E402

LIBRARY_ROWS = (500, 3000, 60_000)

SOURCES = {
    "simulation": ["--sim-config", "sim_config.json"],
    "cancer": ["--bundled", "cancer"],
    "veteran": ["--bundled", "veteran"],
    "data": ["--data", "simulate/data.csv"],
    "text": ["--data", "text/data.csv", "--event-value", "dead"],
    "text-covariates": ["--data", "text/data.csv", "--event-value", "dead", "--covariates", "x1,x2,grade,site"],
}


def write_text_table(path) -> None:
    """The 2000-record ``--data`` file of text values described above, from a seed-1 simulation."""
    ds = simulate(SimConfig(seed=1, n_subjects=2000))
    lines = ["time,status,x1,x2,x3,x4,grade,site"]
    for i, (x, t, s) in enumerate(zip(ds.covariates.tolist(), ds.time.tolist(), ds.status.tolist())):
        level = (x[4] > 0.0) + (x[4] > 1.0)
        grade = str(level + 1) if i < 1500 else ("low", "mid", "high")[level]
        x1 = "NA" if i % 37 == 0 else f" {x[0]!r} "
        lines.append(f"{t!r},{('alive', 'dead')[s]},{x1},{x[1]!r},{x[2]!r},{x[3]!r},{grade},site{i % 3}")
    Path(path).write_text("\n".join(lines) + "\n")


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
    for sub in ("reproduce-paper", "simulate", "text", "run-experiment", "select", "fit", "evaluate", "library"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)
    (outdir / "sim_config.json").write_text(json.dumps({"n_subjects": 300, "seed": 0}) + "\n")
    write_text_table(outdir / "text" / "data.csv")
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for log, argv in commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            Path(f"{log}.log").write_text(f"{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}\n")
        for n in LIBRARY_ROWS:
            report = run_experiment(simulate(SimConfig(seed=0, n_subjects=n)), top_m=3, include_status_ranking=True)
            Path(f"library/run-experiment-n{n}.json").write_text(report.to_json())
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
