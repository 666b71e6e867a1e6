"""Measure the CE estimator's spread under independence, for checks.NULL_BAND_COEF.

    python3 bench/null_band.py [--rows 10000] [--seeds 20]

Ranks the select-100k table (at ``--rows`` rows) for each seed and
collects the scores of its zero-effect covariates: CE against time, and CE
against (time, status) minus CE(time, status).  Prints their bias and
standard deviation, and sqrt(n) * max(|bias| + 6 sd) over both, the
smallest coefficient for which a band of coefficient / sqrt(n) holds them.
"""

import argparse
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cesurv import varselect

import workloads


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rows", type=int, default=10_000)
    p.add_argument("--seeds", type=int, default=20)
    args = p.parse_args()
    scores = {"CE(time, x)": [], "CE(time, status, x) - CE(time, status)": []}
    for seed in range(args.seeds):
        ds = workloads.table_with_discrete(seed, args.rows)
        base = workloads.time_status_ce(ds)
        for key, with_status, offset in zip(scores, (False, True), (0.0, base)):
            ce = {e.name: e.ce for e in varselect.rank_variables(ds, with_status=with_status).entries}
            scores[key] += [ce[name] - offset for name in workloads.NULL_COVARIATES]
    need = 0.0
    for key, values in scores.items():
        bias, sd = statistics.mean(values), statistics.stdev(values)
        need = max(need, (abs(bias) + 6 * sd) * math.sqrt(args.rows))
        print(f"{key}: bias {bias:+.4f}, sd {sd:.4f} over {len(values)} scores at {args.rows} rows")
    print(f"sqrt(n) * (|bias| + 6 sd) = {need:.2f}")


if __name__ == "__main__":
    main()
