"""Benchmark of cesurv, one workload per run.

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, warms up, runs ops one after
another for ``--seconds``, checks the outputs and prints, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics, from spans around cesurv's public functions, with
``--trace 1``.  See bench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("paper", "pipeline-10k", "select-100k")
MIN_OPS = 2  # the op-to-op byte comparison needs two
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _limit_threads():
    """Cap BLAS and OpenMP pools at the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), ncpu) if current.isdigit() and int(current) > 0 else ncpu)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _timed_loop(wl, args, tracer):
    """Run ops for ``--seconds`` of wall time, at least MIN_OPS; check each output.

    Returns the wall and CPU times of the completed ops, the number of
    failed ops and the wall time of all ops, failed ones included.
    """
    import checks

    durations, cpu, failed, busy, reference = [], [], 0, 0.0, None
    start = time.perf_counter()
    while len(durations) + failed < MIN_OPS or time.perf_counter() - start < args.seconds:
        k = len(durations) + failed
        if tracer:
            tracer.op = k
        wall, proc = time.perf_counter(), time.process_time()
        try:
            out = wl.op(k)
        except Exception:  # an op that raises is counted as failed
            traceback.print_exc()
            failed += 1
            continue
        finally:
            wall, proc = time.perf_counter() - wall, time.process_time() - proc
            busy += wall
            if tracer:
                tracer.op = None
        durations.append(wall)
        cpu.append(proc)
        if reference is None:
            wl.verify(out)
            reference = wl.body(out)
        else:
            checks.check_same_bodies(reference, wl.body(out))
        del out
    return durations, cpu, failed, busy


def _metrics(spec, values):
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None):
    args = _parse(argv)
    _limit_threads()
    if not (SRC / "cesurv" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} has no cesurv sources (src/cesurv) or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir)


def _run(args, workdir):
    import checks
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - _T0

    import cesurv
    if Path(cesurv.__file__).resolve().parent != SRC / "cesurv":
        print(f"error: imported cesurv from {cesurv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl.warm_up()
    try:
        durations, cpu, failed, busy = _timed_loop(wl, args, tracer)
    except checks.CheckError as e:
        print(f"CHECK FAILED [{args.workload} seed {args.seed}]: {e}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not durations:
        print("error: every op failed", file=sys.stderr)
        return 1

    samples = len(durations)
    op_s = statistics.median(durations)
    if tracer:
        values = tracer.layer_totals(samples)
        values["process.cpu_s"] = statistics.median(cpu)
        values["traced.op_s"] = op_s
        metrics = _metrics(bench["per_layer"], values)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", _T0)
        for layer, name in tracer.missing:
            print(f"layer {layer}: not called ({name} not found)")
    else:
        metrics = _metrics(bench["end_to_end"], {
            "setup_s": setup_s,
            "op_s": op_s,
            "rows_per_s": wl.rows_per_op * samples / busy,
            "peak_rss_mb": peak_rss_mb,
        })

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"samples {samples}, attempted {samples + failed}, failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    result = {"correct": True, "attempted": samples + failed, "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
