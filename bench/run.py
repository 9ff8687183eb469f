"""gainlab benchmark: batch verification throughput, pass shares and layer costs.

Usage (from the repository root):

    python3 bench/run.py --workload default_4x3 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the traced
pass and prints the per-layer metrics. ``--held-out`` draws the inputs from a
seed stream kept apart from the plain ``--seed`` values, for re-checking a
claim on data not seen while a change was written. The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 when every correctness check passed, 1 when one failed and 2 when
the library cannot be found. See README.md for the metrics and workloads.
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported; pool workers and the
# set-up probes inherit the environment.
PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# Held-out inputs come from mix_seed(HELD_OUT_SALT, seed) instead of seed.
HELD_OUT_SALT = 0x5EED_0FF5E7
WORKLOAD_NAMES = ("default_4x3", "heavy_8x8", "illcond_4x3", "gradcheck")
UNITS = {"wall_s": "s", "trials_per_s": "1/s", "passed_share": "ratio",
         "converged_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw inputs from the held-out seed stream")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _setup_seconds(workload, seed: int):
    """Median over fresh interpreters of import + config + problem set-up.

    Returns (raw median, median at reference speed).
    """
    import machine
    from gainlab.experiment import mix_seed
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
            str(workload.state_dim), str(workload.obs_dim), repr(workload.cond),
            str(workload.batch), str(mix_seed(seed, 0))]
    if workload.gradcheck:
        argv.append("gradcheck")
    before = machine.reference_seconds()
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    raw = statistics.median(times)
    return raw, machine.at_reference_speed(raw, before,
                                           machine.reference_seconds())


def run_one(args) -> int:
    from gainlab.experiment import mix_seed
    import layers
    import machine
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seed = mix_seed(HELD_OUT_SALT, args.seed) if args.held_out else args.seed
    print("# stamp " + json.dumps(machine.stamp(PINNED_THREADS)))
    print(f"# workload {workload.name} seed {args.seed}"
          f"{' (held-out)' if args.held_out else ''} trace {args.trace}")
    if args.trace:
        spans_path = str(ROOT / ".bench_out" / f"spans_{workload.name}_seed"
                         f"{args.seed}{'_heldout' if args.held_out else ''}.jsonl.gz")
        metrics, tally = layers.traced_run(workload, seed, spans_path)
        print(f"# spans written to {spans_path}")
        units = {name: layers.unit(name) for name in metrics}
    else:
        raw_setup_s, setup_s = _setup_seconds(workload, seed)
        walls, scaled, refs, tally = workloads.measure(workload, seed,
                                                       args.seconds)
        metrics = workloads.end_to_end(workload, scaled, tally, setup_s,
                                       workloads.peak_rss_mb(workload.workers))
        units = UNITS
        shares = tally.shares()
        print(f"# {len(walls)} batches of {workload.batch} "
              f"{'instances' if workload.gradcheck else 'trials'}; raw batch "
              f"walls s {[round(w, 4) for w in walls]}; raw median wall "
              f"{statistics.median(walls)!r} s; raw setup {raw_setup_s!r} s; "
              f"reference loop median {statistics.median(refs)!r} s "
              f"(nominal {machine.REFERENCE_SECONDS} s)")
        print(f"# failed_share {shares['failed_share']!r} "
              f"nonconverged_share {shares['nonconverged_share']!r} "
              f"iterations {tally.iterations}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.trials,
        "failed": tally.errors,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    code = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace)] + (["--held-out"] if args.held_out else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{name}: benchmark exited {done.returncode} without a "
                  "result", file=sys.stderr)
            return 2
        code = max(code, done.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
            print(f"{name:12s} {metric:44s} {entry['value']!r} {entry['unit']}")
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "gainlab" / "__init__.py").is_file():
        print(f"bench: gainlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
