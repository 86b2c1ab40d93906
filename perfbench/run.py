"""quditmagic benchmark: one closed-loop process, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  With --trace 0 the run repeats whole rounds of the workload until
another round would end past --seconds (at least two for magic-chain and
cli-session), and prints the end-to-end metrics.  With --trace 1 it runs
one untraced round and one traced round and prints the per-layer metrics.
Earlier stdout
lines carry the machine facts and the workload's breakdown figures; the
last line is the JSON result.  See perfbench/README.md.
"""

import os

# One BLAS thread in this process and every child: set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import selftest  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env):
    """Median wall time of a fresh interpreter importing quditmagic.cli,
    and the same at the host's nominal speed."""
    meter = speed.SpeedMeter()
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import quditmagic.cli"], cwd=ROOT,
                       env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t)
        meter.tick()
    wall = statistics.median(times)
    return wall, wall * meter.scale()


def import_times(env):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quditmagic.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return tracer.parse_importtime(proc.stderr)


def machine_facts(args):
    import numpy
    import scipy
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "not a git checkout"
    except OSError:
        rev = "not a git checkout"
    digest = hashlib.sha256()
    for path in sorted((SRC / "quditmagic").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "git_rev": rev, "src_sha256": digest.hexdigest()[:16],
        "blas_threads": int(BLAS_THREADS),
    }


def peak_rss_mb(cli):
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(wl, seconds):
    rounds = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        rounds.append(wl.round())
        last = time.perf_counter() - t
        if len(rounds) >= wl.min_rounds and time.perf_counter() - start + last > seconds:
            return rounds


def run_traced(wl, workdir, cli):
    """One untraced round, then one traced round; the overhead is the
    difference of their wall times at the host's nominal speed."""
    def timed_round():
        wl.meter = speed.SpeedMeter()
        t = time.perf_counter()
        rd = wl.round()
        return rd, (time.perf_counter() - t) * wl.meter.scale()

    plain, plain_s = timed_round()
    if cli:  # cli-session traces inside its child processes
        wl.traced = True
        traced, traced_s = timed_round()
        files = wl.span_files
    else:
        tr = tracer.Tracer()
        uninstall = tracer.install(tr)
        try:
            traced, traced_s = timed_round()
        finally:
            uninstall()
        files = [workdir / "spans.npz"]
        tr.dump(files[0])
    return [plain, traced], files, traced_s - plain_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quditmagic" / "cli.py").is_file():
        sys.stderr.write("no package source at %s; run from the root of a checkout\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()

    selftest_errors = selftest.run()
    for err in selftest_errors:
        sys.stderr.write("check self-test: %s\n" % err)

    workdir = ROOT / ".bench_out" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        cli = args.workload == "cli-session"
        setup_wall, setup_s = measure_setup(env)  # also warms the bytecode caches
        meter = speed.SpeedMeter()
        wl = cls(args.seed, workdir, meter, env, ROOT) if cli else cls(args.seed, workdir, meter)
        if args.trace:
            rounds, files, overhead = run_traced(wl, workdir, cli)
            metrics = tracer.per_layer(files, import_times(env), overhead)
        else:
            rounds = run_untraced(wl, args.seconds)
            scale = meter.scale()
            round_wall = statistics.median(rd.program_s for rd in rounds)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(cli), "unit": "MB"},
                "round_s": {"value": round_wall * scale, "unit": "s"},
            }
            breakdown = {k: {"value": v * scale if u == "s" else v / scale, "unit": u}
                         for k, (v, u) in cls.breakdown(rounds).items()}
            breakdown.update({
                "round_wall_s": {"value": round_wall, "unit": "s"},
                "setup_wall_s": {"value": setup_wall, "unit": "s"},
                "speed_scale": {"value": scale, "unit": "x"},
            })
            print("breakdown " + json.dumps(breakdown))
    finally:
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)
    print("machine " + json.dumps(machine_facts(args)))
    for rd in rounds:
        for err in rd.errors:
            sys.stderr.write("failed operation: %s\n" % err)
    result = {
        "correct": not selftest_errors and not any(rd.wrong for rd in rounds),
        "attempted": sum(rd.attempted for rd in rounds),
        "failed": sum(rd.failed for rd in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
