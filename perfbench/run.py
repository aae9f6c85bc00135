"""Closed-loop benchmark of the satedge pipeline stages.

Run from the repository root:

    python3 perfbench/run.py --workload label --seed 42 --seconds 20 --trace 0

One process, one workload, one client: each stage repetition starts when
the previous one has finished. The run imports satedge from ``src/`` of
the checkout it sits in, and ``yardstick``, a frozen copy of the library
that gauges the host's speed. It sets the workload up several times, runs
one warm-up repetition whose output it checks in depth, then alternates
stage and yardstick repetitions for ``--seconds``. The last line of stdout
is the result as JSON; the line before it is the run record.

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` the run alternates untraced and traced
repetitions instead, and reports the per-layer metrics plus the tracing
overhead. perfbench/README.md says what each metric means and which
end-to-end metric it should move.
"""

import os

# One BLAS thread. With the default pool of two, identical train runs
# spread by almost 2x in wall time; the weights are the same either way.
# This must happen before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
MIN_PAIRS = 5


def _import_library() -> None:
    """Import satedge from this checkout, not from anywhere else on the path."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(SRC))
    import satedge
    if Path(satedge.__file__).resolve().parent != SRC / "satedge":
        raise ImportError(f"satedge imported from {satedge.__file__}, not from {SRC}")


_IMPORT_PROBE = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
sys.dont_write_bytecode = True
sys.pycache_prefix = sys.argv[3]
t0 = time.perf_counter()
__import__(sys.argv[2])
print(time.perf_counter() - t0)
"""


def import_time(package: str, no_cache: Path) -> float:
    """Seconds a fresh interpreter takes to import `package`, numpy already loaded.

    The package is compiled from source: `no_cache`, an empty directory,
    stands in for the bytecode cache, so no .pyc file is read or written.
    """
    path = SRC if package == "satedge" else Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(path), package, str(no_cache)],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def _blas_threads_runtime() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _source_identity() -> dict[str, str | None]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "satedge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_record(args, workload) -> dict:
    import numpy
    from satedge.config import scenario_hash
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **_source_identity(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_runtime": _blas_threads_runtime(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "config_hash": scenario_hash(workload.cfg.scenario),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units_per_rep": workload.units,
    }


class Loop:
    """Runs stage repetitions, times them, and tallies failures."""

    def __init__(self, workload, log):
        self.wl = workload
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.reference = None  # digest of the checked first repetition
        self.quality: dict[str, float] = {}

    def rep(self) -> float | None:
        """One repetition of the stage; its wall time, or None when it failed."""
        wl = self.wl
        self.attempted += wl.units
        t0 = time.perf_counter()
        try:
            result = wl.run()
        except Exception:
            self.failed += wl.units
            self.log(f"repetition raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - t0
        digest = wl.digest(result)
        if self.reference is None:
            problems = wl.check(result)
            for p in problems[:20]:
                self.log(f"check failed: {p}")
            if problems:
                self.failed += wl.units
                return None
            self.reference = digest
            self.quality = wl.quality(result)
        elif digest != self.reference:
            self.failed += wl.units
            self.log(f"repetition output {digest} differs from the first {self.reference}")
            return None
        return elapsed


def timer(fn):
    """`fn` as a call that returns its wall time in seconds."""
    def timed() -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    return timed


def pairs(seconds: float, first, second,
          min_pairs: int = MIN_PAIRS) -> list[tuple[float, float]]:
    """Alternate `first` and `second` for `seconds`, at least `min_pairs` times.

    The order flips every pair, so a drift in host speed falls on both
    sides alike. Pairs in which a call returned None (failed) are dropped.
    """
    out = []
    start = time.perf_counter()
    i = 0
    while i < min_pairs or time.perf_counter() - start < seconds:
        if i % 2:
            b, a = second(), first()
        else:
            a, b = first(), second()
        if a is not None and b is not None:
            out.append((a, b))
        i += 1
    return out


def end_to_end(args, loop, yardstick, workdir: Path,
               record) -> dict[str, float] | None:
    """Stage time against the yardstick's, scaled to the reference host speed."""
    from workloads import YARDSTICK_IMPORT_S, YARDSTICK_REP_S, YARDSTICK_SETUP_S
    workload = loop.wl
    no_cache = workdir / "no-pycache"
    no_cache.mkdir()
    imports = pairs(0, lambda: import_time("satedge", no_cache),
                    lambda: import_time("yardstick", no_cache), min_pairs=IMPORT_REPEATS)
    setups = pairs(0, timer(workload.setup), timer(yardstick.setup),
                   min_pairs=SETUP_REPEATS)
    t0 = time.perf_counter()
    loop.rep()  # warm-up, not timed; its output is the one checked in depth
    timer(yardstick.run)()
    record["warmup_s"] = time.perf_counter() - t0

    reps = pairs(args.seconds, loop.rep, timer(yardstick.run))
    if not reps:
        return None
    ratio = statistics.median(t / y for t, y in reps)
    setup_ratio = statistics.median(t / y for t, y in setups)
    import_ratio = statistics.median(t / y for t, y in imports)
    rep_s = YARDSTICK_REP_S[args.workload]
    values = {
        "episodes_per_s": workload.units / (ratio * rep_s),
        "setup_s": (import_ratio * YARDSTICK_IMPORT_S
                    + setup_ratio * YARDSTICK_SETUP_S[args.workload]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record.update({
        "import_pairs_s": imports,
        "setup_pairs_s": setups,
        "pairs_s": [(round(t, 5), round(y, 5)) for t, y in reps],
        "time_vs_yardstick": ratio,
        "import_time_vs_yardstick": import_ratio,
        "setup_time_vs_yardstick": setup_ratio,
        "host_slowdown": statistics.median(y for _, y in reps) / rep_s,
        "raw_episodes_per_s": workload.units / statistics.median(t for t, _ in reps),
    })
    return values


def per_layer(args, loop, record) -> dict[str, float] | None:
    """Untraced and traced stage repetitions, alternating."""
    from tracing import Tracer
    workload = loop.wl
    workload.setup()
    loop.rep()  # warm-up, untraced; its output is the one checked in depth
    tracer = Tracer()

    def traced_rep() -> float | None:
        tracer.install()
        try:
            return loop.rep()
        finally:
            tracer.uninstall()

    reps = pairs(args.seconds, loop.rep, traced_rep)
    if not reps:
        return None
    untraced = sum(u for u, _ in reps)
    traced = sum(t for _, t in reps)
    values = tracer.layer_metrics(len(reps) * workload.episodes)
    values.update({
        "trace.overhead_s": (traced - untraced) / len(reps),
        "trace.overhead_frac": traced / untraced - 1.0,
        "docs_exact_match": loop.quality.get("docs_exact_match", 0.0),
        "docs_reward_ratio": loop.quality.get("docs_reward_ratio", 0.0),
        "failed_frac": loop.failed / loop.attempted,
    })
    record["pairs_s"] = [(round(u, 5), round(t, 5)) for u, t in reps]
    return values


def main(argv=None) -> int:
    from workloads import WORKLOADS, make_workload

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = make_workload(args.workload, "satedge", args.seed, Path(tmp, "live"))
        record = run_record(args, workload)
        loop = Loop(workload, log)
        if args.trace:
            values = per_layer(args, loop, record)
        else:
            yardstick = make_workload(args.workload, "yardstick", args.seed,
                                      Path(tmp, "yardstick"))
            values = end_to_end(args, loop, yardstick, Path(tmp), record)
    if values is None:
        log("no repetition succeeded")
        return 1
    record["failed_frac"] = loop.failed / loop.attempted
    record.update(loop.quality)

    names = {m["name"] for m in wanted}
    if names != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {sorted(names - set(values))}, "
                           f"extra {sorted(set(values) - names)}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        _import_library()
    except ImportError as exc:
        print(f"cannot import satedge from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
