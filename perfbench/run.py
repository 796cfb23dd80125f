"""Benchmark for the apml toolchain.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads are ``ladder`` and ``corpus-cli``, the two in BENCHMARK.json
(which says why each exists), and ``soundness``, criterion 4's cases, which
runs only on request: its run-to-run spread on a shared 2-core host was wider
than the benchmark's bounds allow.  With ``--trace 0`` the run measures
for about ``--seconds`` seconds, in whole passes, and reports the end-to-end
metrics.  With ``--trace 1`` it runs one untraced pass and one traced pass
and reports the per-layer metrics, including the tracing overhead.  Every
output is checked against a known answer; the last line of standard output
is one JSON object with the verdict counts and the metrics.  ``--smoke``
runs each workload once on its smallest inputs and checks correctness only.

The metric names and units are read from BENCHMARK.json.  Raw samples,
provenance and (in traced runs) the spans go to perfbench/out/.
"""

import argparse
import compileall
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 20260823
LAUNCHES = 9
WORKLOADS = ("ladder", "soundness", "corpus-cli")


class Record:
    """Samples (milliseconds at reference speed) and verdict counts of one
    run."""

    def __init__(self, speed, tracer=None):
        self.speed = speed
        self.ops = defaultdict(list)          # back end -> samples
        self.rungs = defaultdict(lambda: defaultdict(list))
        self.cases = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tracer = tracer

    def timed(self, fn, *args, **kwargs):
        """(result, milliseconds at reference speed) of one call."""
        return self.speed.time(fn, *args, **kwargs)

    def timed_batch(self, n, fn, *args, **kwargs):
        """(result of the last of n back-to-back calls, milliseconds per
        call at reference speed), for calls too short to time one by one."""
        def batch():
            for _ in range(n):
                result = fn(*args, **kwargs)
            return result
        result, ms = self.timed(batch)
        return result, ms / n

    def op(self, name, ms):
        self.ops[name].append(ms)

    def rung(self, n, name, ms):
        self.rungs[n][name].append(ms)

    def case(self, ms):
        self.cases.append(ms)

    def expect(self, ok, message):
        if not ok:
            self.failed += 1
            self.failures.append(message)
            print("FAIL: %s" % message, file=sys.stderr)

    def untraced(self):
        """Context for the benchmark's own checks, kept out of the trace."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


def make_workload(name, seed, smoke=False):
    if name == "ladder":
        from ladder import Ladder
        return Ladder(seed, smoke)
    if name == "soundness":
        from soundness import Soundness
        return Soundness(seed, smoke)
    from corpus_cli import CorpusCli
    return CorpusCli(seed, smoke, root=ROOT)


def run_pass(workload, rec):
    """One pass; returns its wall time in seconds.  An exception counts as a
    failed operation and ends the pass."""
    t0 = time.perf_counter()
    try:
        workload.run_pass(rec)
    except Exception:                   # report, then let the run finish
        rec.attempted += 1
        rec.expect(False, traceback.format_exc())
    return time.perf_counter() - t0


def measure(workload, rec, seconds):
    """Whole passes until another one would overrun the time budget."""
    start = time.perf_counter()
    passes = 0
    while True:
        last = run_pass(workload, rec)
        passes += 1
        if rec.failed:
            break
        if (passes >= workload.min_passes
                and time.perf_counter() - start + last > seconds):
            break
    return passes, time.perf_counter() - start


def median(samples):
    return statistics.median(samples) if samples else 0.0


def p90(samples):
    if len(samples) < 2:
        return median(samples)
    return statistics.quantiles(samples, n=10)[-1]


def launch_ms(speed, argv, env=None):
    """Median time of LAUNCHES fresh interpreters started with argv."""
    return statistics.median(
        speed.time(subprocess.run, [sys.executable, *argv], cwd=ROOT,
                   env=env, check=True)[1]
        for _ in range(LAUNCHES))


def setup_seconds(speed, name, seed):
    """Time of a fresh interpreter that imports apml and builds this
    workload's inputs."""
    return launch_ms(speed, [os.path.abspath(__file__), "--setup-only",
                             "--workload", name, "--seed", str(seed)]) / 1000.0


def peak_rss_mb(name):
    who = (resource.RUSAGE_CHILDREN if name == "corpus-cli"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "apml")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def end_to_end(name, rec, setup_s):
    cases_s = sum(rec.cases) / 1000.0
    return {
        "setup_s": setup_s,
        "check_ms": median(rec.ops["check"]),
        "search_ms": median(rec.ops["search"]),
        "emit_ms": median(rec.ops["emit"]),
        "fmt_ms": median(rec.ops["fmt"]),
        "simulate_ms_p50": median(rec.ops["simulate"]),
        "cases_per_s": len(rec.cases) / cases_s if cases_s else 0.0,
        "case_ms_p50": median(rec.cases),
        "case_ms_p90": p90(rec.cases),
        "peak_rss_mb": peak_rss_mb(name),
        "src_lines": src_lines(),
    }


def growth(rec, stage):
    """t(400) / t(100) of one ladder stage; 4 means linear."""
    lo, hi = rec.rungs.get(100, {}).get(stage), rec.rungs.get(400, {}).get(stage)
    return median(hi) / median(lo) if lo and hi else 0.0


def per_layer(speed, name, workload):
    from tracing import Tracer, layer_metrics
    if name == "corpus-cli":
        workload.in_process = True   # a CLI process's layers are not visible
    plain = Record(speed)
    run_pass(workload, plain)
    tracer = Tracer()
    traced = Record(speed, tracer)
    tracer.install()
    try:
        run_pass(workload, traced)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    metrics["checker.growth"] = growth(plain, "check_only")
    metrics["oracle.search_growth"] = growth(plain, "search")
    if name == "corpus-cli":
        env = dict(os.environ, PYTHONPATH=SRC)
        interp = launch_ms(speed, ["-c", "pass"])
        metrics["cli.interp_ms"] = interp
        metrics["cli.import_ms"] = launch_ms(
            speed, ["-c", "import apml.cli"], env) - interp
    else:
        metrics["cli.interp_ms"] = metrics["cli.import_ms"] = 0.0
    plain_ms, traced_ms = (sum(map(sum, r.ops.values()))
                           for r in (plain, traced))
    metrics["trace.overhead_pct"] = (traced_ms / plain_ms - 1.0) * 100.0
    spans = [{"name": n, "start": s, "end": e, "parent": p}
             for n, s, e, p in tracer.spans]
    return metrics, [plain, traced], spans


def provenance(name, seed, workload):
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"workload": name, "seed": seed, "git_sha": sha,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            **workload.provenance()}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_out(filename, payload):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, filename), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def report(specs, metrics, records):
    mismatch = sorted({s["name"] for s in specs} ^ set(metrics))
    if mismatch:
        raise SystemExit("metrics disagree with BENCHMARK.json: %s"
                         % ", ".join(mismatch))
    for s in specs:
        print("%-28s %14.4f %s" % (s["name"], metrics[s["name"]], s["unit"]))
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {s["name"]: {"value": metrics[s["name"]],
                                    "unit": s["unit"]} for s in specs}}


def build():
    """Byte-compile the package so no timed process pays for it."""
    if not compileall.compile_dir(os.path.join(SRC, "apml"), quiet=1):
        raise SystemExit("apml does not compile")


def smoke(speed):
    ok = True
    attempted = failed = 0
    for name in WORKLOADS:
        workload = make_workload(name, DEFAULT_SEED, smoke=True)
        rec = Record(speed)
        run_pass(workload, rec)
        print("%-12s attempted %d, failed %d" % (name, rec.attempted,
                                                 rec.failed))
        ok = ok and rec.failed == 0
        attempted += rec.attempted
        failed += rec.failed
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs of every workload, correctness only")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    if not os.path.isfile(os.path.join(SRC, "apml", "__init__.py")):
        print("error: no apml sources under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    if args.setup_only:
        import apml.cli  # noqa: F401  (the import is part of set-up)
        make_workload(args.workload, args.seed)
        return 0

    build()
    from hostspeed import HostSpeed
    with HostSpeed() as speed:
        if args.smoke:
            return smoke(speed)
        result = run(speed, args)
    print(json.dumps(result))
    return 0


def run(speed, args):
    name = args.workload
    specs = load_spec()
    setup_s = None if args.trace else setup_seconds(speed, name, args.seed)
    workload = make_workload(name, args.seed)
    info = provenance(name, args.seed, workload)
    print("provenance: %s" % json.dumps(info))
    tag = "%s-seed%d-trace%d" % (name, args.seed, args.trace)

    if args.trace:
        metrics, records, spans = per_layer(speed, name, workload)
        result = report(specs["per_layer"], metrics, records)
        write_out(tag + ".json", {"provenance": info, "result": result,
                                  "spans": spans})
        return result

    if hasattr(workload, "warm_up"):
        workload.warm_up()
    rec = Record(speed)
    passes, wall = measure(workload, rec, args.seconds)
    info.update(passes=passes, measured_s=wall, cases=len(rec.cases),
                samples={op: len(v) for op, v in rec.ops.items()},
                host_factor_p50=median(speed.factors))
    metrics = end_to_end(name, rec, setup_s)
    result = report(specs["end_to_end"], metrics, [rec])
    write_out(tag + ".json", {
        "provenance": info, "result": result, "ops_ms": rec.ops,
        "cases_ms": rec.cases,
        "rungs_ms": {n: dict(v) for n, v in rec.rungs.items()},
        "failures": rec.failures})
    return result


if __name__ == "__main__":
    sys.exit(main())
