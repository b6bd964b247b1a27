"""One workload run in a fresh interpreter (started by run.py).

Imports foldoptics first, so the parent can time set-up, then runs the
default pass (warm-up), then timed passes of the seeded jobs through
`foldoptics.cli.main(argv)` in process, each right after a reading of a
fixed reference kernel.  With tracing on, the timed passes are split
between untraced and traced ones.  The result goes to
`<workdir>/result.json`.

    python3 perfbench/worker.py WORKDIR WORKLOAD SEED SECONDS TRACE SPANS_PATH
"""

import time

import foldoptics

IMPORTED_AT = time.time()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import foldoptics.cli as cli  # noqa: E402
import numpy as np  # noqa: E402
from scipy import special  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3


def _digests(outdir: str) -> dict:
    """sha256 of each data file a job's manifest lists.  The validate report
    carries run times, so only its criteria (id, pass, metric, threshold)
    are digested."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name == "validate_report.json":
            with open(os.path.join(outdir, name), encoding="utf-8") as f:
                criteria = [[c[k] for k in ("id", "passed", "metric", "threshold")]
                            for c in json.load(f)["criteria"]]
            out[name + "#criteria"] = hashlib.sha256(repr(criteria).encode()).hexdigest()
        elif name.endswith("_manifest.json"):
            with open(os.path.join(outdir, name), encoding="utf-8") as f:
                for entry in json.load(f)["outputs"]:
                    with open(os.path.join(outdir, entry["path"]), "rb") as g:
                        out[entry["path"]] = hashlib.sha256(g.read()).hexdigest()
    return out


# The reference kernel: a fixed computation outside foldoptics with the
# package's two kinds of work, Python-level loops over scalar special
# functions and small numpy arrays, then special functions and complex
# exponentials over large arrays.  It is timed before every timed pass to
# read the host's speed at that moment; the two halves together track both
# the scalar-heavy workloads and validate's bulk array work.
_REF_T = np.linspace(0.0, 1.0, 64)
_REF_Z = np.linspace(-8.0, 6.0, 20000)
_REF_SIGMA = np.linspace(-1.0, 1.0, 1024)
REF_REPEATS = 3


def _reference_once() -> float:
    start = time.perf_counter()
    total = 0.0
    for i in range(900):
        z = -5.0 + i * 0.012
        total += float(special.airy(z)[0])
        u = _REF_T * z
        term = np.ones_like(u)
        for n in range(1, 6):
            term = term * u / n
        total += float(np.sum(np.cos(u) + term)) + math.exp(-z * z)
    total += float(np.sum(special.airy(_REF_Z)[0]))
    for i in range(6):
        total += float(np.abs(np.sum(np.exp(1j * np.outer(_REF_Z[:64] + i, _REF_SIGMA)))))
    return time.perf_counter() - start


def reference_s() -> float:
    """Median seconds of REF_REPEATS runs of the reference kernel."""
    return statistics.median(_reference_once() for _ in range(REF_REPEATS))


def _run_pass(argvs, passdir: str):
    """Run one pass; return (seconds, per-job records)."""
    gc.collect()
    outdirs = [os.path.join(passdir, str(i)) for i in range(len(argvs))]
    statuses = []
    start = time.perf_counter()
    for argv, outdir in zip(argvs, outdirs):
        try:
            statuses.append((cli.main(argv + ["--out", outdir]), ""))
        except SystemExit as e:  # argparse usage errors
            statuses.append((e.code, "SystemExit"))
        except Exception:  # noqa: BLE001 - recorded as a failed job
            statuses.append((None, traceback.format_exc(limit=3)))
    elapsed = time.perf_counter() - start
    records = []
    for argv, outdir, (rc, error) in zip(argvs, outdirs, statuses):
        records.append({
            "argv": argv, "dir": outdir, "rc": rc, "error": error,
            "digests": _digests(outdir) if os.path.isdir(outdir) else {},
        })
    return elapsed, records


def _timed_passes(argvs, budget: float, min_passes: int, tag: str, workdir: str,
                  traced: bool = False):
    """Run passes until `budget` seconds have gone and at least `min_passes` ran,
    each right after a reading of the reference kernel.

    Returns the pass times, the reference times, the job records, and with
    tracing the per-layer metrics of each pass and the last pass's tracer.
    The first pass's output directories are kept for the output checks;
    later passes keep only their digests."""
    times, refs, jobs, layers, tracer = [], [], [], [], None
    started = time.perf_counter()
    while time.perf_counter() - started < budget or len(times) < min_passes:
        passdir = os.path.join(workdir, f"{tag}{len(times)}")
        refs.append(reference_s())
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            elapsed, records = _run_pass(argvs, passdir)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(tracing.summarize(tracer))
        if times:
            shutil.rmtree(passdir, ignore_errors=True)
            for r in records:
                r["dir"] = None
        jobs += [{**r, "pass": tag, "index": len(times)} for r in records]
        times.append(elapsed)
    return times, refs, jobs, layers, tracer


def main() -> int:
    workdir, workload, seed, seconds, trace, spans_path = sys.argv[1:7]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    seeded = workloads.jobs(workload, seed)
    result = {"imported_at": IMPORTED_AT}

    # warm-up: the default pass, also compared with the recorded digests
    warm_time, warm_jobs = _run_pass(workloads.jobs(workload, None),
                                     os.path.join(workdir, "default"))
    for r in warm_jobs:
        r["pass"], r["index"] = "default", 0
    result["default_s"] = warm_time
    jobs = list(warm_jobs)

    if not trace:
        result["plain_s"], result["plain_ref_s"], more, _, _ = _timed_passes(
            seeded, seconds, MIN_PASSES, "plain", workdir)
        jobs += more
    else:
        result["plain_s"], result["plain_ref_s"], more, _, _ = _timed_passes(
            seeded, seconds / 2, 1, "plain", workdir)
        jobs += more
        result["traced_s"], result["traced_ref_s"], more, layers, last = _timed_passes(
            seeded, seconds / 2, 1, "traced", workdir, traced=True)
        jobs += more
        result["layers"] = {
            key: statistics.median_low(m[key] for m in layers) for key in layers[0]
        }
        last.dump(spans_path)
        probe = tracing.Tracer()
        probe.install()
        try:
            result["untraced_names"] = probe.missing()
        finally:
            probe.uninstall()

    result["jobs"] = jobs
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
