"""foldoptics benchmark: time the CLI's workloads and check their outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts one fresh interpreter
(perfbench/worker.py) that imports foldoptics from ./src, runs the
workload's default pass as warm-up, then timed passes of the seeded jobs
through `foldoptics.cli.main(argv)` for about S seconds (at least three
passes), each right after a reading of a fixed reference kernel; `run_s`
is the median pass time scaled to a fixed speed of that kernel.  Set-up
time is measured in further fresh interpreters.  With `--trace 1` half of
the time goes to untraced passes and half to passes with every public
function of the package wrapped by perfbench/tracer.py.

Every job's outputs are read back and checked (perfbench/checks.py).  The
last line of output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones.  Scratch files go under ./.perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import checks  # noqa: E402

WORKLOADS = ("wigner-export", "validate-suite", "field-rays")
# Fresh interpreters that only import foldoptics; the worker adds a fourth
# set-up sample.
SETUP_PROBES = 3
# BLAS/OpenMP threads of the worker: one, so a run is a plain single
# threaded run that other load on the machine disturbs least.
THREADS = 1
DEADLINE_S = 170.0
# The speed of this kind of shared host swings by tens of percent over
# minutes, and a whole run can fall in a slow stretch.  Each timed pass is
# therefore divided by the time of worker.py's reference kernel, read just
# before it, and multiplied by this fixed time of that kernel (about its
# median on a 2-vCPU Xeon host): run_s is the pass time at that speed.
REF_S = 0.05
# The accuracy ratio behind err_exact and err_asymptotic on each workload,
# measured on the default pass, so every seed reports the same value.
ERRORS = {
    "wigner-export": ("err_numeric", "err_semiclassical"),
    "field-rays": ("err_kl", "err_wkb"),
    "validate-suite": ("err_criterion03", "err_criterion02"),
}
UNITS = {"calls": "count", "points_per_s": "1/s", "chord_found_frac": "fraction",
         "bytes_written": "bytes"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def machine() -> dict:
    rec = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": THREADS,
    }
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        field = {"Model name": "cpu", "L2 cache": "l2", "L3 cache": "l3"}.get(key.strip())
        if field:
            rec[field] = value.strip()
    return rec


def _wait(proc: subprocess.Popen, deadline: float):
    try:
        return proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise


def setup_sample(env: dict, deadline: float) -> float:
    """Seconds from starting an interpreter until `import foldoptics` is done."""
    started = time.time()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import foldoptics, time; print(repr(time.time()))"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = _wait(proc, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"import foldoptics failed: {err.strip()[-500:]}")
    return float(out.strip()) - started


def import_split(env: dict, deadline: float) -> dict:
    """Self time of the import by top-level package, from -X importtime."""
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-c", "import foldoptics"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    _, err = _wait(proc, deadline)
    totals = {"numpy": 0.0, "scipy": 0.0, "foldoptics": 0.0, "other": 0.0}
    modules = 0
    for line in err.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        top = name.split(".", 1)[0]
        totals[top if top in totals else "other"] += int(self_us) * 1e-6
        modules += 1
    out = {f"setup.{k}_import_s": v for k, v in totals.items()}
    out["setup.calls"] = modules
    return out


def run_worker(workdir: str, args, env: dict, deadline: float):
    spans = os.path.join(SCRATCH, f"spans-{args.workload}.json")
    with open(os.path.join(workdir, "worker.log"), "w", encoding="utf-8") as log:
        started = time.time()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workdir, args.workload,
             str(args.seed), str(args.seconds), str(args.trace), spans],
            env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
        )
        _wait(proc, deadline)
    path = os.path.join(workdir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        with open(os.path.join(workdir, "worker.log"), encoding="utf-8") as f:
            tail = f.read()[-2000:]
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
    with open(path, encoding="utf-8") as f:
        result = json.load(f)
    return result, result["imported_at"] - started


def judge_jobs(workload: str, jobs: list) -> tuple:
    """Mark each job failed or not; return (failed count, problems, errors of
    the default pass, digests of the default pass).

    The first timed pass is checked in full; every later pass, traced or
    not, must write byte-identical data files, and shares its verdict."""
    check = checks.CHECKS[workload]
    reference = {}  # argv -> (digests, issues) of the first timed pass
    failed, problems, errors, default_digests = 0, [], {}, {}
    for n, job in enumerate(jobs):
        argv = tuple(job["argv"])
        issues = []
        if job["rc"] != 0 or job["error"]:
            issues.append(f"exit {job['rc']} {job['error'].strip()[-300:]}")
        elif job["dir"]:
            try:
                found, errs = check(job["argv"], job["dir"])
            except Exception as e:  # noqa: BLE001 - a failed check, reported
                found, errs = [f"outputs unreadable: {e!r}"], {}
            issues += found
            if job["pass"] == "default":
                errors.update(errs)
                default_digests.update(
                    {f"{n}/{name}": d for name, d in job["digests"].items()})
        elif argv in reference:
            issues += reference[argv][1]
        if job["pass"] != "default":
            if argv not in reference:
                reference[argv] = (job["digests"], issues)
            elif job["digests"] != reference[argv][0]:
                issues.append("data files differ from the first timed pass")
        if issues:
            failed += 1
            problems += [f"{job['pass']}{job['index']} {' '.join(argv[:3])}: {i}"
                         for i in issues]
    return failed, problems, errors, default_digests


def written(jobs: list, tag: str) -> tuple:
    """Rows and bytes the first pass with this tag wrote."""
    rows = nbytes = 0
    for job in jobs:
        if job["pass"] == tag and job["index"] == 0 and job["dir"]:
            for name in os.listdir(job["dir"]):
                nbytes += os.path.getsize(os.path.join(job["dir"], name))
                if name.endswith("_manifest.json"):
                    with open(os.path.join(job["dir"], name), encoding="utf-8") as f:
                        rows += sum(e["rows"] for e in json.load(f)["outputs"])
    return rows, nbytes


def recorded_digests(workload: str) -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        return json.load(f)["workloads"].get(workload, {})


def scaled(passes: list, refs: list) -> float:
    """Median over the passes of pass time / reference time, in seconds at
    the host speed where the reference kernel takes REF_S."""
    return REF_S * statistics.median(p / r for p, r in zip(passes, refs))


def unit(name: str) -> str:
    leaf = name.split(".", 1)[1]
    return UNITS.get(leaf, "s" if leaf.endswith("_s") else "count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "foldoptics", "__init__.py")):
        print(f"no foldoptics package under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    record = machine()
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        setup = [setup_sample(env, deadline) for _ in range(SETUP_PROBES)]
        split = import_split(env, deadline) if args.trace else {}
        result, worker_setup = run_worker(workdir, args, env, deadline)
        setup.append(worker_setup)
        failed, problems, errors, default_digests = judge_jobs(args.workload, result["jobs"])
        if args.trace:
            rows, nbytes = written(result["jobs"], "traced")
            if result["untraced_names"]:
                problems.append(f"tracer missed: {', '.join(result['untraced_names'])}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = recorded_digests(args.workload)
    identical = sum(1 for k, d in default_digests.items() if expected.get(k) == d)
    plain = scaled(result["plain_s"], result["plain_ref_s"])
    attempted = len(result["jobs"])
    exact_name, asym_name = ERRORS[args.workload]
    detail = {
        "workload": args.workload, "seed": args.seed,
        "setup_samples_s": setup, "default_pass_s": result["default_s"],
        "run_samples": len(result["plain_s"]),
        "pass_s_median": statistics.median(result["plain_s"]),
        "reference_s_median": statistics.median(result["plain_ref_s"]),
        "fail_frac": failed / attempted, "errors": errors,
        "files_identical": identical, "files_recorded": len(expected),
        "problems": problems[:20],
    }
    if args.trace:
        values = dict(split)
        values.update(result["layers"])
        values.update({
            "cli.rows_written": rows, "cli.bytes_written": nbytes,
            "cli.files_identical": identical,
            "trace.overhead_s": scaled(result["traced_s"], result["traced_ref_s"]) - plain,
        })
        detail["traced_samples"] = len(result["traced_s"])
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": plain, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
            # 0.0 only when the default pass failed, so the run is not correct
            "err_exact": {"value": errors.get(exact_name, 0.0), "unit": "ratio"},
            "err_asymptotic": {"value": errors.get(asym_name, 0.0), "unit": "ratio"},
        }
    print("machine " + json.dumps(record, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        sys.exit(1)
