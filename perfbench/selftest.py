"""Self-test of the benchmark's tracer; exits nonzero on failure.

    python3 perfbench/selftest.py

Checks that installing the tracer wraps every function named in each
layer's ``__all__`` (plus ``cli.main`` and the ``cli.check_*`` checks)
wherever foldoptics binds it, that uninstalling restores the originals,
that self times add up, and that small traced jobs write data files
byte-identical to the same jobs untraced.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import foldoptics.cli as cli  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402

JOBS = [
    ["wigner", "--nx", "8", "--nk", "8"],
    ["field", "--scenario", "airy", "--xmin", "-0.5", "--xmax", "2.5", "--nx", "40"],
    ["rays", "--scenario", "airy", "--nt", "50"],
    ["rays", "--scenario", "linear_layer", "--nt", "50"],
    ["field", "--scenario", "linear_layer", "--nx", "50"],
    # a non-default seed: its stationary-point sweep only matches if the
    # traced validation still passes the seed through
    ["validate", "--seed", "12345"],
]


def main() -> int:
    failures = []
    before = {name: getattr(cli, name) for name in ("main", "_CHECKS", "check_rays")}

    t = tracer.Tracer()
    t.install()
    try:
        missing = t.missing()
    finally:
        t.uninstall()
    if missing:
        failures.append(f"not wrapped: {missing}")
    if any(getattr(cli, name) is not fn for name, fn in before.items()):
        failures.append("uninstall did not restore cli")

    spans = [["cli.main", 0.0, 10.0, -1], ["wigner.f", 1.0, 5.0, 0], ["specfun.airy", 2.0, 3.0, 1]]
    selfs = tracer.self_times(spans)
    if (selfs["cli"], selfs["wigner"], selfs["specfun"]) != (6.0, 3.0, 1.0):
        failures.append(f"self times {selfs}")

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as tmp:
        _, plain = worker._run_pass(JOBS, os.path.join(tmp, "plain"))
        t = tracer.Tracer()
        t.install()
        try:
            _, traced = worker._run_pass(JOBS, os.path.join(tmp, "traced"))
        finally:
            t.uninstall()
    for p, q in zip(plain, traced):
        if p["rc"] != 0 or q["rc"] != 0 or not p["digests"] or p["digests"] != q["digests"]:
            failures.append(f"{' '.join(p['argv'])}: traced outputs differ or job failed")
    layers = tracer.summarize(t)
    if not all(layers[f"{layer}.calls"] > 0 for layer in tracer.LAYERS):
        failures.append(f"a layer recorded no calls: {layers}")

    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
