"""The benchmark's workloads: lists of `foldoptics` command lines.

A pass of a workload runs its jobs in order.  `jobs(name, None)` gives the
default pass: the sizes the workload is named for, with unjittered grid
bounds.  It runs once per run, as warm-up and as the reference for the
accuracy ratios and the recorded digests.  `jobs(name, seed)` gives the
timed pass: the same commands over the same ranges on coarser grids, so
that a run times many short passes, each close in time to its reading of
the host's speed (see run.py).  A seed only jitters grid bounds inward
(grid sizes never change, so the work stays the same) and, for validate,
chooses the `--seed` of the randomized stationary-point sweep.
"""

from __future__ import annotations

import random
from typing import List, Optional

# Grid sizes of the default pass and of the timed pass.  The timed wigner
# tile keeps the default's share of semiclassical work (about three
# quarters); validate has no size to change.
WIGNER_GRID = {None: (64, 64), "timed": (8, 32)}
AIRY_FIELD_POINTS = {None: 1000, "timed": 32}
# Rows of the two ray tables and of the linear-layer field.
RAY_ROWS = {None: 50000, "timed": 5000}
# Largest inward shift of a grid bound: far below every grid spacing, so
# that each seed writes different numbers but does the same work (shifts
# of a fifth of a spacing moved the time of a wigner tile by 10%).
JITTER = 1e-4


def _jitter(rng: Optional[random.Random]) -> float:
    return 0.0 if rng is None else JITTER * rng.random()


def jobs(workload: str, seed: Optional[int]) -> List[List[str]]:
    """Argument vectors of one pass, without `--out`."""
    rng = None if seed is None else random.Random(f"{workload}:{seed}")
    size = None if seed is None else "timed"
    if workload == "wigner-export":
        # default pass: `foldoptics wigner` at its defaults (64x64 grid,
        # sigma_samples=2048)
        nx, nk = WIGNER_GRID[size]
        xmin, xmax = 0.1 + _jitter(rng), 1.9 - _jitter(rng)
        kmin, kmax = -1.6 + _jitter(rng), 1.6 - _jitter(rng)
        return [[
            "wigner", "--xmin", repr(xmin), "--xmax", repr(xmax),
            "--kmin", repr(kmin), "--kmax", repr(kmax),
            "--nx", str(nx), "--nk", str(nk),
        ]]
    if workload == "validate-suite":
        job = ["validate"]
        if rng is not None:
            job += ["--seed", str(rng.randrange(1, 2**31))]
        return [job]
    if workload == "field-rays":
        rows = RAY_ROWS[size]
        xmin, xmax = -0.5 + _jitter(rng), 2.5 - _jitter(rng)
        zmin, zmax = 0.1 + _jitter(rng), 1.9 - _jitter(rng)
        t_air, t_layer = _jitter(rng), _jitter(rng)
        return [
            ["field", "--scenario", "airy", "--xmin", repr(xmin),
             "--xmax", repr(xmax), "--nx", str(AIRY_FIELD_POINTS[size])],
            ["rays", "--scenario", "airy", "--tmin", repr(t_air),
             "--nt", str(rows)],
            ["rays", "--scenario", "linear_layer", "--tmin", repr(t_layer),
             "--nt", str(rows)],
            ["field", "--scenario", "linear_layer", "--xmin", repr(zmin),
             "--xmax", repr(zmax), "--nx", str(rows)],
        ]
    raise KeyError(workload)
