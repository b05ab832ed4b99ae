#!/usr/bin/env python3
"""Scale point for decompose: degree-Rips H0 of a random point cloud.

Builds degree-Rips H0 over F_2 of N distinct integer points in [0, 9]^2
drawn with seed 0 (Chebyshev distance, radii 0-9, degrees 0-9), decomposes
it, and checks every witness: each inclusion and projection is natural, each
proj o inc is the identity of its summand, and the inc o proj sum to the
identity of the module.  Prints one JSON line: the seconds decompose took,
the tracemalloc peak of a second, traced decompose, the module's total and
largest dimension, the summand count, and the sha256 of the canonical JSON
(serialize.dumps) of the summands, then the inclusions, then the
projections, which stays the same while decompose's output does.  Exits 1
when a witness check fails.

    python3 scripts/run_scale_point.py --points 40
"""

import argparse
import hashlib
import json
import sys
import time
import tracemalloc

import numpy as np

from obspers.decompose import decompose
from obspers.pipelines import degree_rips, homology_module, metric_space
from obspers.serialize import dumps, module_to_json, morphism_to_json
from obspers.stepmodule import (Grid, add_morphisms, compose, identity_morphism,
                                validate_morphism, zero_morphism)

SIDE = 9
RADII = list(range(10))
DEGREES = list(range(10))
GRID = Grid((tuple(RADII), tuple(-k for k in reversed(DEGREES))))
SEED = 0


def cloud(n):
    """n distinct integer points in [0, SIDE]^2, drawn with SEED, sorted."""
    if n > (SIDE + 1) ** 2:
        raise SystemExit(f"at most {(SIDE + 1) ** 2} distinct points fit")
    rng = np.random.default_rng(SEED)
    pts = set()
    while len(pts) < n:
        pts.add((int(rng.integers(0, SIDE + 1)), int(rng.integers(0, SIDE + 1))))
    return sorted(pts)


def rips(points, max_dim):
    """The degree-Rips bifiltration of points up to simplices of max_dim."""
    d = [[max(abs(a[0] - b[0]), abs(a[1] - b[1])) for b in points] for a in points]
    return degree_rips(metric_space(list(range(len(points))), d), RADII, DEGREES,
                       max_dim=max_dim)


def h0_module(points):
    return homology_module(rips(points, 1), 0, GRID, 2)


def witness_failures(v, dec):
    out = []
    total = zero_morphism(v, v)
    for i, (s, inc, proj) in enumerate(zip(dec.summands, dec.inclusions, dec.projections)):
        if validate_morphism(inc) or validate_morphism(proj):
            out.append(f"summand {i}: witness is not natural")
        if compose(proj, inc) != identity_morphism(s):
            out.append(f"summand {i}: proj o inc != id")
        total = add_morphisms(total, compose(inc, proj))
    if total != identity_morphism(v):
        out.append("sum of inc o proj != id")
    return out


def digest(dec):
    """sha256 of the canonical JSON of the summands, the inclusions and the
    projections, in that order."""
    h = hashlib.sha256()
    for doc in ([module_to_json(s) for s in dec.summands]
                + [morphism_to_json(m) for m in dec.inclusions + dec.projections]):
        h.update(dumps(doc).encode())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--points", type=int, default=40)
    args = ap.parse_args()
    points = cloud(args.points)
    v = h0_module(points)
    t0 = time.perf_counter()
    dec = decompose(v)
    seconds = time.perf_counter() - t0
    # the peak from a second run on a fresh copy of the module, because
    # tracing slows every allocation down
    again = h0_module(points)
    tracemalloc.start()
    decompose(again)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    failures = witness_failures(v, dec)
    print(json.dumps({"points": args.points,
                      "decompose_s": round(seconds, 3),
                      "tracemalloc_peak_mb": round(peak / 2 ** 20, 1),
                      "total_dim": v.total_dim, "max_dim": max(v.dims.values()),
                      "summands": len(dec.summands), "sha256": digest(dec),
                      "failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
