#!/usr/bin/env python3
"""Homology point: degree-Rips H1 and H0 of the random point cloud of the
scale point.

Builds degree-Rips over F_2 of the N distinct integer points in [0, 9]^2
that scripts/run_scale_point.py draws (seed 0, Chebyshev distance, radii
0-9, degrees 0-9, simplices up to dimension 2) and times homology_module
for H1 and for H0 on the radius x -degree grid, the two degrees the
benchmark's compare workload asks for.  Prints one JSON line: per degree
the seconds homology_module took, the module's total dimension, and a
sha256 digest of its dims and steps in canonical JSON, which stays the
same as long as the output does.  The H1 figures keep their names
(homology_s, total_dim, sha256); the H0 figures carry an h0_ prefix.

    python3 scripts/run_homology_point.py --points 28
"""

import argparse
import hashlib
import json
import time

from run_scale_point import GRID, cloud, rips

from obspers.pipelines import homology_module
from obspers.serialize import module_to_json


def timed(b, k):
    """(seconds, total dimension, sha256) of homology_module for H_k."""
    t0 = time.perf_counter()
    v = homology_module(b, k, GRID, 2)
    seconds = time.perf_counter() - t0
    doc = module_to_json(v)
    data = json.dumps({"dims": doc["dims"], "steps": doc["steps"]}, sort_keys=True)
    return round(seconds, 3), v.total_dim, hashlib.sha256(data.encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--points", type=int, default=28)
    args = ap.parse_args()
    b = rips(cloud(args.points), 2)
    h1 = timed(b, 1)
    h0 = timed(b, 0)
    print(json.dumps({"points": args.points,
                      **dict(zip(("homology_s", "total_dim", "sha256"), h1)),
                      **dict(zip(("h0_s", "h0_total_dim", "h0_sha256"), h0))}))


if __name__ == "__main__":
    main()
