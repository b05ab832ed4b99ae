#!/usr/bin/env python3
"""Homology point: degree-Rips H1 of the random point cloud of the scale point.

Builds degree-Rips over F_2 of the N distinct integer points in [0, 9]^2
that scripts/run_scale_point.py draws (seed 0, Chebyshev distance, radii
0-9, degrees 0-9) and times homology_module for H1 on the radius x -degree
grid.  Prints one JSON line: the seconds homology_module took, the module's
total dimension, and a sha256 digest of its dims and steps in canonical JSON,
which stays the same as long as the output does.

    python3 scripts/run_homology_point.py --points 28
"""

import argparse
import hashlib
import json
import time

from run_scale_point import GRID, cloud, rips

from obspers.pipelines import homology_module
from obspers.serialize import module_to_json


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--points", type=int, default=28)
    args = ap.parse_args()
    b = rips(cloud(args.points), 2)
    t0 = time.perf_counter()
    v = homology_module(b, 1, GRID, 2)
    seconds = time.perf_counter() - t0
    doc = module_to_json(v)
    data = json.dumps({"dims": doc["dims"], "steps": doc["steps"]}, sort_keys=True)
    print(json.dumps({"points": args.points, "homology_s": round(seconds, 3),
                      "total_dim": v.total_dim,
                      "sha256": hashlib.sha256(data.encode()).hexdigest()}))


if __name__ == "__main__":
    main()
