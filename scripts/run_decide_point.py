#!/usr/bin/env python3
"""Decide point: distance brackets of degree-Rips H0 pairs, timed and hashed.

Draws M pairs with seed 1: a cloud of N distinct integer points in [0, 5]^2
and a jitter of it that moves every point by at most 1 along each axis.
Builds H0 over F_2 of each degree-Rips bifiltration (Chebyshev distance) on
the 4 x 3 radius x -degree grid of the compare benchmark, and keeps a jitter
only when it has the cloud's number of components at every radius.  Such
pairs pass most rank tests, so distance_bracket, run on each pair at the
default decide budget, spends its time in decide's exhaustive candidate
scans.  Prints one JSON line: the seconds distance_bracket took over all
pairs, how many brackets are exact (the others ran out of budget), and a
sha256 digest of every bracket's canonical JSON, witness included, which
stays the same as long as the output does.  Exits 1 when a witness does not
verify.

    python3 scripts/run_decide_point.py --points 5 --pairs 32
"""

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from obspers.metric import distance_bracket, verify
from obspers.pipelines import degree_rips, homology_module, metric_space
from obspers.serialize import bracket_to_json, dumps
from obspers.stepmodule import Grid

SEED = 1
SIDE = 5
RADII = [0, 1, 2, 3]
DEGREES = [0, 1, 2]
GRID = Grid((tuple(RADII), tuple(-k for k in reversed(DEGREES))))
DEGREE_0 = len(DEGREES) - 1  # the index of -degree 0 on GRID's second axis
JITTER_TRIES = 20


def h0(points):
    """H0 over F_2 of the degree-Rips bifiltration of points on GRID."""
    d = [[max(abs(a[0] - b[0]), abs(a[1] - b[1])) for b in points] for a in points]
    return homology_module(degree_rips(metric_space(list(range(len(points))), d),
                                       RADII, DEGREES), 0, GRID, 2)


def draw_pair(rng, n):
    """H0 of a cloud of n distinct points and of a jitter of it with the
    same number of components, H0's dimension at degree 0, at every radius;
    a cloud without one in JITTER_TRIES draws is replaced."""
    while True:
        pts = set()
        while len(pts) < n:
            pts.add((int(rng.integers(0, SIDE + 1)), int(rng.integers(0, SIDE + 1))))
        cloud = sorted(pts)
        v = h0(cloud)
        for _ in range(JITTER_TRIES):
            w = h0([(x + int(rng.integers(-1, 2)), y + int(rng.integers(-1, 2)))
                    for x, y in cloud])
            if all(w.dims[(i, DEGREE_0)] == v.dims[(i, DEGREE_0)] for i in range(len(RADII))):
                return v, w


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--points", type=int, default=5, help="points per cloud, 1 to 36")
    ap.add_argument("--pairs", type=int, default=32)
    args = ap.parse_args()
    if not 1 <= args.points <= (SIDE + 1) ** 2:
        raise SystemExit(f"--points must be between 1 and {(SIDE + 1) ** 2}")
    rng = np.random.default_rng(SEED)
    pairs = [draw_pair(rng, args.points) for _ in range(args.pairs)]
    brackets, seconds = [], 0.0
    for v, w in pairs:
        t0 = time.perf_counter()
        brackets.append(distance_bracket(v, w))
        seconds += time.perf_counter() - t0
    failed = [i for i, ((v, w), b) in enumerate(zip(pairs, brackets)) if b.witness is not None
              and not verify(v, w, b.witness.eps, b.witness.f, b.witness.g).verified]
    data = "".join(dumps(bracket_to_json(b)) for b in brackets)
    print(json.dumps({"points": args.points, "pairs": args.pairs, "seconds": round(seconds, 3),
                      "exact": sum(b.exact for b in brackets),
                      "sha256": hashlib.sha256(data.encode()).hexdigest()}))
    for i in failed:
        print(f"witness of pair {i} does not verify", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
