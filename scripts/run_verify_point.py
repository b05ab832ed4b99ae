#!/usr/bin/env python3
"""Verify point: discretize and smooth one random module and verify every
witness.

Draws a random module over F_2 with library.random_module (seed 0) on a
random grid in [0, 4]^2 with N ticks per axis (quarter steps, as
library.random_grid draws them), applies discretize and smooth at eps = 1,
1/2 and 1/4, and checks each interleaving with metric.verify.  Prints one
JSON line: the seconds the six constructions and their checks took, the
seconds verify took of them, the number of generator grades of the module
and of the six results (the points where verify compares the two sides of
a triangle, which its cost follows), the module's total dimension, and the
sha256 of the canonical JSON (serialize.dumps) of the six results, grids,
dims and steps, which stays the same as long as the output does.  Exits 1
when a witness does not verify.  tests/test_calculus.py pins the digest at
--ticks 6.

    python3 scripts/run_verify_point.py --ticks 8
"""

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

import numpy as np

from obspers.calculus import discretize, smooth
from obspers.fields import PrimeField
from obspers.library import random_grid, random_module
from obspers.metric import verify
from obspers.serialize import dumps, module_to_json

SEED = 0
EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(1, 4))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ticks", type=int, default=8, help="grid ticks per axis, 1 to 17")
    args = ap.parse_args()
    if not 1 <= args.ticks <= 17:
        raise SystemExit("--ticks must be between 1 and 17: [0, 4] has 17 quarter ticks")
    rng = np.random.default_rng(SEED)
    grid = random_grid(rng, lo=0, hi=4, min_points=args.ticks, max_points=args.ticks)
    v = random_module(PrimeField(2), rng, grid=grid)
    results, failed, verify_s = [], [], 0.0
    t0 = time.perf_counter()
    for eps in EPSILONS:
        for name, build in (("discretize", discretize), ("smooth", smooth)):
            res = build(v, eps)
            t1 = time.perf_counter()
            cert = verify(v, res.module, eps, res.f, res.g)
            verify_s += time.perf_counter() - t1
            if not cert.verified:
                failed.append(f"{name} at {eps}: {cert.violations[:1]}")
            results.append(res.module)
    seconds = time.perf_counter() - t0
    data = "".join(dumps(module_to_json(m)) for m in results)
    print(json.dumps({"ticks": args.ticks, "seconds": round(seconds, 3),
                      "verify_s": round(verify_s, 3),
                      "generators": sum(len(m._generators) for m in [v, *results]),
                      "total_dim": v.total_dim,
                      "sha256": hashlib.sha256(data.encode()).hexdigest()}))
    for line in failed:
        print(f"witness does not verify: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
