"""Record the answer digests of every pool input for the given seeds.

    python3 perfbench/record_digests.py --seeds 1,7919 [--workload compare]

Runs each job once, untimed, and stores its digest in perfbench/digests.json
under workload and seed; run.py then fails any job whose digest differs.
Re-record only when an answer is meant to change, and say why in the commit.
"""

import argparse
import json
import os
import sys

import run


def main(argv=None):
    cfg = run.load_json(run.CONFIG)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--workload", choices=list(cfg["workloads"]), action="append")
    args = ap.parse_args(argv)
    wl = run.import_obspers()
    stored = run.load_json(run.DIGESTS) if os.path.exists(run.DIGESTS) else {}
    workdir = os.path.join(run.OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in args.workload or cfg["workloads"]:
            spec = cfg["workloads"][name]
            ctx = wl.context(name, spec["params"], workdir)
            for seed in (int(s) for s in args.seeds.split(",")):
                pool, _ = wl.generate(name, spec["params"], seed, run.POOL)
                digests = [wl.run_job(name, inp, ctx) for inp in pool]
                stored.setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
                with open(run.DIGESTS, "w") as fh:
                    json.dump(stored, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        run.shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
