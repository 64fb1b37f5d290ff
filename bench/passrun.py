"""One timed pass: a fresh interpreter runs a round of resdyn CLI operations.

    python3 bench/passrun.py --ops OPS.json --out-dir DIR --result RES.json \
        --src SRC [--spans SPANS.npz | --setup-only]

Every resdyn invocation starts cold (module-level caches empty), so every
pass is its own interpreter.  The result file holds the moment the pass
was ready (``time.monotonic``, comparable with the parent's clock), the
wall and CPU time of the operations (CPU over all threads, BLAS and sweep
workers included), the peak resident set, and each operation's exit code
and stderr.  With ``--spans`` the layers are traced (see spans.py) and the
per-layer metrics are added.  With ``--setup-only`` the pass stops once it
is ready, which gives further samples of the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True,
                        help="the src directory resdyn must be imported from")
    parser.add_argument("--spans", help="trace the layers; write spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the workload is ready")
    args = parser.parse_args(argv)

    import resdyn
    import resdyn.cli as cli

    src = os.path.realpath(args.src)
    if not os.path.realpath(resdyn.__file__).startswith(src + os.sep):
        sys.stderr.write(f"resdyn imported from {resdyn.__file__}, "
                         f"not from {src}\n")
        return 2
    with open(args.ops) as fh:
        ops = json.load(fh)

    rec = wrapped = None
    if args.spans:
        import spans
        rec = spans.Recorder()
        wrapped = spans.install(rec)
    ready = time.monotonic()
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump({"ready": ready}, fh)
        return 0

    outcomes = []
    for op in ops:
        argv_op = op["argv"] + ["--out", os.path.join(args.out_dir, op["out"])]
        err = io.StringIO()
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            if rec is None:
                rc = cli.main(argv_op)
            else:
                rc = rec.run_op(op["name"], op["sweep"], cli.main, argv_op)
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        outcomes.append({"rc": rc, "stderr": err.getvalue(), "wall": wall,
                         "cpu": cpu})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"ready": ready, "wall": sum(o["wall"] for o in outcomes),
              "cpu": sum(o["cpu"] for o in outcomes), "rss_mb": rss_mb,
              "ops": outcomes}
    if rec is not None:
        from workloads import RECIPES
        layers = spans.layer_metrics(rec, wrapped, RECIPES)
        layers["cli.out.bytes"] = sum(
            os.path.getsize(os.path.join(args.out_dir, f))
            for f in os.listdir(args.out_dir))
        result["layers"] = layers
        rec.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
