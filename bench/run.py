"""resdyn benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload {recipes,sweep,oracle} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; resdyn is imported from ``src``.
A run repeats passes of the workload's round of operations until ``S``
seconds have gone by (at least three untraced passes, or one untraced and
one traced pass with ``--trace 1``).  Each pass is a fresh interpreter
(see passrun.py).  The outputs are then checked (see checks.py) and the
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
passes; with ``--trace 1`` the per-layer ones from the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, SRC)  # the checks call resdyn outside the timed passes

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {f"recipe.{name}.s": "s" for name in workloads.RECIPES}
PER_LAYER.update({
    "cli.self.s": "s",
    "cli.sweep.parallelism": "ratio",
    "cli.out.bytes": "B",
    "lattice.component.calls": "count",
    "lattice.component.s": "s",
    "lattice.ratio.calls": "count",
    "lattice.ratio.s": "s",
    "lattice.direct.calls": "count",
    "lattice.direct.s": "s",
    "lattice.spectrum.calls": "count",
    "lattice.spectrum.s": "s",
    "friedrichs.poles.calls": "count",
    "friedrichs.poles.s": "s",
    "friedrichs.component.calls": "count",
    "friedrichs.component.s": "s",
    "friedrichs.component.quad_calls": "count",
    "friedrichs.cut.calls": "count",
    "friedrichs.cut.s": "s",
    "kernel.quad.calls": "count",
    "kernel.quad.evals": "count",
    "kernel.quad.self_s": "s",
    "kernel.quad.refine_ratio": "ratio",
    "kernel.j1.calls": "count",
    "kernel.j1.points": "count",
    "kernel.j1.s": "s",
    "kernel.gamma.calls": "count",
    "kernel.roots.calls": "count",
    "kernel.roots.s": "s",
    "kernel.roots.failed": "count",
    "kernel.erfc.calls": "count",
    "kernel.erfc.s": "s",
    "oracle.build.s": "s",
    "oracle.propagate.calls": "count",
    "oracle.propagate.s": "s",
    "oracle.propagate.peak_mb": "MB",
    "trace.overhead_s": "s",
})

MIN_PASSES = 3
SETUP_SAMPLES = 4  # set-up-only launches per run, besides the passes
PASS_TIMEOUT_S = 170


class HarnessError(Exception):
    """The benchmark itself could not run (not a program fault)."""


def run_pass(ops_path, pass_dir, mode="plain"):
    """Run one pass in a fresh interpreter; return its result dict.

    ``mode`` is "plain", "traced" or "setup" (stop once ready).
    """
    os.makedirs(pass_dir)
    result_path = os.path.join(pass_dir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "passrun.py"),
           "--ops", ops_path, "--out-dir", pass_dir, "--result", result_path,
           "--src", SRC]
    if mode == "traced":
        cmd += ["--spans", os.path.join(pass_dir, "spans.npz")]
    elif mode == "setup":
        cmd += ["--setup-only"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, BENCH_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"pass exited {proc.returncode}: {proc.stderr}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup"] = result["ready"] - spawned
    result["traced"] = mode == "traced"
    result["dir"] = pass_dir
    return result


def _error_name(stderr):
    for line in reversed(stderr.splitlines()):
        try:
            return json.loads(line)["error"]
        except (ValueError, KeyError, TypeError):
            continue
    return None


def account(ops, passes):
    """(attempted, failed, notes) over all passes.

    An operation fails when the CLI exits non-zero.  An operation named in
    ``expect`` is a known fault; any other failure is reported on stderr.
    """
    attempted = failed = 0
    notes = []
    for res in passes:
        for op, outcome in zip(ops, res["ops"]):
            attempted += 1
            if outcome["rc"] == 0:
                continue
            failed += 1
            err = _error_name(outcome["stderr"])
            if err != op["expect"]:
                notes.append(f"{op['name']}: exit {outcome['rc']} ({err}) "
                             f"{outcome['stderr'].strip()[-300:]}")
    return attempted, failed, notes


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_passes(ops, passes, work_dir):
    """Check the first pass's outputs; later passes must match byte for byte."""
    recipe_dir = os.path.join(SRC, "resdyn", "recipes")
    first = passes[0]
    for i, op in enumerate(ops):
        if first["ops"][i]["rc"] != 0:
            continue
        checks.check_output(op, first["dir"], work_dir, recipe_dir)
        names = [op["out"]]
        if os.path.exists(os.path.join(first["dir"], op["out"] + ".zeno.json")):
            names.append(op["out"] + ".zeno.json")
        for res in passes[1:]:
            if res["ops"][i]["rc"] != 0:
                raise checks.CheckFailed(f"{op['name']}: fails in one pass only")
            for name in names:
                if _read(os.path.join(res["dir"], name)) != \
                        _read(os.path.join(first["dir"], name)):
                    raise checks.CheckFailed(
                        f"{op['name']}: {name} differs between passes")


def end_to_end(passes, setups):
    plain = [p for p in passes if not p["traced"]]
    values = {"setup_s": [p["setup"] for p in plain] + setups,
              "wall_s": [p["wall"] for p in plain],
              "cpu_s": [p["cpu"] for p in plain],
              "peak_rss_mb": [p["rss_mb"] for p in plain]}
    return {k: statistics.median(v) for k, v in values.items()}


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name in PER_LAYER:
        vals = [p["layers"][name] for p in traced if name in p["layers"]]
        if len(vals) == len(traced):
            out[name] = statistics.median(vals)
        elif name != "trace.overhead_s":
            print(f"per-layer metric {name} is absent: its layer's functions "
                  "no longer exist", file=sys.stderr)
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in plain))
    return out


def run(workload, seed, seconds, trace, size="full"):
    if not os.path.isfile(os.path.join(SRC, "resdyn", "cli.py")):
        raise HarnessError(f"no resdyn sources under {SRC}")
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    try:
        ops = workloads.make_ops(workload, seed, work_dir, size)
        ops_path = os.path.join(work_dir, "ops.json")
        with open(ops_path, "w") as fh:
            json.dump(ops, fh)

        passes = []
        started = time.monotonic()
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            passes.append(run_pass(ops_path, os.path.join(
                work_dir, f"pass{len(passes)}"),
                "traced" if traced else "plain"))
            done = time.monotonic() - started >= seconds
            # a traced run ends on a traced pass, an untraced one after
            # MIN_PASSES passes at least
            if done and (traced if trace else len(passes) >= MIN_PASSES):
                break
        setups = [] if trace else [
            run_pass(ops_path, os.path.join(work_dir, f"setup{i}"),
                     "setup")["setup"] for i in range(SETUP_SAMPLES)]

        attempted, failed, notes = account(ops, passes)
        for note in notes:
            print(f"unexpected failure: {note}", file=sys.stderr)
        correct = True
        checked = time.monotonic()
        try:
            check_passes(ops, passes, work_dir)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        walls = ", ".join(f"{p['wall']:.2f}" for p in passes)
        print(f"{len(passes)} passes in {checked - started:.1f} s (walls "
              f"{walls} s), checks in {time.monotonic() - checked:.1f} s",
              file=sys.stderr)

        if trace:
            metrics, units = per_layer(passes), PER_LAYER
            spans = next(p["dir"] for p in passes if p["traced"])
            shutil.copy(os.path.join(spans, "spans.npz"), os.path.join(
                OUT, f"spans-{workload}-seed{seed}.npz"))
        else:
            metrics, units = end_to_end(passes, setups), END_TO_END
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in metrics.items()}}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     args.size)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
