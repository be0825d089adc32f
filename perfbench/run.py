#!/usr/bin/env python3
"""Build and run the sov benchmark; print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds `perfbench/` (a cargo
package of its own) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload, checks its output digest against
`perfbench/reference.json`, and prints as its last stdout line
`{"correct", "attempted", "failed", "metrics"}` with every end-to-end
metric of `BENCHMARK.json` (`--trace 0`) or every per-layer one
(`--trace 1`; a layer the workload does not run reads 0). It exits 1,
after printing, when any output digest or exact counter is wrong, and
exits 1 without printing when the build fails.

Maintenance modes:

    --record N       re-record the reference digests of seeds 0..N-1
    --check-exact    run every workload twice on one seed and assert that
                     the exact counters repeat
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# Counters that must read the same on two runs of one seed. The serial
# workloads also repeat their allocation counts and peak heap exactly.
EXACT = {
    "fleet_city": ["fleet.distance_evals", "fleet.dispatched", "fleet.fallback_searches",
                   "fleet.requeues", "fleet.route_misses"],
    "fleet_sprawl": ["fleet.distance_evals", "fleet.dispatched", "fleet.fallback_searches",
                     "fleet.requeues", "fleet.route_misses", "process.allocs_per_step",
                     "peak_heap_mb"],
    "drive_fuzz": ["drive.deadline_misses", "drive.mode_transitions", "drive.frames_shed",
                   "drive.safety_violations", "process.allocs_per_step", "peak_heap_mb"],
    "perception_frame": ["lidar.voxels", "lidar.clusters", "process.allocs_per_step",
                         "peak_heap_mb"],
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
        fail("benchmark build failed")
    target = Path(env["CARGO_TARGET_DIR"])
    return str((target if target.is_absolute() else ROOT / target) / "release" / "sov-perfbench")


def run_bin(binary, args):
    proc = subprocess.run([binary, *args], cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark binary printed nothing (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def measure(binary, reference, workload, seed, seconds, trace):
    """One run: (whether every check passed, the binary's JSON output)."""
    expected = reference["digests"].get(workload, {}).get(str(seed))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if expected:
        args += ["--expect", expected]
    code, raw = run_bin(binary, args)
    if code != 0:
        fail(f"benchmark binary exited {code}")
    correct = raw["failed"] == 0 and raw["exact_repeats"]
    if expected is None:
        # No digest recorded for this seed: also check the workload on the
        # seed whose digest is recorded.
        vseed = str(reference["verify_seed"])
        code, _ = run_bin(binary, ["--workload", workload, "--seed", vseed, "--verify",
                                   "--expect", reference["digests"][workload][vseed]])
        if code != 0:
            correct = False
            raw["failed"] = raw["attempted"]
    if trace and raw["metrics"]["trace.residual_frac"]["value"] > reference["residual_bound"]:
        correct = False
    return correct, raw


def result_line(bench, raw, correct, trace):
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for spec in specs:
        got = raw["metrics"].get(spec["name"])
        if got is None and not trace:
            fail(f"benchmark binary did not report {spec['name']}")
        if got is not None and got["unit"] != spec["unit"]:
            fail(f"{spec['name']}: unit {got['unit']} != {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"] if got else 0.0, "unit": spec["unit"]}
    extra = set(raw["metrics"]) - set(metrics)
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    return {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def record(binary, reference, seeds):
    for workload in EXACT:
        table = reference["digests"].setdefault(workload, {})
        for seed in range(seeds):
            _, out = run_bin(binary, ["--workload", workload, "--seed", str(seed), "--verify"])
            table[str(seed)] = out["digest"]
            print(workload, seed, out["digest"], file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")


def check_exact(binary, reference, seconds):
    ok = True
    for workload, names in EXACT.items():
        runs = []
        for _ in range(2):
            merged = {}
            for trace in (0, 1):
                correct, raw = measure(binary, reference, workload, 1, seconds, trace)
                ok &= correct
                merged.update({k: v["value"] for k, v in raw["metrics"].items()})
            runs.append(merged)
        for name in names:
            same = runs[0][name] == runs[1][name]
            ok &= same
            print(f"{workload:17} {name:28} {runs[0][name]!r:>22} {runs[1][name]!r:>22}"
                  f" {'exact' if same else 'DIFFERS'}")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=int, metavar="N")
    ap.add_argument("--check-exact", action="store_true")
    a = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())
    binary = build()
    if a.record is not None:
        return record(binary, reference, a.record)
    if a.check_exact:
        return check_exact(binary, reference, a.seconds)
    if a.workload not in EXACT:
        fail(f"unknown workload {a.workload!r}")

    correct, raw = measure(binary, reference, a.workload, a.seed, a.seconds, a.trace)
    print(f"{a.workload} seed {a.seed}: digest {raw['digest']}, {raw['episodes']} episodes, "
          f"{raw['steps']} timed steps; step_tail_ms is p{raw['tail_pct']:g} with "
          f"{raw['tail_beyond']:g} samples beyond it", file=sys.stderr)
    print(json.dumps(result_line(bench, raw, correct, a.trace)))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
