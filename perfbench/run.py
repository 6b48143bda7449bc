"""gptlab benchmark: train, p-tune and inference workloads, measured end to
end (untraced) and per module (traced).

Run from the repository root:

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each workload runs in its own single-process subprocess (workload.py) with
OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1 set in its environment, so BLAS is
pinned before numpy is imported; an earlier subprocess trains its untimed
fixtures. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report and the recorded environment. With
``--workload all`` the metric names are prefixed with the workload.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain", "ptune", "infer")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; stages past it are killed


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of the
    package sources either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gptlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_stage(stage: str, name: str, args, work: Path, deadline: float):
    """Run one workload.py stage to completion; returns its rusage."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(HERE / "workload.py"), "--stage", stage,
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(work)]
    # the child's report goes to stderr so that stdout ends in the result
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{stage} stage of {name} exited {proc.returncode}")
    return usage


def run_workload(name: str, args) -> dict:
    """Fixture stage, then measure stage; returns the measured result with
    the measure stage's peak RSS."""
    work = HERE / "out" / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    run_stage("fixture", name, args, work, deadline)
    usage = run_stage("measure", name, args, work, deadline)
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gptlab" / "__init__.py").is_file():
        print("error: no gptlab sources under src/; run from a checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    identity = source_identity()
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            result = run_workload(name, args)
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += len(result["failures"])
        env = dict(result["env"], **identity, workload=name, seed=args.seed,
                   machine=platform.machine())
        print(f"== {name}: {result['attempted']} checks, "
              f"{len(result['failures'])} failed "
              f"(failed_share {len(result['failures']) / result['attempted']:g})")
        print("env " + json.dumps(env, sort_keys=True))
        if result.get("unpatched"):
            print("not traced (missing): " + ", ".join(result["unpatched"]))
        for metric, unit in units.items():
            value = result["metrics"][metric]
            print(f"{name:>8s}  {metric:<36s} {value:>14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(f"total wall {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
