#!/usr/bin/env python3
"""Build and run the end-to-end in situ benchmark.

    python3 bench_e2e/run.py --workload batch-large|insitu-steered|failover \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first call configures and builds
bench_e2e/ (which compiles the hemoflow libraries from src/) into
$CARGO_TARGET_DIR/e2e, or .bench_build/e2e when that is unset; later calls
rebuild incrementally. Build output goes to stderr. The program prints a
provenance line and then every metric it measured; this script reports the
end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). A per-layer metric whose layer does not run in the workload
reports 0 and is listed in the provenance under layers_not_in_workload.
failover is not registered in BENCHMARK.json (metrics.json says why) and
reports every metric it measured.
The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[bench_e2e] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "hemo_e2e", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def revision():
    """git revision when available, plus a digest of the compiled sources
    (the checkout the benchmark runs in need not be a git repository)."""
    rev = "nogit"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.join("bench_e2e", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"git:{rev} src:{digest.hexdigest()[:12]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["batch-large", "insitu-steered", "failover"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configuration for the benchmark's own tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("hemoflow sources (src/) not found beside bench_e2e/")
        return 3
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.abspath(os.path.join(ROOT, target))
    build_dir = os.path.join(build_root, "e2e")
    if not build(build_dir):
        log("build failed")
        return 3

    workdir = os.path.join(build_root, "run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(build_dir, "hemo_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--rev", revision()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log(f"benchmark exited with code {proc.returncode}")
        return proc.returncode or 4
    try:
        prov = json.loads(lines[-2])
        result = json.loads(lines[-1])
        assert set(prov) == {"provenance"}
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        log("benchmark did not end with a provenance and a result line")
        return 4
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        for line in lines:
            print(line)
        return 0
    declared = bench["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    metrics, not_run = {}, []
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name not in measured:
            if not args.trace:
                log(f"end-to-end metric {name} was not measured")
                return 4
            not_run.append(name)
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if measured[name]["unit"] != unit:
            log(f"metric {name} measured in {measured[name]['unit']}, "
                f"declared in {unit}")
            return 4
        metrics[name] = measured[name]
    prov["provenance"]["layers_not_in_workload"] = " ".join(not_run)
    result["metrics"] = metrics
    for line in lines[:-2]:
        print(line)
    print(json.dumps(prov))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
