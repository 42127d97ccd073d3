#!/usr/bin/env python3
"""Builds the benchmark driver from source (Release) and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); host-time spans and a result file with
the run metadata go to .bench_out/. The last stdout line is the result JSON
(correct, attempted, failed, metrics). The exit status is non-zero if the
build fails or any correctness check fails.
"""
import argparse
import ctypes
import json
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["keepalive-100k", "rack-read", "store-browse-buy", "omp-16core"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench_driver"],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench_driver"


ADDR_NO_RANDOMIZE = 0x0040000


def no_aslr():
    """Runs in the driver's process before exec. With the address space laid
    out the same way in every run, sub-millisecond set-up times stop jumping
    with the layout. A host that refuses leaves randomization on; the driver
    reports which (aslr=on|off)."""
    personality = ctypes.CDLL(None).personality
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def run_one(driver, workload, seed, seconds, trace, out_dir):
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                          preexec_fn=no_aslr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        raise RuntimeError(f"{workload}: driver printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload}: malformed result line")
    meta = {}
    header = next((l for l in lines if l.startswith("perfbench: ")), "")
    for key, quoted, bare in re.findall(r'(\w+)=(?:"([^"]*)"|(\S+))', header):
        meta[key] = quoted or bare
    digests = [l for l in lines if l.startswith("digest: ")]
    tag = f"{workload}-s{seed}-t{trace}"
    with open(out_dir / f"result-{tag}.json", "w") as f:
        json.dump({"meta": meta, "digests": digests, "result": result}, f, indent=1)
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        try:
            rc, result = run_one(driver, w, args.seed, args.seconds, args.trace, out_dir)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            log(f"{w}: {e}")
            return 1
        status = status or rc
        combined["correct"] = combined["correct"] and result["correct"] and rc == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][name if len(workloads) == 1 else f"{w}.{name}"] = m
    print(json.dumps(combined))
    return 1 if status or not combined["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
