#!/usr/bin/env python3
"""Builds culevo_bench from source and runs it.

Run from the root of a checkout:

  python3 culevo_bench/run.py --workload serve_lookup --seed 42 --seconds 10 --trace 0
  python3 culevo_bench/run.py --smoke

The build goes to .bench_build/culevo_bench (cmake configure once, then an
incremental build on every run); its output goes to stderr so that the
benchmark's last line of stdout stays the JSON result. The benchmark runs
in its own process group, which is killed if it overruns its time limit.

--smoke runs every workload, untraced and traced, on tiny inputs with
1-second phases, checks that each run prints exactly the metrics that
BENCHMARK.json names (with the same units) and passes its correctness
checks, and checks that a deliberately corrupted reference response makes
the response check fail.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "culevo_bench")
BINARY = os.path.join(BUILD, "culevo_bench")
RUN_LIMIT_S = 175
WORKLOADS = ["serve_lookup", "serve_reload", "evolve_grid", "evolve_fabric"]


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "culevo_bench"],
        stdout=sys.stderr, check=True)


def run_bench(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    proc = subprocess.Popen([BINARY] + args, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"culevo_bench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1, None
    finally:
        # Children that outlive the benchmark (they should not) go too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.decode() if capture else None


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload, "--seed", "42", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            code, out = run_bench(args, capture=True)
            sys.stderr.write(out or "")
            name = f"{workload} trace={trace}"
            if code != 0 or not out:
                failures.append(f"{name}: exit {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{name}: metrics {sorted(set(got) ^ set(want))}"
                                " or their units differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{name}: {result}")
    for workload in ("serve_lookup", "serve_reload"):
        code, out = run_bench(["--workload", workload, "--seed", "42",
                               "--seconds", "1", "--trace", "0", "--smoke",
                               "--corrupt-reference"], capture=True)
        result = json.loads(out.strip().splitlines()[-1]) if out else {}
        if code != 1 or result.get("correct") is not False:
            failures.append(f"{workload}: a corrupted reference byte was not "
                            f"detected (exit {code})")
    for failure in failures:
        print("SMOKE FAILURE:", failure, file=sys.stderr)
    print("smoke:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"culevo_bench: build failed: {error}", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--smoke"]:
        return smoke()
    code, _ = run_bench(sys.argv[1:])
    return code


if __name__ == "__main__":
    sys.exit(main())
