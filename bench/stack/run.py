#!/usr/bin/env python3
"""Build and run the stack benchmark.

Usage, from the repository root:

    python3 bench/stack/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/stack/run.py --smoke [--binary PATH]

The first form configures and builds the bench/stack package (Release) into
.bench_build/stack, then runs stack_bench with the given arguments; the last
line it prints is the JSON result.  The second runs every workload that
BENCHMARK.json names for two jobs, untraced and traced, and checks that each
run is correct and prints exactly the metrics BENCHMARK.json lists, each
with its unit.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "stack"


def build():
    """Build stack_bench from the repository sources; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no repository sources under {ROOT / 'src'}; cannot build")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", str(BUILD), "--target", "stack_bench", "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: building stack_bench failed")
    return BUILD / "stack_bench"


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = Path(binary).resolve().parent / "stack-smoke"
    problems = []
    runs = 0
    start = time.monotonic()
    for workload in spec["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            proc = subprocess.run(
                [str(binary), "--workload", workload["name"], "--seed", "1",
                 "--seconds", "1", "--trace", trace, "--smoke", "--scratch", str(scratch)],
                capture_output=True, text=True)
            runs += 1
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no JSON result (exit {proc.returncode})\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            if proc.returncode != 0 or result["correct"] is not True or result["failed"]:
                problems.append(f"{label}: incorrect run (exit {proc.returncode})\n"
                                + "\n".join(lines[-40:]))
            if result["attempted"] < 1:
                problems.append(f"{label}: no job attempted")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            for name in sorted(set(want) - set(got)):
                problems.append(f"{label}: metric {name} not printed")
            for name in sorted(set(got) - set(want)):
                problems.append(f"{label}: metric {name} not in BENCHMARK.json")
            for name in sorted(set(want) & set(got)):
                value, unit = got[name]["value"], got[name]["unit"]
                if unit != want[name]:
                    problems.append(f"{label}: {name} unit {unit}, expected {want[name]}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} value {value!r} is not a number")
    print(f"smoke: {runs} runs in {time.monotonic() - start:.1f} s")
    for p in problems:
        print(f"smoke: {p}")
    return 1 if problems else 0


def main(argv):
    if argv and argv[0] == "--smoke":
        binary = argv[argv.index("--binary") + 1] if "--binary" in argv else build()
        return smoke(binary)
    binary = build()
    scratch = ROOT / ".bench_build" / "stack-run"
    return subprocess.run([str(binary), *argv, "--scratch", str(scratch)]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
