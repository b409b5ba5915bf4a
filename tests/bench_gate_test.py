#!/usr/bin/env python3
"""Pins tools/bench_gate.py's rule for repeated series: the gate compares
the median of a series' repetition rows, not the last row or the mean.

    tests/bench_gate_test.py tools/bench_gate.py

The fixture baseline (tests/bench_gate/BENCH_fixture.json) holds one
sample per series at 100ns.  The fresh file repeats BM_Noisy/100 three
times (104, 106, 1000ns) and keeps BM_Steady/100 at one sample (110ns).
The median, 106ns, is +6%: under the default 25% threshold that
passes, although the last row and the mean would both fail; under a 5%
threshold it fails, although the fastest row (+4%) would pass.
"""

import os
import subprocess
import sys


def run_gate(gate, fixtures, *extra):
    proc = subprocess.run(
        [sys.executable, gate,
         "--baseline-dir", fixtures,
         "--fresh", "BENCH_fixture.json=" +
         os.path.join(fixtures, "fresh_repetitions.json"),
         *extra],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    if len(sys.argv) != 2:
        print("usage: bench_gate_test.py <path to tools/bench_gate.py>")
        return 2
    gate = sys.argv[1]
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "bench_gate")
    failures = []

    def expect(cond, what, output):
        if not cond:
            failures.append(f"{what}\n--- gate output ---\n{output}")

    code, out = run_gate(gate, fixtures)
    expect(code == 0, f"default threshold: want exit 0, got {code}", out)
    expect("  OK       BM_Noisy/100: 100ns -> 106ns (+6.0%) "
           "[median of 1 vs 3 samples]" in out,
           "repeated series gated on its median, with the sample count", out)
    expect("  OK       BM_Steady/100: 100ns -> 110ns (+10.0%)\n" in out,
           "single-sample series reported as before", out)
    expect("_mean" not in out and "_median" not in out,
           "aggregate rows skipped", out)

    code, out = run_gate(gate, fixtures, "--threshold", "0.05")
    expect(code == 1, f"5% threshold: want exit 1, got {code}", out)
    expect("BM_Noisy/100 +6.0%" in out, "median regression reported", out)

    for failure in failures:
        print("FAIL:", failure)
    if failures:
        return 1
    print("bench_gate_test: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
