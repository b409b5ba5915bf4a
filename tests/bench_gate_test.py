#!/usr/bin/env python3
"""Pins four rules of tools/bench_gate.py: the gate compares the median
of a series' repetition rows, not the last row or the mean; it gates
UseRealTime series on real_time, other series on cpu_time; it refuses
(exit 2) a fresh file stamped with a different core count than its
baseline; and --planner-contract holds the auto arm to the reference
and interval arms.

    tests/bench_gate_test.py tools/bench_gate.py

The fixture baseline (tests/bench_gate/BENCH_fixture.json) holds one
sample per series at 100ns.  The fresh file repeats BM_Noisy/100 three
times (104, 106, 1000ns) and keeps BM_Steady/100 at one sample (110ns).
The median, 106ns, is +6%: under the default 25% threshold that
passes, although the last row and the mean would both fail; under a 5%
threshold it fails, although the fastest row (+4%) would pass.

The threaded fixture (tests/bench_gate/BENCH_threaded.json vs
fresh_threaded.json) doubles the wall time of BM_Pool/4/real_time,
22.7 -> 45.4ms, while its calling thread's cpu_time moves 1.27 ->
1.30ms (+2.4%): gated on cpu_time it would pass, on real_time it fails.
BM_Loop/real_time/threads:4 (the name shape of a ->Threads(N) arm)
does the same, 30 -> 60us against 7.0 -> 7.1us.  BM_Serial/1 triples
its real_time but keeps cpu_time within 5%, and passes: a series
without UseRealTime stays on cpu_time.

The core-count fixture (fresh_other_cores.json) matches the 1-core
baseline's timings exactly but says num_cpus 4: the gate refuses it.

The planner fixtures each serve as their own baseline, so only the
contract can fail them.  Each has two workloads with reference,
interval and auto arms.  planner_pass.json keeps auto within 5% of the
best fixed arm and beats each fixed arm once: exit 0.  In
planner_over_margin.json auto is 20% over reference on one workload:
exit 1.  In planner_unbeaten.json auto never beats reference: exit 1.
"""

import os
import subprocess
import sys


def run_gate(gate, fixtures, *extra, baseline="BENCH_fixture.json",
             fresh="fresh_repetitions.json"):
    proc = subprocess.run(
        [sys.executable, gate,
         "--baseline-dir", fixtures,
         "--fresh", baseline + "=" + os.path.join(fixtures, fresh),
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

    code, out = run_gate(gate, fixtures, baseline="BENCH_threaded.json",
                         fresh="fresh_threaded.json")
    expect(code == 1, f"real-time series: want exit 1, got {code}", out)
    expect("  REGRESS  BM_Pool/4/real_time: 22700000ns -> 45400000ns "
           "(+100.0%)" in out,
           "UseRealTime series gated on real_time", out)
    expect("  REGRESS  BM_Loop/real_time/threads:4: 30000ns -> 60000ns "
           "(+100.0%)" in out,
           "threaded UseRealTime series gated on real_time", out)
    expect("  OK       BM_Serial/1: 10000000ns -> 10500000ns (+5.0%)" in out,
           "other series still gated on cpu_time", out)

    code, out = run_gate(gate, fixtures, fresh="fresh_other_cores.json")
    expect(code == 2, f"mismatched core counts: want exit 2, got {code}", out)
    expect("recorded on 4 cores but the baseline" in out,
           "core-count refusal names both counts", out)

    def run_contract(fixture):
        return run_gate(gate, fixtures, "--planner-contract",
                        baseline=fixture, fresh=fixture)

    code, out = run_contract("planner_pass.json")
    expect(code == 0, f"planner contract held: want exit 0, got {code}", out)
    expect("  OK       planner cheap/8192/256: auto 105000ns vs best fixed "
           "(reference) 100000ns (+5.0%)" in out,
           "contract line names the best fixed arm", out)
    expect("VIOLATE" not in out and "dense" not in out,
           "reference and interval are the only fixed arms", out)

    code, out = run_contract("planner_over_margin.json")
    expect(code == 1, f"auto over the margin: want exit 1, got {code}", out)
    expect("planner-contract: cheap/8192/256: auto loses 20.0% to "
           "reference (allowed 10%)" in out,
           "margin violation names the workload and the arm", out)

    code, out = run_contract("planner_unbeaten.json")
    expect(code == 1, f"unbeaten fixed arm: want exit 1, got {code}", out)
    expect("auto never beats fixed strategy 'reference' on any workload"
           in out, "unbeaten arm reported", out)
    expect("'interval'" not in out, "the beaten arm is not reported", out)

    for failure in failures:
        print("FAIL:", failure)
    if failures:
        return 1
    print("bench_gate_test: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
