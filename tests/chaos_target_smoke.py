#!/usr/bin/env python3
"""Chaos smoke for the serving target.

Runs ddbg_target's ring workload for one second under a fault plan, checks
the metrics JSON it writes with tools/validate_metrics.py, and fails unless
the plan demonstrably injected faults (a malformed or ignored plan would
otherwise pass as a fault-free run).

Usage:  chaos_target_smoke.py DDBG_TARGET VALIDATE_METRICS OUT_JSON
"""
import json
import subprocess
import sys

CHAOS = "drop=0.02,dup=0.02,reset=0.01"


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    target, validator, out = sys.argv[1:]
    subprocess.run([target, "--workload", "ring", "--n", "4", "--run-for", "1",
                    "--chaos", CHAOS, "--metrics-out", out],
                   check=True, timeout=120)
    subprocess.run([sys.executable, validator, out], check=True, timeout=60)
    with open(out) as f:
        runs = json.load(f)["runs"]
    injected = 0
    for run in runs:
        transport = run["metrics"]["transport"]
        injected += sum(transport["faults_injected"].values())
        print(run["label"], json.dumps(transport["faults_injected"]),
              "retransmits=%d reconnects=%d" % (transport["retransmits"],
                                                transport["reconnects"]))
    if injected == 0:
        sys.exit("chaos_target_smoke: --chaos %r injected no faults" % CHAOS)


if __name__ == "__main__":
    main()
