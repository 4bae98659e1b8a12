#!/usr/bin/env python3
"""Record/replay round trip against a live TCP target.

Records a chaos ring (drop + delay faults) with one driven halt wave through
ddbg_target, then re-executes the log twice in the simulator with
replay_run, which checks that the two replays are byte-identical.  The
report must show zero divergences and the recorded cut matched.  Both
metrics files (the recording target's and the replay's) are checked with
tools/validate_metrics.py.  Finally a fresh target loads the log through
the session protocol and time-travels back to the recorded cut.

Usage:  replay_smoke.py DDBG_TARGET DDBG REPLAY_RUN VALIDATE_METRICS WORKDIR
"""
import os
import shutil
import subprocess
import sys
import time


def fail(message):
    sys.exit("replay_smoke: " + message)


def batch(ddbg_bin, port_file, script_path, lines, asserts):
    with open(script_path, "w") as f:
        f.write("".join(line + "\n" for line in lines))
    cmd = [ddbg_bin, "--port-file", port_file, "--batch", script_path]
    for text in asserts:
        cmd += ["--assert", text]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=120)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s"
             % (os.path.basename(script_path), proc.returncode, proc.stdout))


def stop(target, stop_file, name):
    open(stop_file, "w").close()
    if target.wait(timeout=60) != 0:
        fail("%s exited %d" % (name, target.returncode))


def kill_if_running(target):
    if target is not None and target.poll() is None:
        target.kill()
        target.wait()


def main():
    if len(sys.argv) != 6:
        sys.exit(__doc__)
    target_bin, ddbg_bin, replay_bin, validator, workdir = sys.argv[1:]
    shutil.rmtree(workdir, ignore_errors=True)
    record = os.path.join(workdir, "record")
    os.makedirs(record)
    log = os.path.join(record, "replay.log")
    target_metrics = os.path.join(record, "target_metrics.json")
    replay_metrics = os.path.join(record, "replay_metrics.json")
    report = os.path.join(record, "report.txt")

    # 1. Record a chaos run with a halt wave.
    port_file = os.path.join(record, "port")
    stop_file = os.path.join(record, "stop")
    target = subprocess.Popen(
        [target_bin, "--workload", "ring", "--n", "4",
         "--record", record,
         "--chaos", "drop=0.03,delay=0.05,extra_delay=2ms", "--seed", "5",
         "--port-file", port_file, "--stop-file", stop_file,
         "--run-for", "120", "--metrics-out", target_metrics])
    try:
        batch(ddbg_bin, port_file, os.path.join(record, "halt.ddbg"),
              ["halt", "state", "resume", "quit"],
              ["halted: wave", "resumed"])
        time.sleep(1)  # some post-resume traffic into the log
        stop(target, stop_file, "recording ddbg_target")
    finally:
        kill_if_running(target)
    if not os.path.isfile(log) or os.path.getsize(log) == 0:
        fail("recording left no replay log at " + log)

    # 2. Replay twice in the simulator; replay_run diffs the two runs.
    proc = subprocess.run(
        [replay_bin, "--log", log, "--runs", "2", "--report-out", report,
         "--metrics-out", replay_metrics],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300)
    if proc.returncode != 0:
        fail("replay_run exited %d:\n%s" % (proc.returncode, proc.stdout))
    with open(report) as f:
        text = f.read()
    for needle in ("divergences=0", "cuts_matched=1/1"):
        if needle not in text:
            fail("report lacks %r:\n%s" % (needle, text))

    # 3. Both metrics files against the schema.
    subprocess.run([sys.executable, validator, target_metrics,
                    replay_metrics], check=True, timeout=60)

    # 4. Time-travel through the session protocol on a fresh target.
    port_file = os.path.join(workdir, "travel.port")
    stop_file = os.path.join(workdir, "travel.stop")
    target = subprocess.Popen(
        [target_bin, "--workload", "ring", "--n", "4",
         "--port-file", port_file, "--stop-file", stop_file,
         "--run-for", "120"])
    try:
        batch(ddbg_bin, port_file, os.path.join(workdir, "travel.ddbg"),
              ["replay load " + log, "replay run", "replay back",
               "replay status", "quit"],
              ["cuts_matched=1/1", "time-traveled to cut 1/1",
               "halted_at_cut"])
        stop(target, stop_file, "time-travel ddbg_target")
    finally:
        kill_if_running(target)


if __name__ == "__main__":
    main()
