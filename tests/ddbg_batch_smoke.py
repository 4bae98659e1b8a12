#!/usr/bin/env python3
"""Batch debugger sessions against a live token ring.

Starts ddbg_target's ring workload, runs the scripted command cycle in
examples/smoke.ddbg through `ddbg --batch`, then four concurrent sessions
that each inspect, halt, read the state and resume.  Each session must
exit 0 (its --assert substrings found) and print a halt and a resume.
Then the target is stopped through its stop file and the metrics JSON it
writes is checked with tools/validate_metrics.py.  Finally a greedy
resource ring is started and examples/deadlock.ddbg must find its
circular wait ("DEADLOCK: cycle").

Usage:  ddbg_batch_smoke.py DDBG_TARGET DDBG SMOKE_SCRIPT DEADLOCK_SCRIPT
                            VALIDATE_METRICS WORKDIR
"""
import os
import shutil
import subprocess
import sys
import time

SESSIONS = 4


def ddbg(binary, port_file, script, asserts):
    cmd = [binary, "--port-file", port_file, "--batch", script]
    for text in asserts:
        cmd += ["--assert", text]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def finish(proc, name):
    out, _ = proc.communicate(timeout=120)
    if proc.returncode != 0:
        sys.exit("ddbg_batch_smoke: %s exited %d:\n%s"
                 % (name, proc.returncode, out))
    return out


def wait_for_file(path, target, seconds=60):
    """Wait until the target has published `path` (or has exited)."""
    deadline = time.monotonic() + seconds
    while not os.path.exists(path):
        if target.poll() is not None:
            sys.exit("ddbg_batch_smoke: ddbg_target exited %d before "
                     "publishing %s" % (target.returncode, path))
        if time.monotonic() > deadline:
            sys.exit("ddbg_batch_smoke: no port file at %s" % path)
        time.sleep(0.01)


def deadlock_verdict(target_bin, ddbg_bin, script, workdir):
    port_file = os.path.join(workdir, "resources.port")
    stop_file = os.path.join(workdir, "resources.stop")
    target = subprocess.Popen(
        [target_bin, "--workload", "resources", "--n", "4",
         "--port-file", port_file, "--stop-file", stop_file,
         "--run-for", "120"])
    try:
        wait_for_file(port_file, target)
        finish(ddbg(ddbg_bin, port_file, script, ["DEADLOCK: cycle"]),
               "deadlock.ddbg")
        open(stop_file, "w").close()
        if target.wait(timeout=60) != 0:
            sys.exit("ddbg_batch_smoke: resource ring target exited %d"
                     % target.returncode)
    finally:
        if target.poll() is None:
            target.kill()
            target.wait()


def main():
    if len(sys.argv) != 7:
        sys.exit(__doc__)
    (target_bin, ddbg_bin, smoke, deadlock, validator,
     workdir) = sys.argv[1:]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    port_file = os.path.join(workdir, "port")
    stop_file = os.path.join(workdir, "stop")
    metrics = os.path.join(workdir, "metrics.json")

    target = subprocess.Popen(
        [target_bin, "--workload", "ring", "--n", "6",
         "--port-file", port_file, "--stop-file", stop_file,
         "--run-for", "120", "--metrics-out", metrics])
    try:
        finish(ddbg(ddbg_bin, port_file, smoke,
                    ["halted: wave", "no deadlock", "resumed"]), "smoke.ddbg")
        clients = []
        for i in range(SESSIONS):
            script = os.path.join(workdir, "session_%d.ddbg" % i)
            with open(script, "w") as f:
                f.write("inspect %d\nhalt\nstate\nresume\nquit\n" % i)
            clients.append(ddbg(ddbg_bin, port_file, script,
                                ["halted: wave"]))
        for i, client in enumerate(clients):
            out = finish(client, "session %d" % i)
            if "resumed" not in out:
                sys.exit("ddbg_batch_smoke: session %d did not resume:\n%s"
                         % (i, out))
        open(stop_file, "w").close()
        if target.wait(timeout=60) != 0:
            sys.exit("ddbg_batch_smoke: ddbg_target exited %d"
                     % target.returncode)
    finally:
        if target.poll() is None:
            target.kill()
            target.wait()
    subprocess.run([sys.executable, validator, metrics], check=True,
                   timeout=60)
    deadlock_verdict(target_bin, ddbg_bin, deadlock, workdir)


if __name__ == "__main__":
    main()
