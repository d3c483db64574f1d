#!/usr/bin/env python3
"""Run one CIAO benchmark workload and print its metrics.

    python3 ciaobench/run.py --workload winlog-A-skip --seed 1 --seconds 16 --trace 0
    python3 ciaobench/run.py --self-test [--workload winlog-A-skip]
    python3 ciaobench/run.py --derive
    python3 ciaobench/run.py --calibrate

Run from the root of a checkout. The first call builds the program and the
benchmark from source with sbt (offline) and caches the classpath under
.bench_build/ciaobench, keyed by a hash of the sources; later calls start
the benchmark JVM directly. The last line of standard output is the JSON
result. Every file the benchmark writes stays under .bench_build/; trace
files go to .bench_build/ciaobench/traces/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ciaobench")
WORK = os.path.join(BUILD, "work")       # emptied at the start of every run
TRACES = os.path.join(BUILD, "traces")

# Fixed JVM resources: the heap is set, not left to the machine's size.
HEAP = "2g"
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840

SOURCE_DIRS = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
               os.path.join(HERE, "src")]
SOURCE_FILES = [os.path.join(ROOT, "build.sbt"),
                os.path.join(ROOT, "project", "build.properties"),
                os.path.join(HERE, "build.sbt"),
                os.path.join(HERE, "project", "build.properties")]


def fail(msg, code=2):
    print(f"ciaobench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_hash():
    h = hashlib.sha256()
    files = list(SOURCE_FILES)
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(d):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run_bounded(cmd, limit_s, **kw):
    """Run cmd in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} did not finish within {limit_s:.0f} s", 1)
    return proc.returncode, out


def classpath():
    cp_file = os.path.join(BUILD, f"classpath-{source_hash()}.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            return fh.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "-Dsbt.offline=true")
    env["SBT_OPTS"] = f"{opts} -Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}"
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "export ciaobench/Runtime/fullClasspath"]
    print("ciaobench: building with sbt", file=sys.stderr)
    rc, out = run_bounded(cmd, BUILD_LIMIT_S, cwd=HERE, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if rc != 0 or not lines or "ciaobench" not in lines[-1]:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (sbt exit {rc})", 1)
    with open(cp_file, "w") as fh:
        fh.write(lines[-1].strip())
    return lines[-1].strip()


def java_cmd(cp, args):
    java_home = os.environ.get("JAVA_HOME")
    java = os.path.join(java_home, "bin", "java") if java_home else "java"
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC",
            "-XX:ParallelGCThreads=2", "-XX:ConcGCThreads=1",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
            "--add-opens=java.base/java.lang=ALL-UNNAMED",
            "--add-opens=java.base/java.nio=ALL-UNNAMED",
            "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
            "--add-opens=java.base/java.util=ALL-UNNAMED",
            "-cp", cp, "ciaobench.Main"] + args


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--derive", action="store_true")
    p.add_argument("--calibrate", action="store_true")
    a = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail(f"no program sources next to {os.path.basename(HERE)}/ (expected build.sbt and src/main/scala)")

    if a.self_test:
        args = ["self-test", "--workload", a.workload or "winlog-A-skip", "--work", WORK]
    elif a.derive:
        args = ["derive"]
    elif a.calibrate:
        args = ["calibrate"]
    else:
        if a.workload is None or a.seed is None or a.seconds is None:
            fail("--workload, --seed and --seconds are required")
        args = ["run", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", a.trace, "--work", WORK, "--traces", TRACES]

    cp = classpath()
    shutil.rmtree(WORK, ignore_errors=True)
    started = time.monotonic()
    rc, out = run_bounded(java_cmd(cp, args), RUN_LIMIT_S if args[0] == "run" else 600,
                          cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc != 0:
        fail(f"benchmark JVM exited with {rc} after {time.monotonic() - started:.0f} s", 1)


if __name__ == "__main__":
    main()
