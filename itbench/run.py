#!/usr/bin/env python3
"""Build and run the maximal k-biplex enumeration benchmark.

Usage (from the root of a checkout):
    python3 itbench/run.py --workload dense-full --seed 1 --seconds 25 --trace 0

The first run builds the program and the benchmark harness from source with
sbt and caches the class path under .bench_build/; later runs reuse it until
a source or build file changes. The measuring JVM is started with one fixed
set of flags (see JVM_FLAGS). Its standard output is passed through; the last
line is the JSON result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_build")

# Equal initial and maximum heap, pre-touched; one serial collector thread
# and two JIT compiler threads, so the JVM's own threads fit a 4-core host.
JVM_FLAGS = [
    "-Xms1g", "-Xmx1g", "-XX:+AlwaysPreTouch",
    "-XX:+UseSerialGC", "-XX:CICompilerCount=2",
    "-XX:-UsePerfData",
]
SKIP_DIRS = {".git", ".bench_build", "target", ".bsp", ".idea", ".metals"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"itbench: {msg}", file=sys.stderr, flush=True)


def fingerprint():
    """Hash of every file the build reads: the checkout minus outputs."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
        for name in sorted(files):
            path = os.path.join(top, name)
            if not os.path.isfile(path):
                continue
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build():
    """Compile with sbt unless the cached class path matches the sources."""
    stamp = os.path.join(CACHE, "fingerprint")
    cp_file = os.path.join(CACHE, "classpath.txt")
    fp = fingerprint()
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as f:
            if f.read() == fp:
                with open(cp_file) as c:
                    return c.read().strip()
    os.makedirs(CACHE, exist_ok=True)
    build_log = os.path.join(CACHE, "build.log")
    log(f"building (log: {os.path.relpath(build_log, ROOT)})")
    # Resolve only from local caches, as the repository's own test command does.
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true")
    with open(build_log, "w") as out:
        try:
            rc = subprocess.run(
                ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "benchClasspath"],
                cwd=HERE, env=env, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                timeout=BUILD_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            rc = -1
    if rc != 0:
        with open(build_log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        log(f"build failed (exit {rc})")
        sys.exit(1)
    with open(os.path.join(HERE, "target", "bench-classpath.txt")) as f:
        cp = f.read().strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp, "w") as f:
        f.write(fp)
    return cp


def main(argv):
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true", help="three-graph pool, one pass")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "build.sbt")):
        log(f"no build.sbt in {ROOT}: run from the root of a checkout of the program")
        return 2
    cp = build()
    cmd = ["java", *JVM_FLAGS, "-cp", cp, "itbench.Main", "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(".bench_build", "trace", f"{args.workload}-{args.seed}.tsv")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
