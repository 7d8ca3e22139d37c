#!/usr/bin/env python3
"""Run one workload of the dtperf benchmark from the repo root.

    python3 dtperf/run.py --workload graph_trickle --seed 1 --seconds 20 --trace 0

Builds the engine and the benchmark on first use (dtperf/build.sh, into
.bench_build/dtperf), then runs one JVM. Its stdout ends with the JSON
result line; its stderr (Spark's log) goes to .bench_build/dtperf/logs.
Exits non-zero when the build, the run or the correctness gate fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("graph_trickle", "bulk_churn", "stream_append")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
# A fixed-size heap and the parallel collector put fewer, shorter pauses
# inside the ~70 ms reads than G1 growing its heap; two compiler threads
# keep the JIT from competing with the two Spark task threads.
JVM = ["-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:CICompilerCount=2"]
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def sources(root):
    out = []
    for top in ("src/main/scala", "dtperf/src"):
        for d, _, files in os.walk(os.path.join(root, top)):
            out += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(out) + [os.path.join(root, "dtperf", "build.sh")]


def spark_jars():
    """Jars of the Spark installation: $SPARK_HOME, else the first directory
    on PATH holding a spark-submit whose installation has a jars/ directory."""
    homes = [os.environ.get("SPARK_HOME", "")]
    homes += [os.path.dirname(d) for d in os.environ.get("PATH", "").split(os.pathsep)
              if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        if home and os.path.isdir(os.path.join(home, "jars")):
            return os.path.join(home, "jars")
    sys.exit("dtperf: no Spark installation found; set SPARK_HOME")


def build(root, out, jars):
    """Compile unless the classes were built from these exact sources."""
    digest = hashlib.sha256()
    for path in sources(root):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    stamp = os.path.join(out, "classes.sha256")
    classes = os.path.join(out, "classes")
    if os.path.isdir(classes) and os.path.exists(stamp) and open(stamp).read() == digest.hexdigest():
        return classes
    print("dtperf: building engine and benchmark", file=sys.stderr)
    subprocess.run(["bash", "dtperf/build.sh", classes, jars], cwd=root, check=True, timeout=BUILD_TIMEOUT_S)
    with open(stamp, "w") as f:
        f.write(digest.hexdigest())
    return classes


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src", "main", "scala")):
        sys.exit("dtperf: the engine sources (src/main/scala) are missing; run from a full checkout")
    out = os.path.join(root, ".bench_build", "dtperf")
    for d in ("tmp", "logs"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    jars = spark_jars()
    try:
        classes = build(root, out, jars)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"dtperf: build failed: {e}")

    cmd = ["java", *JVM, f"-Djava.io.tmpdir={out}/tmp"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
    cmd += ["-cp", os.pathsep.join([classes, os.path.join(jars, "*")]), "repro.perf.Bench",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--out", out]
    log = os.path.join(out, "logs", f"{a.workload}-seed{a.seed}-trace{a.trace}.log")
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"dtperf: run exceeded {RUN_TIMEOUT_S} s; log in {log}")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(f"dtperf: run exited with {proc.returncode}; log in {log}")


if __name__ == "__main__":
    main()
