#!/usr/bin/env python3
"""Build and run the A+ index benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mf-vbeb --seed 1 --seconds 20 --trace 0

Workloads: mf-vbeb, storage-rw (see perfbench/README.md). The first
run compiles the repository's `src/main/scala` together with
`perfbench/src` into `.bench_build/perfbench/classes` with the Scala
compiler shipped in Spark's jars (found through SPARK_HOME or
`spark-submit` on PATH); later runs reuse the classes while no source
changed. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exit code 0 only when
every result was checked and correct.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
CLASSES = os.path.join(BUILD, "classes")
STAMP = os.path.join(BUILD, "sources.sha256")
# time a run may take beyond --seconds: set-ups, expected counts, warm-up,
# the checks after the timed loop and the loop's finish to a whole cycle
RUN_ALLOWANCE_S = 150
BUILD_TIMEOUT_S = 600


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not os.path.isdir(jars):
        fail("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return sorted(os.path.join(jars, j) for j in os.listdir(jars) if j.endswith(".jar"))


def sources():
    roots = [os.path.join("src", "main", "scala"), os.path.join(HERE, "src")]
    for r in roots:
        if not os.path.isdir(r):
            fail(f"missing source directory {r}: run from the root of a repository checkout")
    out = []
    for r in roots:
        for d, _, fs in os.walk(r):
            out += [os.path.join(d, f) for f in fs if f.endswith(".scala")]
    return sorted(out)


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(jars, files, sha):
    if os.path.exists(STAMP) and open(STAMP).read().strip() == sha:
        return
    print(f"[perfbench] compiling {len(files)} sources", file=sys.stderr)
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    cp = os.pathsep.join(jars)
    cmd = ["java", "-XX:-UsePerfData", "-Xmx2g", "-Xss16m", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-classpath", cp, "-d", CLASSES] + files
    if subprocess.run(cmd, timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("compilation failed")
    with open(STAMP, "w") as fh:
        fh.write(sha)


def revision(sha):
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "sources-sha256:" + sha[:16]


def main(argv):
    usage = "usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>"
    if "--workload" not in argv or "--seconds" not in argv:
        fail(usage)
    try:
        seconds = int(argv[argv.index("--seconds") + 1])
    except (IndexError, ValueError):
        fail(usage)
    files = sources()
    jars = spark_jars()
    sha = digest(files)
    build(jars, files, sha)
    # -XX:-UsePerfData: the JVM writes no statistics file outside the checkout
    cmd = ["java", "-XX:-UsePerfData", "-Xmx3g",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           f"-Dperfbench.revision={revision(sha)}",
           "-cp", os.pathsep.join([CLASSES] + jars), "perfbench.Main"] + argv
    timeout = RUN_ALLOWANCE_S + seconds
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {timeout} s")
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out)
        fail(f"no result line (exit code {proc.returncode})")
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
