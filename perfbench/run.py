#!/usr/bin/env python3
"""Build and run one perfbench workload; print its metrics as JSON.

    python3 perfbench/run.py --workload dsl-small --seed 1 --seconds 10 --trace 0

Run from the repository root. The script

  * clears inherited PYGB_* / GBTL_* variables (the benchmark measures the
    program's defaults) and records which ones it cleared; TMPDIR points
    inside the build directory, so nothing is written outside the checkout;
  * builds perfbench/ with CMake into $CARGO_TARGET_DIR (default
    .bench_build) — incrementally, so later runs only check the build;
  * prepares a module cache private to that build (untimed), rebuilt
    whenever the binary changes, because module stamps do not cover header
    contents; jit-cold instead gets a fresh empty cache per process;
  * for an untraced run, repeats set-up in fresh processes pinned to one
    CPU and reports their median as setup_s (see README.md: unpinned, the
    compiler probe's 50 ms poll quantum is paid or not depending on
    machine state, and flips between runs);
  * runs an untraced workload as PARTS fresh processes of equal length
    (one, except for serve-mixed) and merges their samples
    (perfbench --merge). A traced run is one process;
  * adds each metric's unit (and reads 0 for per-layer metrics the
    workload does not measure) from BENCHMARK.json, writes the result and
    the effective configuration to <build>/results/, and prints the result
    as the last line of standard output.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dsl-small", "dsl-large", "ingest", "jit-cold", "serve-mixed"]
SETUP_REPEATS = 3  # set-ups measured in fresh processes
# Fresh processes an untraced run is split into (README.md, noise finding
# 4): serve-mixed's speed is fixed for a process's life, so one process per
# run made its tail flip between runs; a job workload's speed changes
# within seconds, so one 15 s process already mixes the speeds, and
# splitting it makes the tail that of the slowest part.
PARTS = {"serve-mixed": 4}


class BenchError(Exception):
    pass


def run(cmd, env, timeout, log=None, cpu=None):
    """Run a child to completion (killed at the timeout); return stdout."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    out = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, preexec_fn=pin)
    if log:
        with open(log, "w") as f:
            f.write(out.stdout + out.stderr)
    if out.returncode != 0:
        tail = (out.stdout + out.stderr).strip().splitlines()[-20:]
        raise BenchError("%s exited %d:\n%s" % (" ".join(cmd[:3]),
                                               out.returncode,
                                               "\n".join(tail)))
    return out.stdout


def build(build_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources under %s/src" % ROOT)
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env, 300,
            os.path.join(build_dir, "configure.log"))
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        env, 850, os.path.join(build_dir, "build.log"))
    return os.path.join(build_dir, "perfbench")


def prepared_cache(build_dir, binary, env):
    """The build's private module cache, filled by an untimed run."""
    cache = os.path.join(build_dir, "module_cache")
    stamp_path = cache + ".stamp"
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    stamp = digest.hexdigest()
    if os.path.isdir(cache) and os.path.isfile(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return cache
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    scratch = os.path.join(build_dir, "prepare")
    run([binary, "--workload", "prepare", "--scratch", scratch],
        dict(env, PYGB_CACHE_DIR=cache), 600)
    shutil.rmtree(scratch, ignore_errors=True)
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return cache


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("no output")
    return json.loads(lines[-1])


def config_of(stdout):
    """The effective configuration a child printed (its #config line)."""
    for line in stdout.splitlines():
        if line.startswith("#config "):
            return json.loads(line[len("#config "):])
    return {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    cleared = sorted(k for k in os.environ if k.startswith(("PYGB_", "GBTL_")))
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    # The compiler's temporary files stay inside the checkout too.
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    binary = build(build_dir, env)
    cache = prepared_cache(build_dir, binary, env)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    scratch = os.path.join(build_dir, "runs", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)

    def child_env(i):
        if args.workload != "jit-cold":
            return dict(env, PYGB_CACHE_DIR=cache)
        fresh = os.path.join(scratch, "cache%d" % i)
        os.makedirs(fresh)
        return dict(env, PYGB_CACHE_DIR=fresh)

    # Relative (children run in ROOT): serve-mixed binds a unix socket
    # there, and socket paths are limited to 107 bytes.
    common = [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--scratch", os.path.relpath(scratch, ROOT)]
    # Every child must end by this deadline, so the run ends in 180 s.
    deadline = time.monotonic() + 170

    def child(cmd, i, cpu=None):
        return run(cmd, child_env(i), deadline - time.monotonic(), cpu=cpu)

    config = {}
    try:
        if args.trace:
            trace_out = os.path.join(results, "trace-%s.json" % tag)
            out = child(common + ["--seconds", str(args.seconds), "--trace",
                                  "1", "--trace-out", trace_out], 0)
            shown = out.strip().splitlines()[:-1]
        else:
            cpu = min(os.sched_getaffinity(0))
            setups = [last_json(child(common + ["--setup-only"], i, cpu))
                      ["setup_s"] for i in range(SETUP_REPEATS)]
            raws, shown = [], []
            parts = PARTS.get(args.workload, 1)
            for i in range(parts):
                raws.append(os.path.join(scratch, "part%d.raw" % i))
                out = child(common + ["--seconds", str(args.seconds / parts),
                                      "--trace", "0", "--raw-out", raws[-1]],
                            SETUP_REPEATS + i)
                shown += [l for l in out.splitlines()
                          if l.startswith("check failed")]
                config = config or config_of(out)
            out = run([binary, "--merge"] + raws, env,
                      deadline - time.monotonic())
            shown += out.strip().splitlines()[:-1]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = last_json(out)
    config.update(config_of(out))
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        config["setup_s_samples"] = setups
        config["processes"] = PARTS.get(args.workload, 1)
    want = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in want]
    unknown = sorted(set(values) - set(names))
    missing = [] if args.trace else sorted(set(names) - set(values))
    if unknown or missing:
        raise BenchError("metrics %s not in BENCHMARK.json, %s not printed"
                         % (unknown, missing))
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0),
                                     "unit": m["unit"]} for m in want}
    config["cleared_env"] = cleared
    config["build_dir"] = os.path.relpath(build_dir, ROOT)
    with open(os.path.join(results, "%s.json" % tag), "w") as f:
        json.dump({"config": config, "result": result}, f, indent=1)

    for line in shown:
        if not line.startswith("#config "):
            print(line)
    if cleared:
        print("cleared inherited variables: " + " ".join(cleared))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
