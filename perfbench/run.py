#!/usr/bin/env python3
"""Build and run the repository benchmark, stamping each result with host facts.

Run from the repository root:

    python3 perfbench/run.py --workload sim-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --pins > perfbench/pins.txt
    python3 perfbench/run.py compare OLD NEW

A run builds the `perfbench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs it, prints its output
with the host facts ahead of it, and keeps the stamped result under
`.bench_out/results/`. The last stdout line is the result JSON.

`compare` takes two stamped result files, or two directories of them,
prints the median of every metric per workload on each side with the
relative change, and flags pairs measured on different hosts.
"""

import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175
# Facts that must agree for two results to be comparable.
HOST_KEYS = ("nproc", "cpu_model", "rustc")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    exe = os.path.join(target_dir(), "release", "gscalar-perfbench")
    if not os.path.isabs(exe):
        exe = os.path.join(ROOT, exe)
    return exe


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """Digest of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml", "perfbench/**/*"):
        files += glob.glob(os.path.join(ROOT, pattern), recursive=True)
    for path in sorted(set(files)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def host_facts():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(
        os.path.join(ROOT, ".git")) else ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "--version"]),
        "commit": commit or source_digest(),
    }


def run(argv):
    exe = build()
    try:
        proc = subprocess.run([exe] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S}s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no result line")
    host = host_facts()
    opts = dict(zip(argv[0::2], argv[1::2]))
    stamped = {"host": host, "args": opts, "result": result}
    out_dir = os.path.join(ROOT, ".bench_out", "results")
    os.makedirs(out_dir, exist_ok=True)
    name = "{}-seed{}-trace{}.json".format(
        opts.get("--workload"), opts.get("--seed"), opts.get("--trace"))
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(stamped, f, indent=1, sort_keys=True)
    for key, value in host.items():
        print(f"host {key}: {value}")
    print("\n".join(lines))


def load_results(path):
    paths = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    results = []
    for p in paths:
        with open(p) as f:
            results.append(json.load(f))
    return results


def compare(old_path, new_path):
    old, new = load_results(old_path), load_results(new_path)
    hosts = {tuple(r["host"].get(k) for k in HOST_KEYS) for r in old + new}
    if len(hosts) > 1:
        print("WARNING: results come from different hosts; differences may not be the code's:")
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)))

    def medians(results):
        by = {}
        for r in results:
            key = (r["args"].get("--workload"), r["args"].get("--trace"))
            for name, m in r["result"]["metrics"].items():
                by.setdefault(key, {}).setdefault(name, []).append(m["value"])
        return {k: {n: statistics.median(v) for n, v in ms.items()} for k, ms in by.items()}

    mo, mn = medians(old), medians(new)
    for key in sorted(set(mo) & set(mn), key=str):
        print(f"== {key[0]} (trace {key[1]})")
        for name in sorted(set(mo[key]) & set(mn[key])):
            a, b = mo[key][name], mn[key][name]
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"  {name:36s} {a:14.6g} -> {b:14.6g}  {change}")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare OLD NEW")
        compare(argv[1], argv[2])
    elif argv == ["--pins"]:
        exe = build()
        sys.exit(subprocess.run([exe, "pins"], cwd=ROOT).returncode)
    else:
        run(argv)


if __name__ == "__main__":
    main()
