#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds libadapt and the benchmark from source into
.bench_build/ at the root of the checkout (incrementally after the first
time), runs one workload, and passes the benchmark's output through: its
last line is the result object.  --selftest runs the benchmark's own
tests, checks BENCHMARK.json against the binary's metric list, and runs
every workload briefly at a second seed, traced and untraced, requiring
every output check to pass.
"""

import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 175


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build(target="perfbench"):
    """Configure (once) and build; output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("no repository sources next to perfbench/; nothing to build")
        sys.exit(3)
    if not (BUILD / "build.ninja").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", "4"], stdout=sys.stderr, check=True)


def revision():
    """Git revision when available, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        paths = [ROOT / top] if (ROOT / top).is_file() else \
            sorted((ROOT / top).rglob("*"))
        for path in paths:
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def run(args, timeout=RUN_TIMEOUT_S):
    """Run the benchmark binary in its own process group; kill the whole
    group (shard workers included) if it overruns."""
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("benchmark overran", timeout, "s; killed")
        return 124, ""
    return proc.returncode, out


def selftest():
    build("perfbench")
    build("perfbench_tests")
    subprocess.run([str(BUILD / "perfbench_tests")], stdout=sys.stderr,
                   check=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, listing = run(["--list-metrics"])
    listed = {"end_to_end": [], "per_layer": []}
    for line in listing.splitlines():
        kind, name, unit = line.split()
        listed[kind].append([name, unit])
    for kind in listed:
        declared = [[m["name"], m["unit"]] for m in spec[kind]]
        assert declared == listed[kind], f"{kind} differs from BENCHMARK.json"

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            code, out = run(["--workload", workload, "--seed", "2",
                             "--seconds", "2", "--trace", trace,
                             "--rev", "selftest"])
            assert code == 0, f"{workload} trace {trace} exited {code}"
            result = json.loads(out.strip().splitlines()[-1])
            kind = "per_layer" if trace == "1" else "end_to_end"
            assert result["correct"] and result["failed"] == 0, \
                f"{workload} trace {trace} failed its checks"
            assert sorted(result["metrics"]) == \
                sorted(name for name, _ in listed[kind])
            log(workload, "trace", trace, "ok")
    log("selftest passed")


def main():
    if sys.argv[1:] == ["--selftest"]:
        selftest()
        return 0
    try:
        build()
    except subprocess.CalledProcessError as e:
        log("build failed:", e)
        return 3
    code, out = run(sys.argv[1:] + ["--rev", revision()])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
