#!/usr/bin/env python3
"""Host-performance benchmark for the KTAU simulator.

Builds the simulator from source (perfbench/CMakeLists.txt, into
.bench_build/), runs one workload in a closed loop for --seconds, checks
every operation's outputs, and prints one JSON result as the last stdout
line.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run.  See perfbench/README.md.

    python3 perfbench/run.py --workload lu_anomaly --seed 1 --trace 0
    python3 perfbench/run.py --selftest
"""
import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
MATRIX = os.path.join(BUILD, "ktau_bench", "bench_matrix")
SCRATCH = os.path.join(BUILD, "run")

WORKLOADS = ("lu_anomaly", "lu_base", "serve_mix", "matrix_repeat")
# bench_matrix scenarios of matrix_repeat: each rebuilds the same
# (64x2 Anomaly, LU, seed) simulation.  The driver owns its scale and seed.
MATRIX_SCENARIOS = ("fig3", "fig4", "fig7")

SETUP_SAMPLES = 25  # process starts per run; setup_s is their median
# Best time of the driver's host-speed reference loop on the sizing host
# (Intel Xeon, 4 vCPUs, quiet).  Timings are scaled by this over the run's
# own best reference time; see perfbench/reference.hpp.
REFERENCE_NOMINAL_S = 0.014
CALL_TIMEOUT = 170  # seconds; no single child may outlive the run's budget

END_TO_END = {"wall_s": "s", "cpu_s": "s", "events_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "sim.events": "count", "sim.epochs": "count",
    "sim.events_per_epoch": "count", "sim.pool_grows": "count",
    "sim.mailbox_grows": "count", "sim.run_until_s": "s",
    "sim.host_ns_per_event": "ns",
    "ktau.probe_pairs": "count", "ktau.pairs_per_event": "ratio",
    "ktau.probe_host_s": "s", "ktau.host_ns_per_pair": "ns",
    "kernel.sched_calls": "count", "kernel.irq_calls": "count",
    "knet.rx_segments": "count", "knet.retransmits": "count",
    "knet.acks_received": "count",
    "kmpi.tcp_calls": "count", "tau.mpi_recv_calls": "count",
    "apps.requests_completed": "count", "apps.requests_per_host_s": "1/s",
    "apps.exec_sim_s": "sim_s",
    "libktau.get_profile_s": "s", "libktau.wire_bytes": "bytes",
    "analysis.harvest_s": "s", "analysis.matrixdoc_write_s": "s",
    "analysis.matrixdoc_parse_s": "s",
    "experiments.build_s": "s", "experiments.trials": "count",
    "experiments.distinct_runs": "count", "experiments.trial_host_s": "s",
    "experiments.duplicate_host_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver and bench_matrix."""
    for need in ("src/CMakeLists.txt", "bench/CMakeLists.txt",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"missing {need}: not a source checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench_driver", "bench_matrix"],
                   check=True, stdout=sys.stderr, timeout=850)
    os.makedirs(SCRATCH, exist_ok=True)


def host_stamp():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # The checkout need not be a git repository: identify the code by a
    # hash of the sources the benchmark builds.
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    p, _, ready = time_to_ready(driver_cmd("setup", "lu_anomaly", 0))
    p.communicate(timeout=CALL_TIMEOUT)
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "compiler": ready["compiler"], "build_type": ready["build_type"],
            "commit": "tree-sha256:" + h.hexdigest()[:16]}


def run_child(cmd):
    """Runs one child to completion; returns (stdout, wall seconds)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = p.communicate(timeout=CALL_TIMEOUT)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if p.returncode != 0:
        raise BenchError(f"exit {p.returncode}: {' '.join(cmd)}")
    return out, time.perf_counter() - t0


def json_lines(text):
    return [json.loads(line) for line in text.splitlines()
            if line.startswith("{")]


def driver_cmd(mode, workload, seed, *extra):
    return [DRIVER, "--mode", mode, "--workload", workload,
            "--seed", str(seed), *extra]


def time_to_ready(cmd):
    """Starts a child and returns (process, seconds until its ready line)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = p.stdout.readline()
    ready = time.perf_counter() - t0
    if not line.startswith('{"ready"'):
        p.kill()
        p.wait()
        raise BenchError(f"no ready line from {' '.join(cmd)}")
    return p, ready, json.loads(line)


def setup_samples(workload, seed, count):
    samples = []
    for _ in range(count):
        if workload == "matrix_repeat":
            # bench_matrix's own start-up: static scenario registration.
            _, wall = run_child([MATRIX, "--list"])
            samples.append(wall)
        else:
            p, ready, _ = time_to_ready(driver_cmd("setup", workload, seed))
            p.communicate(timeout=CALL_TIMEOUT)
            samples.append(ready)
    return samples


def scaled_medians(ops, references, setup):
    """Median wall_s, cpu_s and events_per_s per operation, and the median
    setup_s, at the nominal host speed.  references[i] and
    references[i + 1] are the reference loop's best times just before and
    after operation i; the operation is scaled by the better of the two,
    and set-up by the run's best.  The host's speed drifts by ±20 %
    between runs and moves this CPU-bound work and the loop alike, so the
    scaling removes the drift while a change to the simulator moves the
    result in full."""
    walls, cpus, rates = [], [], []
    for i, op in enumerate(ops):
        speed = REFERENCE_NOMINAL_S / min(references[i], references[i + 1])
        walls.append(op["wall_s"] * speed)
        cpus.append(op["cpu_s"] * speed)
        rates.append(op["events"] / walls[-1])
    median = statistics.median
    setup_s = median(setup)
    return {"wall_s": median(walls), "cpu_s": median(cpus),
            "events_per_s": median(rates),
            "setup_s": setup_s * REFERENCE_NOMINAL_S / min(references)}, {
                "raw_wall_s": median(op["wall_s"] for op in ops),
                "raw_setup_s": setup_s, "reference_s": min(references)}


# -- end-to-end (untraced) runs ----------------------------------------------

def timed_driver(workload, seed, seconds):
    setup = setup_samples(workload, seed, SETUP_SAMPLES - 1)
    p, ready, _ = time_to_ready(
        driver_cmd("timed", workload, seed, "--seconds", str(seconds)))
    setup.append(ready)
    try:
        out, _ = p.communicate(timeout=CALL_TIMEOUT)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise BenchError("timed run exceeded its budget")
    if p.returncode != 0:
        raise BenchError(f"driver exit {p.returncode}")
    rows = json_lines(out)
    ops = [r for r in rows if "op" in r]
    tail = [r for r in rows if "peak_rss_mb" in r]
    if not ops or not tail:
        raise BenchError("driver printed no operations")
    for r in ops:
        if not r["ok"]:
            log(f"op {int(r['op'])} failed: {r['fail']}")
    references = [r["reference_s"] for r in ops] + [tail[0]["reference_s"]]
    metrics, raw = scaled_medians(ops, references, setup)
    metrics["peak_rss_mb"] = tail[0]["peak_rss_mb"]
    failed = sum(1 for r in ops if not r["ok"])
    return metrics, len(ops), failed, raw


def matrix_cmd(args, json_path):
    """The bench_matrix command of matrix_repeat; `args` (scale and seed)
    come from the driver, see matrix_key."""
    cmd = [MATRIX, *args, "--jobs", "1", "--sim-threads", "1", "--stack",
           "fixed", "--json", json_path]
    for name in MATRIX_SCENARIOS:
        cmd += ["--filter", name]
    return cmd


def spawn_timed(cmd):
    """Runs a child and reaps it with wait4 for its own resource use.
    Returns (stdout, stderr, exit code, {"wall_s", "cpu_s", "rss_mb"})."""
    out_path = os.path.join(SCRATCH, f"child_{os.getpid()}.out")
    err_path = os.path.join(SCRATCH, f"child_{os.getpid()}.err")
    with open(out_path, "w") as out_f, open(err_path, "w") as err_f:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out_f, stderr=err_f, cwd=ROOT)
        killer = threading.Timer(CALL_TIMEOUT, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        out = f.read()
    with open(err_path) as f:
        err = f.read()
    os.remove(out_path)
    os.remove(err_path)
    return out, err, code, {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
                            "rss_mb": ru.ru_maxrss / 1024.0}


def matrix_key(seed):
    """The bench_matrix arguments whose trials repeat the key simulation,
    and that simulation's (exec_sec, engine events)."""
    out, _ = run_child(driver_cmd("timed", "matrix_key", seed, "--seconds",
                                  "0", "--min-ops", "1"))
    rows = json_lines(out)
    op = [r for r in rows if "op" in r][0]
    if not op["ok"]:
        raise BenchError("key simulation failed its checks: " + op["fail"])
    return rows[0]["bench_matrix_args"], op["exec_sec"], op["events"]


def check_matrix(out, code, doc_path, key_exec):
    """Empty when one bench_matrix run passed; else the first failure."""
    if code != 0 or "FAIL" in out:
        return f"bench_matrix gate failure (exit {code})"
    with open(doc_path) as f:
        doc = json.load(f)
    trials = [t for s in doc["scenarios"] for r in s["repeats"]
              for t in r["trials"]]
    if [s["name"] for s in doc["scenarios"]] != list(MATRIX_SCENARIOS):
        return "unexpected scenario list"
    if doc["failures"] != 0 or len(trials) != len(MATRIX_SCENARIOS):
        return "unexpected trials or failures"
    if any(t["metrics"]["exec_sec"] != key_exec for t in trials):
        return "exec_sec differs from the key simulation"
    return ""


def timed_matrix(_workload, seed, seconds):
    # A bench_matrix process is ~5 s, so a run holds few of them: every
    # operation runs input 0, so its median is taken over one input.
    args, key_exec, key_events = matrix_key(seed)
    setup = setup_samples("matrix_repeat", seed, SETUP_SAMPLES)
    doc_path = os.path.join(SCRATCH, f"matrix_{os.getpid()}.json")
    def reference():
        ref_out, _ = run_child([DRIVER, "--mode", "reference"])
        return json_lines(ref_out)[-1]["reference_s"]

    ops, failed, references = [], 0, []
    start = time.perf_counter()
    while (len(ops) < 3 or
           time.perf_counter() - start + ops[-1]["wall_s"] <= seconds):
        references.append(reference())
        out, _, code, op = spawn_timed(matrix_cmd(args, doc_path))
        op["events"] = key_events * len(MATRIX_SCENARIOS)
        ops.append(op)
        why = check_matrix(out, code, doc_path, key_exec)
        if why:
            log(f"matrix op {len(ops) - 1} failed: {why}")
            failed += 1
    os.remove(doc_path)
    references.append(reference())
    metrics, raw = scaled_medians(ops, references, setup)
    metrics["peak_rss_mb"] = max(op["rss_mb"] for op in ops)
    return metrics, len(ops), failed, raw


# -- traced runs ---------------------------------------------------------------

def trial_host_times(info):
    """Per-trial host ms from the harness info stream, in run order."""
    return [(m.group(1), m.group(2), float(m.group(3)) / 1e3)
            for m in re.finditer(r"\[(\w+)/(\S+) done in (\d+) ms", info)]


def traced_matrix(seed):
    doc_path = os.path.join(SCRATCH, f"matrix_traced_{os.getpid()}.json")
    args, key_exec, _ = matrix_key(seed)
    out, err, code, _ = spawn_timed(matrix_cmd(args, doc_path))
    out_k, _ = run_child(driver_cmd("traced", "matrix_key", seed))
    layers = json_lines(out_k)[-1]
    failures = []
    why = check_matrix(out, code, doc_path, key_exec)
    if why:
        failures.append(why)
    if not layers["ok"]:
        failures.append("phased driver differs from run_chiba: " +
                        layers["mismatch"])
    with open(doc_path) as f:
        doc = json.load(f)
    fingerprint = {}
    for s in doc["scenarios"]:
        for r in s["repeats"]:
            for t in r["trials"]:
                fingerprint[(s["name"], t["name"])] = tuple(
                    sorted(t["metrics"].items()))
    # Every trial of the document must have exactly one host time, or the
    # two figures below would be wrong without failing.
    times = trial_host_times(err)
    trial_s, dup_s, seen = 0.0, 0.0, set()
    if sorted((scen, trial) for scen, trial, _ in times) != sorted(fingerprint):
        failures.append("harness trial times do not match the document")
    else:
        for scen, trial, secs in times:
            fp = fingerprint[(scen, trial)]
            trial_s += secs
            if fp in seen:
                dup_s += secs
            seen.add(fp)
    rt_out, _ = run_child([DRIVER, "--mode", "roundtrip", "--doc",
                              doc_path])
    rt = json_lines(rt_out)[-1]
    if not rt["ok"]:
        failures.append("matrixdoc round trip is not byte-identical")
    os.remove(doc_path)
    layers.update({
        "analysis.matrixdoc_write_s": rt["analysis.matrixdoc_write_s"],
        "analysis.matrixdoc_parse_s": rt["analysis.matrixdoc_parse_s"],
        "experiments.trials": len(fingerprint),
        "experiments.distinct_runs": len(set(fingerprint.values())),
        "experiments.trial_host_s": trial_s,
        "experiments.duplicate_host_s": dup_s,
    })
    # Three checks: the matrix gates and trials, the phased key run, and
    # the document round trip.
    return layers, 3, len(failures), failures


def traced(workload, seed):
    if workload == "matrix_repeat":
        layers, attempted, failed, why = traced_matrix(seed)
    else:
        out, _ = run_child(driver_cmd("traced", workload, seed))
        layers = json_lines(out)[-1]
        why = [] if layers["ok"] else [
            "phased driver differs: " + layers["mismatch"]]
        attempted, failed = 1, len(why)
    for w in why:
        log(w)
    metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    return metrics, attempted, failed


# -- self-test -----------------------------------------------------------------

def selftest():
    out, _ = run_child([DRIVER, "--mode", "selftest"])
    print(out, end="")
    doc_path = os.path.join(SCRATCH, "selftest_matrix.json")
    args, _, _ = matrix_key(0)
    spawn_timed(matrix_cmd(args, doc_path))
    rt_out, _ = run_child([DRIVER, "--mode", "roundtrip", "--doc",
                              doc_path])
    ok = json_lines(rt_out)[-1]["ok"]
    os.remove(doc_path)
    print(f"matrix_repeat document round-trips byte-identically: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok and "FAIL" not in out else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 = the historical seeds")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if args.selftest:
            return selftest()
        stamp = host_stamp()
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed)
            units = PER_LAYER
        else:
            timed = (timed_matrix if args.workload == "matrix_repeat"
                     else timed_driver)
            metrics, attempted, failed, raw = timed(args.workload, args.seed,
                                                    args.seconds)
            stamp.update(raw)
            units = END_TO_END
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError, IndexError) as e:
        log(f"perfbench: {e}")
        return 1
    stamp.update(sim_threads=1, jobs=1, stack="fixed", seed=args.seed,
                 workload=args.workload)
    print(json.dumps({"host": stamp}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
