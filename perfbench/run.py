#!/usr/bin/env python3
"""pagesim benchmark: host cost of the paper's sweeps, end to end and per layer.

Run from the root of a pagesim checkout:

    python3 perfbench/run.py --workload fig1-ssd50 --seed 1 --seconds 15 --trace 0

It builds perfbench (perfbench/CMakeLists.txt) into .bench_build/ on first
use, runs the named workload in a process of its own with the PAGESIM
environment pinned, checks the simulated results, prints every metric by
name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
as well and reports the per-layer metrics. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
# Digests are recorded for this seed only; other seeds are checked for
# round-to-round and traced-to-untraced identity.
DEFAULT_SEED = 1
# Each child process must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
# Host-speed reference. The memory system of a shared host drifts by
# tens of percent over minutes and trial times follow it, but by less
# than perfbench's host-speed probe does (a 4 MiB random read-modify-
# write burst, HostProbe in src/main.cpp): in two sets of ten runs, the
# log-log slope of raw wall time on probe time was 0.47 to 0.94 across
# the workloads. So every timing of every workload is multiplied by
# (REF_PROBE_S / median probe time of the same process) ** SCALE_EXP;
# 0.6 gave the smallest largest spread over both sets. The raw timings
# and the factor are printed as well.
REF_PROBE_S = 0.00125
SCALE_EXP = 0.6
# pagesim prints this and re-simulates the trial cold when an image it
# loaded does not restore; the result is the same, so only this line
# shows that the trial did not measure a restore.
RESTORE_FAILED = "checkpoint restore failed"
# glibc's malloc moves its mmap threshold at run time. In about a third
# of ckpt-resume processes it never rose above the restore buffers, so
# every restore mapped, faulted in and unmapped them again: 4x the page
# faults and 20% slower trials for the whole process. Fixing both
# thresholds at the values the adaptive rule normally settles on (32 MiB
# and twice that) makes every process take the common path.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=67108864")

CORES = os.cpu_count() or 1

# Per workload: PAGESIM_TRIALS (trials per cell in one measured round)
# and PAGESIM_WORKERS (the MG-LRU scan's shards) of its process.
# fig1-ssd50's sweep pool is min(4, nproc), chosen by perfbench itself.
# ycsb-zram-clock runs enough distinct trials for its trial_tail_s to be
# a percentile of them (p84 of 64); ckpt-resume keeps one 32 MB image
# on disk per trial, so it runs ten and its tail is the slowest trial.
WORKLOADS = {
    "fig1-ssd50": {"trials": 2, "workers": 1},
    "ycsb-zram-clock": {"trials": 64, "workers": 1},
    "ckpt-resume": {"trials": 10, "workers": min(4, CORES)},
}

END_TO_END = [
    ("wall_s", "s"),
    ("refs_per_s", "1/s"),
    ("trial_p50_s", "s"),
    ("trial_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.events_per_ref", "ratio"),
    ("sim.run_s", "s"),
    ("kernel.self_s", "s"),
    ("kernel.ns_per_fault", "ns"),
    ("kernel.major_faults", "count"),
    ("kernel.minor_faults", "count"),
    ("kernel.evictions", "count"),
    ("kernel.direct_reclaims", "count"),
    ("policy.age_s", "s"),
    ("policy.age_calls", "count"),
    ("policy.ptes_scanned", "count"),
    ("policy.region_skip_ratio", "ratio"),
    ("policy.select_s", "s"),
    ("policy.select_calls", "count"),
    ("policy.victims_per_select", "ratio"),
    ("policy.second_chance_ratio", "ratio"),
    ("policy.rmap_walks", "count"),
    ("policy.hook_s", "s"),
    ("policy.hook_calls", "count"),
    ("swap.submit_s", "s"),
    ("swap.submits", "count"),
    ("swap.readahead_hit_ratio", "ratio"),
    ("swap.cost_s", "s"),
    ("swap.sync_ops", "count"),
    ("workload.make_s", "s"),
    ("workload.build_s", "s"),
    ("workload.next_s", "s"),
    ("workload.next_calls", "count"),
    ("harness.rig_s", "s"),
    ("harness.pool_cpu_util", "ratio"),
    ("harness.result_cache_hits", "count"),
    ("harness.result_cache_misses", "count"),
    ("harness.ckpt_load_s", "s"),
    ("harness.ckpt_restore_s", "s"),
    ("harness.ckpt_image_mb", "MB"),
    ("harness.ckpt_hits", "count"),
    ("harness.ckpt_misses", "count"),
    ("harness.ckpt_disk_loads", "count"),
    ("harness.ckpt_capture_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configure and build perfbench; returns the binary's path."""
    bdir = root / ".bench_build" / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any((bdir / f).exists() for f in ("build.ninja", "Makefile")):
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(bdir), "-j", str(CORES)],
                       check=True, stdout=sys.stderr)
    return bdir / "perfbench"


def child_env(spec, ckpt_dir, tiny):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PAGESIM_") and k != "GLIBC_TUNABLES"}
    env.update({
        "PAGESIM_TRIALS": str(1 if tiny else spec["trials"]),
        "PAGESIM_WORKERS": str(spec["workers"]),
        "PAGESIM_METRICS": "off",
        "PAGESIM_AUDIT_EVERY": "0",
        "PAGESIM_CHECKPOINT_DIR": str(ckpt_dir),
        "GLIBC_TUNABLES": MALLOC_TUNABLES,
    })
    return env


def run_child(cmd, env, deadline, err_path):
    """Run one perfbench process; returns (setup_s, lines, returncode,
    stderr).

    setup_s is the host time from spawning the process to its set-up
    line: process start, dataset generation and any checkpoint cold
    pass, everything before the first timed trial. The child's stderr
    goes to @p err_path, is echoed to ours, and is returned for checking.
    """
    with open(err_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        lines, setup_s = [], None
        try:
            for raw in proc.stdout:
                if setup_s is None:
                    setup_s = time.perf_counter() - start
                try:
                    lines.append(json.loads(raw))
                except json.JSONDecodeError:
                    log("perfbench: unparsable line: " + raw.rstrip())
        finally:
            watchdog.cancel()
            if proc.poll() is None and time.perf_counter() > deadline:
                proc.kill()
            proc.wait()
        err.seek(0)
        stderr = err.read()
    sys.stderr.write(stderr)
    return setup_s, lines, proc.returncode, stderr


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def recorded(workload):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="Small scale, one round: the self-test mode")
    ap.add_argument("--record", action="store_true",
                    help="store this run's digest as the recorded one")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.record and (args.tiny or args.seed != DEFAULT_SEED):
        ap.error("--record needs the default seed at full size")

    root = Path.cwd()
    spec = WORKLOADS[args.workload]
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    deadline = time.perf_counter() + RUN_DEADLINE_S

    run_dir = root / ".bench_build" / f"run-{os.getpid()}"
    try:
        return measure(args, spec, binary, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, spec, binary, run_dir, deadline):
    cmd = [str(binary), args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", str(run_dir.parent /
                               f"spans-{args.workload}.jsonl")]
    ckpt = run_dir / "ckpt"
    ckpt.mkdir(parents=True)
    setup_s, lines, rc, stderr = run_child(
        cmd, child_env(spec, ckpt, args.tiny), deadline,
        run_dir / "stderr.txt")
    return report(args, lines, rc, setup_s, stderr.count(RESTORE_FAILED))


def report(args, lines, rc, setup_s, restore_failures):
    summary = next((l["summary"] for l in lines if "summary" in l), None)
    begun = [l for l in lines if "begin" in l]
    attempted = sum(l["trials"] for l in begun)
    # Each failed restore is a trial that was re-simulated cold.
    failed = restore_failures
    if summary is None or rc != 0:
        # The workload's process died: the pass it had begun, or the
        # set-up's cold pass, is lost.
        log(f"perfbench: {args.workload} process exited with {rc}")
        lost = begun[-1]["trials"] if begun else 1
        attempted = max(attempted, lost)
        failed += lost
    if summary is not None:
        failed += int(summary["mismatches"] + summary["cold_mismatches"] +
                      summary["ckpt_failures"] +
                      summary.get("traced_mismatches", 0))
        rec = recorded(args.workload)
        if args.record:
            data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
            data[args.workload] = {"seed": DEFAULT_SEED,
                                   "digest": summary["digest"],
                                   "fingerprints": summary["fingerprints"]}
            DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True)
                               + "\n")
        elif args.seed == DEFAULT_SEED and not args.tiny:
            if rec is None:
                log("perfbench: no recorded digest for " + args.workload)
                failed += len(summary["fingerprints"])
            else:
                # A wrong trial is wrong in every round.
                rounds = len(summary["round_s"])
                bad = sum(a != b for a, b in zip(summary["fingerprints"],
                                                 rec["fingerprints"]))
                failed += bad * rounds
                if len(summary["fingerprints"]) != len(rec["fingerprints"]):
                    failed += len(summary["fingerprints"]) * rounds
    failed = min(failed, attempted)
    correct = summary is not None and rc == 0 and failed == 0

    metrics = {}
    if summary is not None:
        print(describe(args, summary))
        if args.trace:
            for name, unit in PER_LAYER:
                metrics[name] = {"value": summary["layers"][name],
                                 "unit": unit}
        else:
            metrics = end_to_end(summary, setup_s, attempted, failed)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} trials)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def describe(args, s):
    env = " ".join(f"{k}={v}" for k, v in sorted(s["env"].items()))
    rec = recorded(args.workload)
    if args.tiny or args.seed != DEFAULT_SEED:
        check = "rounds identical" if s["mismatches"] == 0 else "ROUNDS DIFFER"
    elif rec is None:
        check = "NO RECORDED DIGEST"
    else:
        check = ("matches recorded" if rec["digest"] == s["digest"]
                 else "DIFFERS FROM RECORDED " + rec["digest"])
    out = [f"perfbench {s['workload']} seed={s['seed']} trace={args.trace} "
           f"build={s['build_type']} compiler={s['compiler']} "
           f"nproc={s['nproc']} workers={s['workers']}",
           f"env: {env}",
           f"digest: {s['digest']} ({check}); {s['cells']} cells, "
           f"{s['trials_per_round']} trials per round, "
           f"{len(s['round_s'])} rounds"]
    if args.trace:
        out.append(f"traced: {s['traced_trials']} trials, "
                   f"{s['traced_mismatches']} differ from untraced")
    return "\n".join(out)


def per_trial(s):
    """Each distinct trial's host time: its median over the rounds.

    Every round runs the same trials, so a trial's repeats differ only
    by host noise; the median drops the repeats that a burst of other
    load on the host slowed down, which the tail of the raw times
    followed instead of pagesim.
    """
    n = int(s["trials_per_round"])
    times = s["trial_s"]
    return [statistics.median(times[i::n]) for i in range(n)]


def end_to_end(s, setup_s, attempted, failed):
    rounds = s["round_s"]
    # Serial workloads time each runTrial call. The pooled sweep hides
    # per-trial times, so there a sample is one whole pooled round, and
    # trial_p50_s equals wall_s.
    if s["trial_s"]:
        samples = per_trial(s)
        kind = (f"trials, each the median of its {len(rounds)} runs")
    else:
        samples, kind = rounds, "pooled rounds"
    tail, pct = tail_percentile(samples)
    print(f"trial_tail_s is p{pct:.1f} of {len(samples)} {kind}")
    raw = {
        "wall_s": statistics.median(rounds),
        "refs_per_s": s["touches"] / s["measured_s"],
        "trial_p50_s": statistics.median(samples),
        "trial_tail_s": tail,
        "setup_s": setup_s,
    }
    probe = statistics.median(s["probe_s"])
    f = (REF_PROBE_S / probe) ** SCALE_EXP
    print(f"host speed: probe median {probe:.6g} s over "
          f"{len(s['probe_s'])} probes, factor {f:.6g}; raw: " +
          " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    for name, values, what in (("wall_s", rounds, "rounds"),
                               ("trial_p50_s", samples, kind)):
        if len(values) >= 4:
            q = statistics.quantiles(values, n=4)
            print(f"{name} error: IQR {q[0] * f:.6g} to {q[2] * f:.6g} s "
                  f"over {len(values)} {what}")
    values = {
        "wall_s": raw["wall_s"] * f,
        "refs_per_s": raw["refs_per_s"] / f,
        "trial_p50_s": raw["trial_p50_s"] * f,
        "trial_tail_s": raw["trial_tail_s"] * f,
        "setup_s": raw["setup_s"] * f,
        "peak_rss_mb": s["peak_rss_mb"],
        "ok_ratio": 1.0 - failed / max(attempted, 1),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


if __name__ == "__main__":
    sys.exit(main())
