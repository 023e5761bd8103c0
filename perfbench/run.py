#!/usr/bin/env python3
"""The mco benchmark: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S]

Builds the library, mco-buildd and the workload runner from source into
.bench_build (or $CARGO_TARGET_DIR) on first use, runs the runner for one
workload, checks its outputs, and prints a metric table followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ledger. Exits non-zero when
an output check fails. README.md in this directory documents the metrics,
the workloads and which layer should move which metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ledger  # noqa: E402

WORKLOADS = ("wp-outline", "pm-cache", "fleet-bp", "daemon-mix")

# (name, unit): printed with --trace 0 on every workload. Times are CPU
# time: on a shared VM, time stolen by the hypervisor makes wall time swing
# by tens of percent between runs, and the guest kernel leaves it out of
# CPU time. CPU time still moves with other guests' memory traffic, so the
# gated times are scaled to a machine of fixed speed (see speed_scale).
# Raw CPU and wall times are in the per-layer ledger.
END_TO_END = (
    ("setup_s", "s"),
    ("op_ref_ms", "ms"),
    ("text_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("span_cycles", "cycles"),
)

# The speed probe's CPU milliseconds on the reference machine, about its
# median on a 4-vCPU Xeon guest; scaled times read as CPU time there.
PROBE_REF_MS = 240.0

# (name, unit): printed with --trace 1 on every workload; a layer the
# workload bypasses reads zero.
PER_LAYER = (
    ("cpu.setup_s", "s"),
    ("cpu.op_ms", "ms"),
    ("cpu.probe_ms", "ms"),
    ("wall.setup_s", "s"),
    ("wall.op_p50_ms", "ms"),
    ("wall.items_per_s", "1/s"),
    ("synth.generate_s", "s"),
    ("synth.per_request_ms", "ms"),
    ("synth.instrs", "count"),
    ("pipeline.build_s", "s"),
    ("pipeline.cold_build_s", "s"),
    ("pipeline.warm_build_s", "s"),
    ("pipeline.link_s", "s"),
    ("pipeline.layout_s", "s"),
    ("pipeline.cache_prepass_s", "s"),
    ("pipeline.module_self_s", "s"),
    ("outliner.map_s", "s"),
    ("outliner.discovery_s", "s"),
    ("outliner.plan_s", "s"),
    ("outliner.liveness_s", "s"),
    ("outliner.commit_s", "s"),
    ("outliner.round1_s", "s"),
    ("outliner.later_rounds_s", "s"),
    ("outliner.patterns_considered", "count"),
    ("outliner.sequences_outlined", "count"),
    ("outliner.functions_created", "count"),
    ("outliner.functions_remapped", "count"),
    ("outliner.liveness_computed", "count"),
    ("outliner.bytes_saved", "bytes"),
    ("outliner.later_rounds_bytes_saved", "bytes"),
    ("outliner.created_per_considered", "ratio"),
    ("outliner.later_rounds_bytes_per_s", "bytes/s"),
    ("cache.store_s", "s"),
    ("cache.load_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_written", "bytes"),
    ("cache.corrupt", "count"),
    ("linker.bp_plan_s", "s"),
    ("linker.image_create_s", "s"),
    ("linker.est_text_faults", "count"),
    ("linker.est_text_faults_original", "count"),
    ("sim.interp_setup_ms", "ms"),
    ("sim.exec_ms_per_device", "ms"),
    ("sim.instrs_per_s", "1/s"),
    ("sim.instrs", "count"),
    ("fleet.measure_pass_s", "s"),
    ("fleet.verify_pass_s", "s"),
    ("fleet.span_cycles_p50", "cycles"),
    ("fleet.text_faults_p50", "count"),
    ("daemon.ping_ms", "ms"),
    ("daemon.start_ms", "ms"),
    ("daemon.req_p95_ms", "ms"),
    ("daemon.completed", "count"),
    ("daemon.rejected", "count"),
    ("daemon.degraded", "count"),
    ("daemon.failed", "count"),
    ("daemon.hit_ratio", "ratio"),
    ("daemon.cpu_s", "s"),
    ("daemon.synth_share", "ratio"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
) + tuple(("layer.%s_s" % layer, "s") for layer in ledger.LAYERS) + (
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_op", "count"),
)

# Pinned per seed beside the output digests: the size of the generated
# input. Work counters are not pinned, so a change that does less work for
# the same output passes; the runner checks that they repeat within a run.
PINNED_COUNTERS = ("synth.instrs",)

PINS_PATH = os.path.join(HERE, "pins.json")
# Seconds the runner may take beyond --seconds: set-up, the output checks
# and the last operation of the timed loop.
RUNNER_SLACK_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    steps = [] if os.path.exists(os.path.join(out, "CMakeCache.txt")) \
        else [cmd]
    steps.append(["cmake", "--build", out, "-j", "4"])
    for step in steps:
        r = subprocess.run(step, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: %s" % " ".join(step))
            sys.exit(2)
    return out


def run_workload(out, workload, seed, seconds, trace, work, check_only=False):
    cmd = [os.path.join(out, "perfbench-workloads"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work", work,
           "--buildd", os.path.join(out, "mco-buildd")]
    if check_only:
        cmd.append("--check-only")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=seconds + RUNNER_SLACK_S)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out on %s" % workload)
        sys.exit(3)
    if r.returncode != 0 or not r.stdout.strip():
        log("perfbench: runner failed (exit %d) on %s" % (r.returncode,
                                                         workload))
        sys.exit(3)
    return json.loads(r.stdout.strip().splitlines()[-1])


def load_pins():
    if not os.path.exists(PINS_PATH):
        return {}
    with open(PINS_PATH) as f:
        return json.load(f)


def pin_record(d):
    return {"digests": d["digests"],
            "counters": {k: v for k, v in d["counters"].items()
                         if k in PINNED_COUNTERS}}


def check_outputs(d, workload, seed):
    """Names of failed output checks (empty when all pass)."""
    bad = [name for name, ok in d["checks"].items() if not ok]
    pinned = load_pins().get(workload, {}).get(str(seed))
    if pinned is not None and pin_record(d) != pinned:
        bad.append("pinned digests or input size for seed %d" % seed)
    if d["spans_dropped"]:
        bad.append("tracer dropped %d spans" % d["spans_dropped"])
    return bad


def s_sum(d, key):
    return sum(d["samples"].get(key, []))


def speed_scale(d, phase=""):
    """PROBE_REF_MS over the median speed-probe time of the run's untraced
    (or traced) half: a run on a machine slowed by other guests reads its
    probe slower and is scaled down by the same factor."""
    probe = ledger.median(d["samples"].get(phase + "probe_ms", []))
    return PROBE_REF_MS / probe if probe else 1.0


def end_to_end(d):
    s = d["samples"]
    v = d["values"]
    scale = speed_scale(d)
    return {
        "setup_s": scale * ledger.median(s.get("setup_s", [])),
        "op_ref_ms": scale * ledger.median(s.get("op_cpu_ms", [])),
        "text_bytes": v.get("text_bytes", 0.0),
        "peak_rss_mb": v.get("peak_rss_mb", 0.0),
        "span_cycles": v.get("span_cycles", 0.0),
    }


def per_layer(d):
    s, v, c = d["samples"], d["values"], d["counters"]
    spans = []
    if d["spans"] and os.path.exists(d["spans"]):
        with open(d["spans"]) as f:
            spans = ledger.parse_spans(f)
    timed = ledger.self_times(spans)
    agg = ledger.aggregate(timed)
    layers = ledger.layer_self_ns(timed)

    def mean_s(name, field=1):
        a = agg.get(name)
        return a[field] / 1e9 / a[0] if a and a[0] else 0.0

    traced_ops = len(s.get("traced.op_ms", []))

    def per_op_s(name, field=2):
        a = agg.get(name)
        return a[field] / 1e9 / traced_ops if a and traced_ops else 0.0

    all_ops = len(s.get("op_ms", [])) + traced_ops
    wall = s_sum(d, "items_wall_s")
    wall_op = ledger.median(s.get("op_ms", []))
    # Tracing overhead in CPU time where both halves have per-operation
    # samples; the daemon's CPU is in the child, so it falls back to wall.
    key = "op_cpu_ms" if s.get("traced.op_cpu_ms") else "op_ms"
    untraced = ledger.median(s.get(key, [])) * speed_scale(d)
    traced = ledger.median(s.get("traced." + key, [])) * speed_scale(
        d, "traced.")
    later_s = per_op_s("outliner.later_rounds", 1)
    probe_devices = s_sum(d, "traced.sim.probe_devices")
    call_s = agg.get("api.Interpreter::call", (0, 0, 0))[1] / 1e9
    # Requests from both halves: the tracer runs in the client, not in the
    # daemon that serves them.
    req_p95 = ledger.percentile(s.get("op_ms", []) + s.get("traced.op_ms", []),
                                95.0) if d["workload"] == "daemon-mix" else None
    synth_req = ledger.median(s.get("synth.per_request_ms", []))
    hits, misses = c.get("cache.hits", 0), c.get("cache.misses", 0)

    m = {
        "cpu.setup_s": ledger.median(s.get("setup_s", [])),
        "cpu.op_ms": ledger.median(s.get("op_cpu_ms", [])),
        "cpu.probe_ms": ledger.median(s.get("probe_ms", []) +
                                      s.get("traced.probe_ms", [])),
        "wall.setup_s": ledger.median(s.get("setup_wall_s", [])),
        "wall.op_p50_ms": wall_op,
        "wall.items_per_s": s_sum(d, "items") / wall if wall else 0.0,
        "synth.generate_s": mean_s("api.CorpusSynthesizer::generate"),
        "synth.per_request_ms": synth_req,
        "synth.instrs": c.get("synth.instrs", 0),
        "pipeline.build_s": mean_s("api.buildProgram"),
        "pipeline.cold_build_s": ledger.median(s.get("cold_build_s", [])),
        "pipeline.warm_build_s": ledger.median(s.get("warm_build_s", [])),
        "pipeline.link_s": ledger.median(s.get("traced.pipeline.link_s",
                                               [])),
        "pipeline.layout_s": ledger.median(
            s.get("traced.pipeline.layout_s", [])),
        "pipeline.cache_prepass_s": per_op_s("pipeline.cache_prepass"),
        "pipeline.module_self_s": per_op_s("pipeline.module"),
        "outliner.map_s": per_op_s("outliner.map"),
        "outliner.discovery_s": per_op_s("outliner.discovery"),
        "outliner.plan_s": per_op_s("outliner.plan"),
        "outliner.liveness_s": per_op_s("outliner.liveness"),
        "outliner.commit_s": per_op_s("outliner.commit"),
        "outliner.round1_s": per_op_s("outliner.round1", 1),
        "outliner.later_rounds_s": later_s,
        "outliner.created_per_considered":
            c.get("outliner.functions_created", 0) /
            c["outliner.patterns_considered"]
            if c.get("outliner.patterns_considered") else 0.0,
        "outliner.later_rounds_bytes_per_s":
            c.get("outliner.later_rounds_bytes_saved", 0) / later_s
            if later_s else 0.0,
        "cache.store_s": per_op_s("cache.store"),
        "cache.load_s": per_op_s("cache.load"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "linker.bp_plan_s": mean_s("api.LayoutStrategy::plan"),
        "linker.image_create_s": mean_s("api.BinaryImage::create"),
        "sim.interp_setup_ms": 1e3 * mean_s("api.Interpreter"),
        "sim.exec_ms_per_device":
            1e3 * call_s / probe_devices if probe_devices else 0.0,
        "sim.instrs_per_s":
            s_sum(d, "traced.sim.probe_instrs") / call_s if call_s else 0.0,
        "fleet.measure_pass_s": mean_s("api.runFleet:measure"),
        "fleet.verify_pass_s": mean_s("api.runFleet:verify"),
        "daemon.ping_ms": ledger.median(s.get("traced.daemon.ping_ms", [])),
        "daemon.req_p95_ms": req_p95 or 0.0,
        "daemon.synth_share":
            synth_req / wall_op if synth_req and wall_op else 0.0,
        "proc.user_s": v.get("proc.user_s", 0.0) / all_ops if all_ops else 0.0,
        "proc.sys_s": v.get("proc.sys_s", 0.0) / all_ops if all_ops else 0.0,
        "trace.overhead_pct":
            100.0 * (traced / untraced - 1.0) if untraced and traced
            else 0.0,
        "trace.spans_per_op": len(spans) / traced_ops if traced_ops else 0.0,
    }
    for layer, ns in layers.items():
        m["layer.%s_s" % layer] = ns / 1e9 / traced_ops if traced_ops else 0.0
    for name, _ in PER_LAYER:
        if name not in m:
            m[name] = v.get(name, c.get(name, 0))
    return m


def run_one(out, workload, seed, seconds, trace):
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (workload,
                                                          os.getpid()))
    try:
        d = run_workload(out, workload, seed, seconds, trace, work)
        bad = check_outputs(d, workload, seed)
        table = PER_LAYER if trace else END_TO_END
        values = per_layer(d) if trace else end_to_end(d)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table}
    print("%s seed %d: %d attempted, %d failed" % (
        workload, seed, d["attempted"], d["failed"]))
    for name, unit in table:
        print("  %-36s %16.6g %s" % (name, values[name], unit))
    for note in d["notes"] + bad:
        print("  CHECK FAILED: %s" % note)
    correct = not bad and d["failed"] == 0
    return correct, d["attempted"], d["failed"], metrics


def write_pins(out, seeds):
    pins = load_pins()
    for workload in WORKLOADS:
        for seed in seeds:
            work = os.path.join(ROOT, ".bench_work", "pin-%d" % os.getpid())
            try:
                d = run_workload(out, workload, seed, 1, False, work, True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if not all(d["checks"].values()):
                log("perfbench: %s seed %d fails its checks; not pinned" %
                    (workload, seed))
                sys.exit(1)
            pins.setdefault(workload, {})[str(seed)] = pin_record(d)
            log("pinned %s seed %d" % (workload, seed))
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", metavar="SEEDS",
                    help="record digests and input sizes for seeds A-B")
    a = ap.parse_args()
    out = build()
    if a.write_pins:
        lo, _, hi = a.write_pins.partition("-")
        write_pins(out, range(int(lo), int(hi or lo) + 1))
        return 0
    names = WORKLOADS if a.workload == "all" else (a.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in names:
        ok, att, fail, m = run_one(out, w, a.seed, a.seconds, a.trace)
        correct, attempted, failed = correct and ok, attempted + att, \
            failed + fail
        if a.workload == "all":
            m = {"%s.%s" % (w, k): x for k, x in m.items()}
        metrics.update(m)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
