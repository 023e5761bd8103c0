"""Statistics and span arithmetic for the mco benchmark.

Pure functions only, so perfbench/test_ledger.py can pin them down:
percentiles with the ten-samples-beyond rule, and per-layer self time
from a flat list of trace spans.
"""

from collections import defaultdict

# Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def nearest_rank(n, p):
    """0-based index of the p-th percentile of n sorted samples. Exact in
    tenths of a percent, so 95% of 200 is rank 190, not 191."""
    tenths = round(p * 10)
    return max(0, -(-tenths * n // 1000) - 1)


def samples_beyond(n, p):
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - nearest_rank(n, p) - 1 if n else 0


def percentile(values, p):
    """Nearest-rank percentile, or None unless MIN_BEYOND samples lie
    beyond it."""
    v = sorted(values)
    if samples_beyond(len(v), p) < MIN_BEYOND:
        return None
    return v[nearest_rank(len(v), p)]


def parse_spans(lines):
    """Spans from the runner's dump: 'iter tid start_ns dur_ns name'."""
    spans = []
    for line in lines:
        parts = line.split(" ", 4)
        if len(parts) == 5:
            it, tid, start, dur, name = parts
            spans.append((int(it), int(tid), int(start), int(dur),
                          name.rstrip("\n")))
    return spans


def self_times(spans):
    """Per span, its duration minus the time its direct children cover.

    A child is a span on the same (iteration, thread) whose interval lies
    inside the parent's. Returns a list of (name, dur_ns, self_ns) in input
    order."""
    out = [None] * len(spans)
    by_thread = defaultdict(list)
    for i, (it, tid, _, _, _) in enumerate(spans):
        by_thread[(it, tid)].append(i)
    for idx in by_thread.values():
        # Parents first: earlier start, then longer duration. The stack
        # then holds the chain of spans enclosing the current one.
        idx.sort(key=lambda i: (spans[i][2], -spans[i][3]))
        child = defaultdict(int)
        stack = []
        for i in idx:
            end = spans[i][2] + spans[i][3]
            while stack and spans[stack[-1]][2] + spans[stack[-1]][3] < end:
                stack.pop()
            if stack:
                child[stack[-1]] += spans[i][3]
            stack.append(i)
        for i in idx:
            out[i] = (spans[i][4], spans[i][3], spans[i][3] - child[i])
    return out


def base_name(name):
    """Span name without its instance suffix: 'outliner.round:3' and
    'pipeline.module:core' fold into 'outliner.round' and
    'pipeline.module'; 'api.runFleet:measure' is kept whole."""
    if name.startswith("api."):
        return name
    return name.split(":", 1)[0]


def aggregate(timed):
    """{name: (count, total_ns, self_ns)} over base names of self_times()
    output, plus the outliner.round:N spans split into round 1 and later
    rounds."""
    agg = defaultdict(lambda: [0, 0, 0])
    for name, dur, self_ns in timed:
        for key in {base_name(name), _round_key(name)} - {None}:
            a = agg[key]
            a[0] += 1
            a[1] += dur
            a[2] += self_ns
    return {k: tuple(v) for k, v in agg.items()}


def _round_key(name):
    if not name.startswith("outliner.round:"):
        return None
    return "outliner.round1" if name == "outliner.round:1" else \
        "outliner.later_rounds"


# The src/ module each span belongs to. Spans the benchmark records
# around public calls are named api.<function>; the program's own spans are
# named <module>.<phase>. api.programContentDigest is the benchmark's own
# output check, so it is charged to no layer.
API_LAYER = {
    "api.CorpusSynthesizer::generate": "synth",
    "api.buildProgram": "pipeline",
    "api.LayoutStrategy::plan": "linker",
    "api.BinaryImage::create": "linker",
    "api.Interpreter": "sim",
    "api.Interpreter::call": "sim",
    "api.runFleet:measure": "telemetry",
    "api.runFleet:verify": "telemetry",
    "api.DaemonClient::call": "daemon",
    "api.DaemonClient::submitBuild": "daemon",
}
PROGRAM_LAYER = {"pipeline": "pipeline", "outliner": "outliner",
                 "guard": "outliner", "cache": "cache", "fleet": "telemetry",
                 "daemon": "daemon"}

LAYERS = ("synth", "pipeline", "outliner", "cache", "linker", "sim",
          "telemetry", "daemon")


def layer_of(name):
    """The layer a span (by base name) is charged to, or None."""
    if name in API_LAYER:
        return API_LAYER[name]
    if name == "fleet.device":  # One simulated device: the interpreter.
        return "sim"
    return PROGRAM_LAYER.get(name.split(".", 1)[0])


def layer_self_ns(timed):
    """{layer: summed self time in ns} over self_times() output."""
    out = dict.fromkeys(LAYERS, 0)
    for name, _, self_ns in timed:
        layer = layer_of(base_name(name))
        if layer:
            out[layer] += self_ns
    return out
