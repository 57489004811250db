#!/usr/bin/env bash
# Mechanism guards: where the tree keeps one mechanism for a job, each
# guard greps for the names of the ones it deleted, prints every line
# that still uses one, and names itself.  Comment lines are exempt.  The
# last guard instead checks the metric declarations against DESIGN.md's
# list and the Prometheus names CI requires.  No guard depends on the
# build.
#
#   bash scripts/check_guards.sh    # exits 1 when any guard fires
set -u
cd "$(dirname "$0")/.."

status=0

# Drops comment lines from grep -n output.
code_lines() { grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; }

fired() {
  echo "guard \"$1\" fired: $2" >&2
  status=1
}

# One RNG family in the Monte-Carlo modules.  Pinned streams draw only
# through exec/rng.hpp: std engines and distributions are
# implementation-defined, so their bytes differ between standard
# libraries.
dirs=""
for m in defect fabsim core exec robust cache serve obs; do
  dirs="$dirs src/$m include/nanocost/$m"
done
if grep -rnE 'std::mt19937|std::[a-z_0-9]*_distribution|#include <random>' $dirs \
    | code_lines; then
  fired "One RNG family in the Monte-Carlo modules" \
    "std random engines or distributions found; draw through exec/rng.hpp"
fi

# One chunk loop.  Chunked kernels run through exec::parallel_reduce
# (parallel_for is it without scratch), whose one chunk body keeps the
# per-chunk span, exec.chunks counter, exec.chunk fault site and cancel
# poll.  Only exec and the campaign engine drive the pool directly.
if grep -rnE 'parallel_(for|reduce)_cancellable' src include tests | code_lines; then
  fired "One chunk loop" "pass the token to parallel_for/parallel_reduce instead"
fi
if grep -rn 'run_tasks(' src include \
    | grep -vE '^(include/nanocost/exec/|src/exec/|src/robust/campaign\.cpp:)' \
    | code_lines; then
  fired "One chunk loop" "run chunked work through exec::parallel_for/parallel_reduce"
fi

# One cancel channel.  A cancel token reaches a kernel one way, as its
# last argument: no thread-local scope, no token hierarchy, no separate
# Deadline type.
if grep -rnE 'CancelScope|current_cancel_token|child_with_deadline|g_active_scopes|Deadline::|robust::Deadline|\.child\(\)' \
    src include examples tests bench | code_lines; then
  fired "One cancel channel" "pass the robust::CancelToken as an argument instead"
fi

# One campaign shape.  run_campaign runs the one shape the serve daemon
# uses: fixed waves (kWaveChunks) and tries (kChunkAttempts), partial
# results, no retry backoff, and a cancel poll in each chunk task rather
# than in the pool.  The fab-lot campaign is its one production task.
if grep -rnE 'core::RiskCampaign|risk_campaign|allow_partial|retry_backoff_ms|wave_chunks|cancel_latched' \
    src include examples tests bench | code_lines; then
  fired "One campaign shape" \
    "keep one campaign shape: CampaignOptions has artifact_dir, max_chunks_this_run, pool and cancel"
fi

# Every entry point has a caller.  A job has one spelling, and it has a
# caller outside the tests: no cached, deadline-partial or dispatching
# batch-RNG twin that only tests (or nothing) call, and no key, digest
# or codec kept for one.
if grep -rnE 'robust_sd_partial|anneal_place_multistart_partial|PartialSweep|PartialMultistart|sweep_windows_cached|fabsim_run_cached|anneal_place_multistart_cached|window_sweep_key|anneal_place_multistart_key|cell_content_digest|netlist_content_digest|decode_window_sweep_points|decode_multistart_result|(splitmix64|bounded_u32|for_task|mix_add|u53_to_unit|u53_to_unit_pos)_batch\(' \
    src include examples tests bench | code_lines; then
  fired "Every entry point has a caller" \
    "call the one spelling of the job; pin SIMD lanes with the _at forms"
fi

# One box structure in the placer.  Every (gate, net) incidence holds
# the bounding box of the net's other pins, whatever the net's size, so
# a move visits no pin: no counted boxes, no small-net threshold and no
# SIMD pin scan.
if grep -rnE 'pin_scan|scan_span|PinPos|PinSpan|kSmallNetPins|counted_of_|refresh_others|NANOCOST_PIN_SCAN' \
    src include tests bench examples | code_lines; then
  fired "One box structure in the placer" \
    "score a move from the incidence's other-pin box (place/hpwl_cache.hpp)"
fi

# Two SIMD tiers.  Every batched kernel has the scalar oracle and the
# AVX2 lane, nothing between; no batch spelling is kept that only tests
# call (the bounded-draw batch, the plain size-sampling batch).
if grep -rnE 'kSse2|_sse2\(|NANOCOST_TARGET_SSE2|target\("sse2"\)|bounded_u32_batch|\bsample_batch\(' \
    src include tests bench examples | code_lines; then
  fired "Two SIMD tiers" "keep the scalar path and the AVX2 lane; call sample_batch_at"
fi

# One way to declare a metric.  Each module declares its metrics once,
# as the reference members of a table that obs::metrics_table registers
# together (obs/metrics.hpp); no site keeps a function-local static.
if grep -rnE 'static obs::(Counter|Gauge|Histogram)' src include examples bench | code_lines; then
  fired "One way to declare a metric" \
    "declare the metric in its module's table and reach it through obs::metrics_table"
fi

# One checksum for sealed bytes.  The record, the wire frame and the
# stats blob seal their bytes with cache::checksum64 (XXH64); FNV-1a
# hashes names (key tags, entry points, fault sites).
if grep -nE '\bfnv1a\b' src/robust/checkpoint.cpp src/serve/wire.cpp src/obs/stats.cpp \
    | code_lines; then
  fired "One checksum for sealed bytes" "seal with cache::checksum64; fnv1a is for names"
fi

# Every metric is listed.  The names the tables declare (a literal name
# passed to obs::counter, gauge or histogram in src or include) and the
# two families must be exactly DESIGN.md section 10's list, no two of
# them may render to one Prometheus name, and every Prometheus name that
# CI or the chaos soak requires must be the rendering of one of them.
if ! python3 - <<'PY'
import pathlib
import re
import sys

problems = []
declared = {}  # registry name -> kind
for path in sorted([*pathlib.Path("src").rglob("*.cpp"), *pathlib.Path("include").rglob("*.hpp")]):
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("//"):
            continue
        for kind, name in re.findall(r'obs::(counter|gauge|histogram)\("([^"]+)"\)', line):
            if name in declared:
                problems.append(f"{name} is declared twice (again in {path})")
            declared[name] = kind

# The families: each DESIGN row spelling, its kind, the literal its
# declaration starts with, and the registry names it can take.
server = pathlib.Path("src/serve/server.cpp").read_text()
def array(var):
    m = re.search(var + r'\[\d+\] = \{([^}]*)\}', server)
    return re.findall(r'"([^"]*)"', m.group(1)) if m else []
latency = [f"serve.latency_us.{j}.{o}" for j in array("kJobs") for o in array("kOutcomes")]
families = {
    "serve.latency_us.<job>.<outcome>": ("histogram", '"serve.latency_us."', latency),
    "serve.tenant_shed{tenant}": ("counter", '"serve.tenant_shed{tenant=', ['serve.tenant_shed{tenant="t"}']),
}
listed = dict(declared)
for family, (kind, literal, names) in families.items():
    if literal not in server or not names:
        problems.append(f"the family {family} is no longer declared in src/serve/server.cpp")
    listed[family] = kind

design = pathlib.Path("DESIGN.md").read_text()
section = design[design.index("\n## 10."):design.index("\n## 11.")]
rows = dict((n, k) for n, k in re.findall(r"^\| `([^`]+)` \| (counter|gauge|histogram) \|", section, re.M))
for name in sorted(listed.keys() - rows.keys()):
    problems.append(f"DESIGN.md section 10 does not list {name}")
for name in sorted(rows.keys() - listed.keys()):
    problems.append(f"DESIGN.md section 10 lists {name}, which no table declares")
for name in sorted(listed.keys() & rows.keys()):
    if listed[name] != rows[name]:
        problems.append(f"DESIGN.md section 10 calls {name} a {rows[name]}; it is a {listed[name]}")

def render(name):  # obs::sanitize_metric_name of the family part
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name.split("{")[0])
    return "_" + out if out[:1].isdigit() else out
rendered = {}  # Prometheus name -> the registry names it renders from
for name, kind in [*declared.items(),
                   *[(n, k) for k, _, names in families.values() for n in names]]:
    base = render(name)
    for r in [base] + ([base + "_bucket", base + "_sum", base + "_count"] if kind == "histogram" else []):
        rendered.setdefault(r, set()).add(name.split("{")[0])
for r, names in sorted(rendered.items()):
    if len(names) > 1:
        problems.append(f"{', '.join(sorted(names))} all render as {r}")

for path in [".github/workflows/ci.yml", "scripts/chaos_soak.sh"]:
    text = pathlib.Path(path).read_text()
    required = re.findall(r"--require-positive\s+([A-Za-z_:][A-Za-z0-9_:]*)", text)
    required += re.findall(r"""grep[^\n]*?['"]\^([A-Za-z_:][A-Za-z0-9_:]*) """, text)
    for r in sorted(set(required)):
        if r not in rendered:
            problems.append(f"{path} requires {r}, which no declared metric renders as")

for p in problems:
    print("  " + p, file=sys.stderr)
sys.exit(1 if problems else 0)
PY
then
  fired "Every metric is listed" \
    "keep DESIGN.md section 10's list, the tables and the required Prometheus names in step"
fi

exit "$status"
