#!/usr/bin/env bash
# Perf smoke: run every experiment once through `bgbench` and check its
# report. Then run the Fig. 8 near-neighbor sweep (64 nodes) on one
# worker (--threads 1, the conformance oracle) and on the shard pool
# (--threads 4) and fail if any trace digest or final cycle diverges.
# Then run the FWQ figure (fig5_7) with the event-reduction fast path
# on and off and fail if those digests differ — the fast path must be
# bit-identical to the heap path.
# Host-performance numbers (wall seconds, sim_cycles_per_sec) are
# recorded in the stats JSON artifacts and printed for both modes; they
# are informational only — shared CI runners are too noisy to gate on
# a speedup ratio.
set -euo pipefail

out="${1:-perf-smoke}"
mkdir -p "$out"

bgbench=./target/release/bgbench
bgtop=./target/release/bgtop
[ -x "$bgbench" ] || { echo "error: $bgbench not built (cargo build --release first)" >&2; exit 1; }
[ -x "$bgtop" ] || { echo "error: $bgtop not built (cargo build --release first)" >&2; exit 1; }

# Every experiment at its default size (fig_scale at 64 and 512 nodes):
# each must exit 0 with a schema-3 report carrying host.peak_rss_bytes;
# the ones that simulate must carry digest.* strings, and all of those
# but fig_scale (telemetry off) a profile.* block.
for exp in fig5_7_fwq table1_latency fig8_throughput stability_linpack \
    stability_allreduce table2_3_features boot_time repro_bringup \
    noise_ablation noise_injection io_noise io_proxy_ablation \
    l2_bank_ablation page_size_ablation fig_scale; do
  args=()
  [ "$exp" = fig_scale ] && args=(64 512)
  rc=0
  "$bgbench" "$exp" "${args[@]}" --force --stats-out "$out/all_$exp.json" >/dev/null || rc=$?
  [ "$rc" -eq 0 ] || { echo "FAIL: bgbench $exp exited $rc" >&2; exit 1; }
  python3 - "$out/all_$exp.json" "$exp" <<'EOF'
import json, sys
path, exp = sys.argv[1], sys.argv[2]
r = json.load(open(path))
assert r.get("bench") == exp, f"{path}: bench {r.get('bench')!r}"
v = r.get("schema_version")
assert v == 3, f"{path}: schema_version {v!r}, expected 3"
s = r.get("scalars", {})
assert "host.peak_rss_bytes" in s, f"{path}: no host.peak_rss_bytes scalar"
simulates = exp not in ("table2_3_features", "boot_time", "page_size_ablation")
digests = any(k.startswith("digest.") for k in r.get("strings", {}))
profile = any(k.startswith("profile.") for k in s)
assert digests == simulates, f"{path}: digest.* present={digests}, expected {simulates}"
assert profile == (simulates and exp != "fig_scale"), \
    f"{path}: profile.* present={profile}"
EOF
done
echo "perf smoke OK: all 15 experiments ran and their reports check out"

"$bgbench" fig8_throughput --threads 1 --force --stats-out "$out/fig8_t1.json"
"$bgbench" fig8_throughput --threads 4 --force --stats-out "$out/fig8_t4.json" \
  --monitor-out "$out/fig8_mon.jsonl"

# Schema gate: every stats report must carry schema_version 3, at least
# one digest.* string, and host.* perf scalars — a report missing them
# is not comparable and must be rejected, not silently diffed as empty.
# v3 added the host.peak_rss_bytes / host.bytes_per_node memory block.
validate_schema() {
  python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
r = json.load(open(path))
v = r.get("schema_version")
assert v == 3, f"{path}: schema_version {v!r}, expected 3"
assert any(k.startswith("digest.") for k in r.get("strings", {})), \
    f"{path}: no digest.* keys in strings"
assert any(k.startswith("host.") for k in r.get("scalars", {})), \
    f"{path}: no host.* keys in scalars"
assert "host.peak_rss_bytes" in r.get("scalars", {}), \
    f"{path}: no host.peak_rss_bytes scalar"
assert any(k.startswith("profile.") for k in r.get("scalars", {})), \
    f"{path}: no profile.* keys in scalars"
EOF
}
validate_schema "$out/fig8_t1.json"
validate_schema "$out/fig8_t4.json"

# Compare every determinism-bearing field: the per-shard and combined
# digests (strings section) and the final-cycle scalars. Host-perf
# fields legitimately differ between runs, so filter to the stable keys.
extract() {
  python3 - "$1" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
for k in sorted(r.get("strings", {})):
    if k.startswith("digest."):
        print(k, r["strings"][k])
for k in sorted(r.get("scalars", {})):
    if k.startswith("final_cycle."):
        print(k, r["scalars"][k])
EOF
}

# Sim-side profile counters (profile.*) must also be bit-identical
# across host thread counts — the cycle-accounting profiler observes the
# deterministic simulation, never the host schedule.
extract_profile() {
  python3 - "$1" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
for k in sorted(r.get("scalars", {})):
    if k.startswith("profile."):
        print(k, r["scalars"][k])
EOF
}

extract "$out/fig8_t1.json" > "$out/t1.keys"
extract "$out/fig8_t4.json" > "$out/t4.keys"

if ! diff -u "$out/t1.keys" "$out/t4.keys"; then
  echo "FAIL: parallel run diverged from the sequential oracle" >&2
  exit 1
fi
[ -s "$out/t1.keys" ] || { echo "FAIL: no digests extracted" >&2; exit 1; }

echo "perf smoke OK: $(grep -c '^digest\.' "$out/t1.keys") digests identical across --threads 1/4"

extract_profile "$out/fig8_t1.json" > "$out/t1.profile"
extract_profile "$out/fig8_t4.json" > "$out/t4.profile"
if ! diff -u "$out/t1.profile" "$out/t4.profile"; then
  echo "FAIL: profile counters diverged across --threads 1/4" >&2
  exit 1
fi
[ -s "$out/t1.profile" ] || { echo "FAIL: no profile.* counters extracted" >&2; exit 1; }
echo "perf smoke OK: $(wc -l < "$out/t1.profile") profile counters identical across --threads 1/4"

# Live-monitor demo: the --threads 4 run streamed JSONL snapshots;
# bgtop must parse the file and render the final table.
[ -s "$out/fig8_mon.jsonl" ] || { echo "FAIL: fig8 wrote no monitor snapshots" >&2; exit 1; }
"$bgtop" "$out/fig8_mon.jsonl" --once | tee "$out/bgtop.txt"
grep -q "bgtop — fig8_throughput" "$out/bgtop.txt" \
  || { echo "FAIL: bgtop rendered no header" >&2; exit 1; }
echo "perf smoke OK: bgtop rendered $(wc -l < "$out/fig8_mon.jsonl") monitor snapshot(s)"

# Fast path conformance + throughput: same figure, event reduction on
# (default) and off. Digests and final cycles must match exactly;
# host.<kernel>.sim_cycles_per_sec shows what the fast path buys.
"$bgbench" fig5_7_fwq --threads 1 --force --stats-out "$out/fwq_fast.json"
"$bgbench" fig5_7_fwq --threads 1 --no-fast-path --force --stats-out "$out/fwq_heap.json"
validate_schema "$out/fwq_fast.json"
validate_schema "$out/fwq_heap.json"

extract "$out/fwq_fast.json" > "$out/fast.keys"
extract "$out/fwq_heap.json" > "$out/heap.keys"

if ! diff -u "$out/heap.keys" "$out/fast.keys"; then
  echo "FAIL: fast path diverged from the heap path" >&2
  exit 1
fi
[ -s "$out/fast.keys" ] || { echo "FAIL: no FWQ digests extracted" >&2; exit 1; }

python3 - "$out/fwq_fast.json" "$out/fwq_heap.json" <<'EOF'
import json, sys
fast = json.load(open(sys.argv[1]))["scalars"]
heap = json.load(open(sys.argv[2]))["scalars"]
for kernel in ("cnk", "linux"):
    key = f"host.{kernel}.sim_cycles_per_sec"
    f, h = fast.get(key, 0.0), heap.get(key, 0.0)
    ratio = f / h if h else float("nan")
    print(f"{key}: fast {f:.3e}  heap {h:.3e}  speedup {ratio:.2f}x")
EOF

echo "perf smoke OK: fast-path digests identical to the heap path"

# Trace export keeps every event: at its default 12 000 samples the FWQ
# Linux run records 123 172 exportable events, more than the 65 536 a
# bounded event buffer would hold, and the Chrome trace must carry them
# all.
"$bgbench" fig5_7_fwq --force --trace-out "$out/fig5_7_fwq.json" >/dev/null
python3 - "$out/fig5_7_fwq.linux.json" <<'EOF'
import json, sys
n = len(json.load(open(sys.argv[1]))["traceEvents"])
assert n > 65536, f"{sys.argv[1]}: {n} events, expected more than 65536"
print(f"fig5_7_fwq Linux trace: {n} events")
EOF
echo "perf smoke OK: --trace-out keeps every event"

# Unknown-flag check: the bench CLI must refuse a flag it does not
# have (here `--engine`; there is one event-queue structure, so no
# backend to select) with a usage error, exit 2, instead of silently
# running the default.
rc=0
"$bgbench" fig5_7_fwq --engine heap --force --stats-out "$out/bogus.json" \
  2>"$out/bogus.err" || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: --engine heap exited $rc, expected 2" >&2; exit 1; }
grep -q -- "--engine" "$out/bogus.err" \
  || { echo "FAIL: the usage error did not name --engine" >&2; exit 1; }
echo "perf smoke OK: unknown flag --engine rejected with exit 2"

# A shared flag is refused by an experiment that does not honour it:
# Table I takes no fault schedule, so --fault-seed is a usage error
# naming the flag, not an unfaulted run that exits 0.
rc=0
"$bgbench" table1_latency --fault-seed 13 --force --stats-out "$out/refused.json" \
  >/dev/null 2>"$out/refused.err" || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: table1_latency --fault-seed exited $rc, expected 2" >&2; exit 1; }
grep -q -- "--fault-seed" "$out/refused.err" \
  || { echo "FAIL: the usage error did not name --fault-seed" >&2; exit 1; }
echo "perf smoke OK: table1_latency --fault-seed refused with exit 2"

# ---- RAS fault-injection smoke ----------------------------------------------
# 1) A seeded fault schedule must itself be thread-invariant: fig8 with
#    --fault-seed under --threads 1 and --threads 4 must agree on every
#    digest and final cycle.
"$bgbench" fig8_throughput --threads 1 --fault-seed 13 --force \
  --stats-out "$out/fig8_fault_t1.json"
"$bgbench" fig8_throughput --threads 4 --fault-seed 13 --force \
  --stats-out "$out/fig8_fault_t4.json"

extract "$out/fig8_fault_t1.json" > "$out/fault_t1.keys"
extract "$out/fig8_fault_t4.json" > "$out/fault_t4.keys"

if ! diff -u "$out/fault_t1.keys" "$out/fault_t4.keys"; then
  echo "FAIL: seeded fault run diverged across --threads 1/4" >&2
  exit 1
fi
[ -s "$out/fault_t1.keys" ] || { echo "FAIL: no faulted digests extracted" >&2; exit 1; }

# The faulted digests must NOT equal the clean ones (the schedule has
# to actually perturb the runs).
if diff -q "$out/t1.keys" "$out/fault_t1.keys" >/dev/null; then
  echo "FAIL: --fault-seed 13 produced digests identical to the clean run" >&2
  exit 1
fi

echo "perf smoke OK: faulted digests identical across --threads 1/4 (and differ from clean)"

# 2) Recovery semantics on the io_noise workload (seed 13 puts a CIOD
#    flap inside the checkpoint burst): CNK must survive via the retry
#    protocol (nonzero ciod.retries / ras.events), and the FWK's RAS
#    recovery daemons must add noise relative to its no-fault run.
"$bgbench" io_noise 800 --force --stats-out "$out/io_clean.json" >/dev/null
"$bgbench" io_noise 800 --fault-seed 13 --force --stats-out "$out/io_fault.json" >/dev/null
validate_schema "$out/io_clean.json"
validate_schema "$out/io_fault.json"

python3 - "$out/io_fault.json" "$out/io_clean.json" <<'EOF'
import json, sys
fault = json.load(open(sys.argv[1]))["metrics"]
clean = json.load(open(sys.argv[2]))["metrics"]

def node0(run, label, key):
    return run.get(label, {}).get(key, {}).get("values", {}).get("node0", 0)

retries = node0(fault, "cnk.checkpointing", "ciod.retries")
ras = node0(fault, "cnk.checkpointing", "ras.events")
backoff = node0(fault, "cnk.checkpointing", "ciod.backoff_cycles")
assert retries > 0, f"CNK flap produced no ciod.retries (got {retries})"
assert ras > 0, f"CNK flap produced no ras.events (got {ras})"
assert backoff > 0, f"CNK retries recorded no ciod.backoff_cycles"
fwk_ras = node0(fault, "linux.quiet", "ras.events")
assert fwk_ras > 0, f"FWK run saw no injected RAS events (got {fwk_ras})"
fwk_fault = node0(fault, "linux.quiet", "noise.events")
fwk_clean = node0(clean, "linux.quiet", "noise.events")
assert fwk_fault > fwk_clean, (
    f"FWK fault run not noisier: {fwk_fault} vs {fwk_clean}")
print(f"CNK survived the CIOD flap: {retries} retries, {backoff} backoff cycles, {ras} RAS events")
print(f"FWK recovery daemons added noise: {fwk_fault} vs {fwk_clean} events")
EOF

echo "perf smoke OK: RAS fault smoke passed"

# 3) A machine check that kills the io_noise job before its sampler
#    cores record a sample must still report (a `-` for each empty
#    core), not panic.
printf '900000 0 machine-check 0\n' > "$out/machine_check.faults"
rc=0
"$bgbench" io_noise 400 --fault-script "$out/machine_check.faults" --force \
  --stats-out "$out/io_mce.json" >"$out/io_mce.txt" 2>&1 || rc=$?
[ "$rc" -eq 0 ] || { cat "$out/io_mce.txt" >&2; echo "FAIL: io_noise under a machine check exited $rc" >&2; exit 1; }
validate_schema "$out/io_mce.json"
echo "perf smoke OK: io_noise reports a job a machine check killed"

# ---- rack-scale layout smoke -------------------------------------------------
# Small fig_scale sweep (64 and 512 nodes keep the leg CI-sized; the
# checked-in BENCH_scale.json is the full sweep on the reference host).
# Gates: digests must agree across --threads 1/4 shard pools, and the
# report must carry the scale.* memory block and the per-point set-up
# and drop timings.
"$bgbench" fig_scale 64 512 --threads 1 --force --stats-out "$out/scale_t1.json" >/dev/null
"$bgbench" fig_scale 64 512 --threads 4 --force --stats-out "$out/scale_t4.json" >/dev/null

extract "$out/scale_t1.json" > "$out/scale_t1.keys"
extract "$out/scale_t4.json" > "$out/scale_t4.keys"
if ! diff -u "$out/scale_t1.keys" "$out/scale_t4.keys"; then
  echo "FAIL: fig_scale diverged across --threads 1/4" >&2
  exit 1
fi
[ -s "$out/scale_t1.keys" ] || { echo "FAIL: no fig_scale digests extracted" >&2; exit 1; }

# fig_scale reports no profile.* block (telemetry stays off so the
# memory figure is the layout's, not the profiler's) — validate its
# schema and scale.* keys directly instead of via validate_schema.
python3 - "$out/scale_t1.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
v = r.get("schema_version")
assert v == 3, f"schema_version {v!r}, expected 3"
s, g = r["scalars"], r["strings"]
for n in (64, 512):
    assert f"digest.n{n}" in g, f"missing digest.n{n}"
    for k in ("resident_bytes", "bytes_per_node", "events_per_sec",
              "setup_seconds", "drop_seconds"):
        assert f"scale.n{n}.{k}" in s, f"missing scale.n{n}.{k}"
assert "host.peak_rss_bytes" in s, "missing host.peak_rss_bytes"
print(f"fig_scale: {s['scale.n512.bytes_per_node']:.0f} B/node, "
      f"{s['scale.n512.setup_seconds'] * 1e6 / 512:.2f} µs/node set-up at 512 nodes")
EOF
echo "perf smoke OK: rack-scale digests identical across --threads 1/4"

# 4) Panic-free kernel core: ciod, bgsim, cnk, and bgcheck all carry
#    #![deny(clippy::unwrap_used)] in-source; a plain clippy run is the
#    gate (a CLI -D flag would leak into vendored path deps).
if command -v cargo-clippy >/dev/null 2>&1 || cargo clippy --version >/dev/null 2>&1; then
  cargo clippy -p ciod -p bgsim -p cnk -p bgcheck --release --quiet
  echo "perf smoke OK: clippy (unwrap_used deny) clean on ciod/bgsim/cnk/bgcheck"
else
  echo "note: clippy unavailable, skipping unwrap gate"
fi
