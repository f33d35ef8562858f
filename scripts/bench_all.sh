#!/usr/bin/env bash
# Run every bench driver in smoke mode and aggregate the per-driver
# BENCH_*.json artifacts into one BENCH_all.json for CI upload and
# scripts/bench_diff.py gating. The table-only drivers write no JSON;
# they run for their exit status.
#
# Usage: scripts/bench_all.sh [build-dir]
#   build-dir          defaults to ./build
#   WSEARCH_BENCHES    space-separated driver subset, e.g. "leaf sweep"
#                      (default: every bench_* built under
#                      build-dir/bench but bench_cluster, which CI runs
#                      on its own, with and without --faults); the
#                      aggregate then records "subset": true, so
#                      bench_diff.py notes, not fails, the benches a
#                      subset leaves out
#   Artifacts are written to the current working directory. Only the
#   benches of this run are aggregated, and each bench's
#   BENCH_<name>.json is removed before the bench runs, so a stale
#   artifact never stands in for a bench that stopped writing one.
set -euo pipefail

BUILD_DIR=${1:-build}
if [ ! -d "$BUILD_DIR/bench" ]; then
    echo "bench_all.sh: no $BUILD_DIR/bench (build first)" >&2
    exit 2
fi

# The drivers are whatever bench/CMakeLists.txt builds.
ALL_BENCHES=""
for bin in "$BUILD_DIR"/bench/bench_*; do
    b=${bin##*/bench_}
    if [ -f "$bin" ] && [ -x "$bin" ] && [ "$b" != cluster ]; then
        ALL_BENCHES="$ALL_BENCHES $b"
    fi
done
BENCHES=${WSEARCH_BENCHES:-$ALL_BENCHES}

for b in $BENCHES; do
    bin="$BUILD_DIR/bench/bench_$b"
    if [ ! -x "$bin" ]; then
        echo "bench_all.sh: missing $bin" >&2
        exit 2
    fi
    rm -f "BENCH_$b.json"
    echo "== bench_$b (smoke) =="
    # A driver exits nonzero when one of its checks fails, e.g.
    # fig6bc's clustered-sampling band gate (the full-replay oracle
    # outside the clustered estimate's confidence band).
    "$bin" --smoke
    echo
done

BENCHES="$BENCHES" SUBSET=${WSEARCH_BENCHES:+1} python3 - <<'EOF'
import json, os

out = {"schema_version": 1, "benches": {}}
if os.environ["SUBSET"]:
    out["subset"] = True
for name in sorted(os.environ["BENCHES"].split()):
    path = "BENCH_%s.json" % name
    if not os.path.exists(path):
        continue  # a table-only bench
    with open(path) as f:
        out["benches"][name] = json.load(f)
shas = {b.get("git_sha", "unknown") for b in out["benches"].values()}
out["git_sha"] = shas.pop() if len(shas) == 1 else "mixed"
with open("BENCH_all.json", "w") as f:
    json.dump(out, f, indent=1, sort_keys=True)
    f.write("\n")
print("aggregated %d benches into BENCH_all.json"
      % len(out["benches"]))
EOF
