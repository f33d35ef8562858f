#!/usr/bin/env python3
"""Gate bench output against a previous run's artifacts.

Usage:
    scripts/bench_diff.py CURRENT BASELINE
    scripts/bench_diff.py --selftest

CURRENT and BASELINE are BENCH_all.json files (or directories
containing one), as produced by scripts/bench_all.sh.

Two kinds of checks, per bench present in both runs (and only when
both runs used the same schema_version, the same smoke setting, and
matching config keys):

  * correctness counters: deterministic counts (postings decoded,
    equivalence tallies, determinism flags). Any difference is DRIFT
    and fails the gate (exit 1) -- same inputs must count the same.
  * wall time: > WARN_WALL_FRAC regression on the gated benches
    prints a warning (GitHub annotation format) but passes; bench
    machines are noisy, so time never hard-fails.

In-run invariants (measured == expected) are checked on CURRENT even
when the baseline lacks that bench, so a truncated or crashed run
cannot slip through by also corrupting its artifact.

Exit codes: 0 ok (warnings allowed), 1 drift/invariant failure,
2 usage or unreadable input.
"""

import json
import os
import sys

WARN_WALL_FRAC = 0.15
WALL_GATED = ("leaf", "serve", "sweep")

# Per-bench deterministic keys: equal configs must reproduce these
# exactly. Keys listed under "rows" are compared per rows[] element,
# matched by the "key_by" fields. Wall-clock-derived numbers (qps,
# docs/s, latency) are deliberately absent.
GATES = {
    "leaf": {
        "config": ["smoke", "docs", "queries_per_workload"],
        "counters": ["equivalent_queries",
                     "expected_equivalent_queries"],
        "rows": {
            "field": "rows",
            "key_by": ["workload", "codec"],
            "counters": ["postings_decoded", "candidates_scored",
                         "blocks_decoded", "blocks_skipped",
                         "packed_blocks_decoded"],
        },
        "invariants": [("equivalent_queries",
                        "expected_equivalent_queries")],
    },
    "sweep": {
        "config": ["smoke", "configs", "records_per_config"],
        "counters": ["all_identical"],
        "invariants": [("all_identical", 1)],
    },
    "ingest": {
        "config": ["smoke", "docs", "terms_per_doc", "commit_batch"],
        # Background merges race the writer, so segment/merge counts
        # are legitimately run-dependent; only the doc ledger is
        # deterministic.
        "counters": ["live_docs"],
        "invariants": [],
    },
    "serve": {
        "config": ["smoke", "workers", "scaling_queries"],
        # Thread-scaling rows are closed-loop: every submitted query
        # must resolve (worker completion or cache hit), none shed,
        # and the snapshot identities must hold -- exactly, per row.
        # qps / speedup / hit_rate are wall-clock or
        # interleaving-dependent and deliberately ungated.
        "counters": ["scaling_rows_ok"],
        "rows": {
            "field": "rows",
            "key_by": ["mix", "workers"],
            "counters": ["queries", "resolved", "shed",
                         "stats_consistent"],
        },
        "invariants": [("scaling_rows_ok", 1)],
    },
    "replacement": {
        "config": ["smoke"],
        "counters": [],
        "rows": {
            "field": "rows",
            "key_by": ["l3_capacity", "variant"],
            "counters": ["l3_accesses", "l3_misses",
                         "back_invalidations", "instructions"],
        },
        "invariants": [],
    },
    "micro": {
        "config": ["smoke"],
        "counters": [],
        "rows": {
            "field": "rows",
            "key_by": ["kernel"],
            "counters": ["items", "checksum"],
        },
        "invariants": [],
    },
    "ablation": {
        "config": ["smoke", "records_unit"],
        "counters": [],
        "rows": {
            "field": "rows",
            "key_by": ["study", "variant"],
            "counters": ["instructions", "l3_misses", "l4_misses",
                         "back_invalidations"],
        },
        "invariants": [],
    },
    "fig6bc": {
        # Sampling knobs are config: a deliberate knob change re-baselines
        # instead of reading as drift. The band_violations invariant is
        # the clustered-vs-oracle statistical gate -- the binary also
        # exits nonzero on it, but asserting it here means a stale or
        # hand-edited artifact cannot pass either.
        "config": ["smoke", "cores", "scaled_measure_records",
                   "scaled_warmup_records", "nominal_measure_records",
                   "nominal_warmup_records", "gate_records",
                   "sampling_policy", "sample_window_records",
                   "sample_clusters", "sample_seed"],
        "counters": ["gate_oracle_l3_misses",
                     "gate_clustered_l3_misses",
                     "gate_uniform_l3_misses", "band_violations"],
        "rows": {
            "field": "rows",
            "key_by": ["section", "l3_sim_bytes"],
            "counters": ["instructions", "l3_accesses", "l3_misses",
                         "sampled_windows", "represented_windows"],
        },
        "invariants": [("band_violations", 0)],
    },
    "fig8": {
        "config": ["smoke", "cores", "scaled_measure_records",
                   "scaled_warmup_records", "nominal_measure_records",
                   "nominal_warmup_records", "sampling_policy",
                   "sample_window_records", "sample_clusters",
                   "sample_seed"],
        "counters": [],
        "rows": {
            "field": "rows",
            "key_by": ["section", "ways"],
            "counters": ["instructions", "l3_accesses", "l3_misses",
                         "sampled_windows", "represented_windows"],
        },
        "invariants": [],
    },
    "fig9": {
        "config": ["smoke", "scaled_measure_records",
                   "scaled_warmup_records", "nominal_measure_records",
                   "nominal_warmup_records", "sampling_policy",
                   "sample_window_records", "sample_clusters",
                   "sample_seed"],
        "counters": [],
        "rows": {
            "field": "rows",
            "key_by": ["section", "cores", "ways"],
            "counters": ["instructions", "l3_accesses", "l3_misses",
                         "sampled_windows", "represented_windows"],
        },
        "invariants": [],
    },
    "fig13": {
        "config": ["smoke", "cores", "l3_sim_bytes",
                   "scaled_measure_records", "scaled_warmup_records",
                   "nominal_measure_records", "nominal_warmup_records",
                   "sampling_policy", "sample_window_records",
                   "sample_clusters", "sample_seed"],
        "counters": [],
        "rows": {
            "field": "rows",
            "key_by": ["section", "l4_sim_bytes"],
            "counters": ["instructions", "l4_accesses", "l4_misses",
                         "sampled_windows", "represented_windows"],
        },
        "invariants": [],
    },
}


def fail(msg):
    print("FAIL: %s" % msg)
    return ["%s" % msg]


def warn(msg):
    # GitHub Actions annotation; plain text everywhere else.
    print("::warning::bench_diff: %s" % msg)


def load(path):
    if os.path.isdir(path):
        path = os.path.join(path, "BENCH_all.json")
    with open(path) as f:
        data = json.load(f)
    if "benches" not in data:
        raise ValueError("%s: not a BENCH_all.json aggregate" % path)
    return data["benches"]


def check_invariants(name, bench, gate):
    errors = []
    for key, want in gate.get("invariants", []):
        got = bench.get(key)
        expect = bench.get(want) if isinstance(want, str) else want
        if got != expect:
            errors += fail("%s: invariant %s=%r != %r"
                           % (name, key, got, expect))
    return errors


def rows_by_key(bench, spec):
    out = {}
    for row in bench.get(spec["field"], []):
        key = tuple(row.get(k) for k in spec["key_by"])
        out[key] = row
    return out


# Config keys of every gate: a schema bump (bench/common.cc) marks a
# deliberate change of what the rows measure, so it re-baselines.
COMMON_CONFIG = ["schema_version"]


def diff_bench(name, cur, base, gate):
    errors = []
    for key in COMMON_CONFIG + gate.get("config", []):
        if cur.get(key) != base.get(key):
            print("note: %s: config %s changed (%r -> %r); counter "
                  "diff skipped" % (name, key, base.get(key),
                                    cur.get(key)))
            return errors
    for key in gate.get("counters", []):
        if key in base and cur.get(key) != base.get(key):
            errors += fail("%s: counter drift: %s %r -> %r"
                           % (name, key, base.get(key), cur.get(key)))
    spec = gate.get("rows")
    if spec:
        cur_rows = rows_by_key(cur, spec)
        for key, brow in rows_by_key(base, spec).items():
            crow = cur_rows.get(key)
            if crow is None:
                errors += fail("%s: row %r disappeared" % (name, key))
                continue
            for counter in spec["counters"]:
                if counter in brow and \
                        crow.get(counter) != brow.get(counter):
                    errors += fail(
                        "%s: row %r counter drift: %s %r -> %r"
                        % (name, key, counter, brow.get(counter),
                           crow.get(counter)))
    cw, bw = cur.get("wall_time_sec"), base.get("wall_time_sec")
    if name in WALL_GATED and cw and bw and \
            cw > (1.0 + WARN_WALL_FRAC) * bw:
        warn("%s: wall time %.2fs is %.0f%% over baseline %.2fs"
             % (name, cw, 100.0 * (cw / bw - 1.0), bw))
    return errors


def run_diff(cur_path, base_path):
    current = load(cur_path)
    errors = []
    for name, bench in sorted(current.items()):
        gate = GATES.get(name)
        if gate:
            errors += check_invariants(name, bench, gate)
    try:
        baseline = load(base_path)
    except (OSError, ValueError) as e:
        print("note: no usable baseline (%s); invariants only" % e)
        return errors
    for name, bench in sorted(current.items()):
        gate = GATES.get(name)
        if gate and name in baseline:
            errors += diff_bench(name, bench, baseline[name], gate)
    return errors


# ----------------------------------------------------------------- #
# Self-test: prove the gate actually fails on injected drift.        #
# ----------------------------------------------------------------- #

def _sample():
    return {
        "benches": {
            "leaf": {
                "smoke": 1, "docs": 20000,
                "queries_per_workload": 200,
                "equivalent_queries": 1200,
                "expected_equivalent_queries": 1200,
                "wall_time_sec": 10.0,
                "rows": [
                    {"workload": "OR", "codec": "packed",
                     "postings_decoded": 5000, "candidates_scored": 900,
                     "blocks_decoded": 40, "blocks_skipped": 8,
                     "packed_blocks_decoded": 40},
                ],
            },
            "sweep": {"smoke": 1, "configs": 8,
                      "records_per_config": 1000,
                      "all_identical": 1, "wall_time_sec": 5.0},
            "serve": {
                "smoke": 1, "workers": 2, "scaling_queries": 1500,
                "scaling_rows_ok": 1, "wall_time_sec": 6.0,
                "rows": [
                    {"mix": "queue", "workers": 1, "queries": 1500,
                     "resolved": 1500, "shed": 0,
                     "stats_consistent": 1, "qps": 900.0,
                     "speedup_vs_1w": 1.0},
                    {"mix": "cachehit", "workers": 4, "queries": 1500,
                     "resolved": 1500, "shed": 0,
                     "stats_consistent": 1, "qps": 3100.0,
                     "speedup_vs_1w": 3.4},
                ],
            },
            "fig8": {
                "smoke": 1, "cores": 16,
                "scaled_measure_records": 16000000,
                "scaled_warmup_records": 32000000,
                "nominal_measure_records": 24000000,
                "nominal_warmup_records": 12000000,
                "sampling_policy": "clustered",
                "sample_window_records": 62500,
                "sample_clusters": 12, "sample_seed": 12345,
                "wall_time_sec": 7.0,
                "rows": [
                    {"section": "scaled", "ways": 2,
                     "instructions": 800000, "l3_accesses": 30000,
                     "l3_misses": 9000, "sampled_windows": 0,
                     "represented_windows": 0},
                    {"section": "nominal", "ways": 20,
                     "instructions": 800000, "l3_accesses": 31000,
                     "l3_misses": 8000, "sampled_windows": 12,
                     "represented_windows": 96},
                ],
            },
            "fig6bc": {
                "smoke": 1, "cores": 16,
                "scaled_measure_records": 3000000,
                "scaled_warmup_records": 6000000,
                "nominal_measure_records": 3000000,
                "nominal_warmup_records": 1500000,
                "gate_records": 6000000,
                "sampling_policy": "clustered",
                "sample_window_records": 62500,
                "sample_clusters": 12, "sample_seed": 12345,
                "gate_oracle_l3_misses": 523200,
                "gate_clustered_l3_misses": 539815,
                "gate_uniform_l3_misses": 568376,
                "band_violations": 0, "wall_time_sec": 8.0,
                "rows": [
                    {"section": "scaled", "l3_sim_bytes": 131072,
                     "instructions": 900000, "l3_accesses": 40000,
                     "l3_misses": 39000, "sampled_windows": 0,
                     "represented_windows": 0},
                    {"section": "nominal", "l3_sim_bytes": 33554432,
                     "instructions": 900000, "l3_accesses": 41000,
                     "l3_misses": 38000, "sampled_windows": 12,
                     "represented_windows": 96},
                ],
            },
            "replacement": {
                "smoke": 1, "wall_time_sec": 3.0,
                "rows": [
                    {"l3_capacity": 9437184, "variant": "srrip",
                     "l3_accesses": 4000, "l3_misses": 700,
                     "back_invalidations": 0,
                     "instructions": 100000},
                ],
            },
        }
    }


def selftest():
    import copy
    import tempfile

    def write(tree, name):
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump(tree, f)
        return path

    with tempfile.TemporaryDirectory() as tmp:
        base = write(_sample(), "base.json")

        # 1. Identical runs pass.
        assert run_diff(write(_sample(), "same.json"), base) == []

        # 2. Injected counter drift fails.
        drift = _sample()
        drift["benches"]["leaf"]["rows"][0]["postings_decoded"] += 1
        assert run_diff(write(drift, "drift.json"), base)

        # 3. A broken in-run invariant fails even with no baseline.
        broken = _sample()
        broken["benches"]["leaf"]["equivalent_queries"] = 7
        assert run_diff(write(broken, "broken.json"),
                        os.path.join(tmp, "missing.json"))

        # 4. Lost determinism in sweep fails.
        nondet = _sample()
        nondet["benches"]["sweep"]["all_identical"] = 0
        assert run_diff(write(nondet, "nondet.json"), base)

        # 5. Wall-time regression warns but passes.
        slow = _sample()
        slow["benches"]["leaf"]["wall_time_sec"] = 13.0
        assert run_diff(write(slow, "slow.json"), base) == []

        # 6. Replacement-row miss drift fails.
        rdrift = _sample()
        rdrift["benches"]["replacement"]["rows"][0]["l3_misses"] += 3
        assert run_diff(write(rdrift, "rdrift.json"), base)

        # 7. Config change skips the counter diff instead of failing.
        refit = _sample()
        refit["benches"]["leaf"]["docs"] = 80000
        refit["benches"]["leaf"]["rows"][0]["postings_decoded"] = 1
        assert run_diff(write(refit, "refit.json"), base) == []

        # 8. An injected clustered-sampling band violation fails even
        # with no baseline: the statistical gate is an in-run
        # invariant, so it cannot be dodged by deleting the baseline.
        banded = _sample()
        banded["benches"]["fig6bc"]["band_violations"] = 1
        assert run_diff(write(banded, "banded.json"),
                        os.path.join(tmp, "missing.json"))

        # 9. Sampled-estimate drift in a nominal-scale row fails:
        # plans are seeded, so equal configs (same seed/knobs) must
        # reproduce the same estimate bit-for-bit.
        sdrift = _sample()
        sdrift["benches"]["fig6bc"]["rows"][1]["l3_misses"] += 17
        assert run_diff(write(sdrift, "sdrift.json"), base)

        # 10. Changing the sampling seed is a config change, not drift.
        reseed = _sample()
        reseed["benches"]["fig6bc"]["sample_seed"] = 99
        reseed["benches"]["fig6bc"]["rows"][1]["l3_misses"] += 17
        assert run_diff(write(reseed, "reseed.json"), base) == []

        # 11. A serve thread-scaling row losing a query (resolved !=
        # baseline) is drift.
        sserve = _sample()
        sserve["benches"]["serve"]["rows"][0]["resolved"] -= 1
        assert run_diff(write(sserve, "sserve.json"), base)

        # 12. A broken serve accounting invariant fails even with no
        # baseline: a shed or inconsistent row cannot slip through by
        # re-baselining.
        sbad = _sample()
        sbad["benches"]["serve"]["scaling_rows_ok"] = 0
        assert run_diff(write(sbad, "sbad.json"),
                        os.path.join(tmp, "missing.json"))

        # 13. CAT-ladder miss drift in a fig8 row fails (both the
        # exact scaled replay and the seeded nominal estimate).
        f8 = _sample()
        f8["benches"]["fig8"]["rows"][1]["l3_misses"] += 5
        assert run_diff(write(f8, "f8.json"), base)

        # 14. A schema bump re-baselines: drifted smoke rows pass when
        # schema_version moved, and the same drift at an equal schema
        # still fails.
        def schema(tree, version):
            for bench in tree["benches"].values():
                bench["schema_version"] = version
            return tree

        v1 = write(schema(_sample(), 1), "v1.json")
        v2 = write(schema(_sample(), 2), "v2.json")
        resampled = schema(_sample(), 2)
        resampled["benches"]["fig8"]["rows"][0]["l3_misses"] += 5
        resampled["benches"]["fig8"]["rows"][0]["sampled_windows"] = 12
        resampled = write(resampled, "resampled.json")
        assert run_diff(resampled, v1) == []
        assert run_diff(resampled, v2)

    print("bench_diff selftest: all gates behave")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--selftest":
        return selftest()
    if len(argv) != 3:
        print(__doc__.strip())
        return 2
    try:
        errors = run_diff(argv[1], argv[2])
    except (OSError, ValueError) as e:
        print("bench_diff: %s" % e)
        return 2
    if errors:
        print("bench_diff: %d failure(s)" % len(errors))
        return 1
    print("bench_diff: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
