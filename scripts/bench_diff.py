#!/usr/bin/env python3
"""Gate bench output against a previous run's artifacts.

Usage:
    scripts/bench_diff.py CURRENT BASELINE
    scripts/bench_diff.py --selftest

CURRENT and BASELINE are BENCH_all.json files (or directories
containing one), as produced by scripts/bench_all.sh. Each bench
declares its own gates by the section it writes a value to (see
bench::Artifact in bench/common.hh), so the same rules hold for every
bench:

  checks    in-run failure counts. Each must be 0, whether or not a
            baseline exists, so a broken run cannot pass by also
            losing its baseline.
  config    the run's inputs. When schema_version, smoke or any config
            value differs from the baseline's, the bench's diff is
            skipped with a note: that run becomes the new baseline.
  counters  deterministic scalars. Each must equal the baseline's.
  rows[]    each baseline row is matched to the current row with the
            same "key" object. A baseline row with no match fails,
            and each of its "counters" must equal the matched row's.

A baseline bench that CURRENT lacks fails, unless CURRENT declares
itself a subset run ("subset": true, written by bench_all.sh when
WSEARCH_BENCHES picks the benches); then it only prints a note.

Every other field is informational and never gated. A wall_time_sec
more than 15% over the baseline's prints a warning (GitHub annotation
format) but passes: bench machines are noisy, so time never fails.

Exit codes: 0 ok (notes and warnings allowed), 1 drift or failed
check, 2 usage or unreadable input.
"""

import json
import os
import sys

WARN_WALL_FRAC = 0.15


def fail(msg):
    print("FAIL: %s" % msg)
    return [msg]


def warn(msg):
    # GitHub Actions annotation; plain text everywhere else.
    print("::warning::bench_diff: %s" % msg)


def load(path):
    """The aggregate at @path: its benches and its subset flag."""
    if os.path.isdir(path):
        path = os.path.join(path, "BENCH_all.json")
    with open(path) as f:
        data = json.load(f)
    if "benches" not in data:
        raise ValueError("%s: not a BENCH_all.json aggregate" % path)
    return data["benches"], data.get("subset", False)


def failed_checks(name, bench):
    errors = []
    for key, n in sorted(bench.get("checks", {}).items()):
        if n != 0:
            errors += fail("%s: check %s = %r, must be 0" % (name, key, n))
    return errors


def changed_inputs(cur, base):
    """What differs among schema_version, smoke and the config values."""
    changed = ["%s %r -> %r" % (k, base.get(k), cur.get(k))
               for k in ("schema_version", "smoke")
               if cur.get(k) != base.get(k)]
    if not changed:
        cc, bc = cur.get("config", {}), base.get("config", {})
        changed = ["config %s %r -> %r" % (k, bc.get(k), cc.get(k))
                   for k in sorted(set(cc) | set(bc))
                   if cc.get(k) != bc.get(k)]
    return changed


def counter_drift(where, cur, base):
    """Fail each baseline counter that @cur lacks or changed."""
    errors = []
    for key, want in sorted(base.items()):
        if cur.get(key) != want:
            errors += fail("%s: counter drift: %s %r -> %r"
                           % (where, key, want, cur.get(key)))
    return errors


def row_key(row):
    return json.dumps(row.get("key"), sort_keys=True)


def diff_bench(name, cur, base):
    changed = changed_inputs(cur, base)
    if changed:
        print("note: %s: %s; counter diff skipped, this run is the new "
              "baseline" % (name, ", ".join(changed)))
        return []
    errors = counter_drift(name, cur.get("counters", {}),
                           base.get("counters", {}))
    cur_rows = {row_key(row): row for row in cur.get("rows", [])}
    for brow in base.get("rows", []):
        key = row_key(brow)
        crow = cur_rows.get(key)
        if crow is None:
            errors += fail("%s: row %s disappeared" % (name, key))
            continue
        errors += counter_drift("%s: row %s" % (name, key),
                                crow.get("counters", {}),
                                brow.get("counters", {}))
    cw, bw = cur.get("wall_time_sec"), base.get("wall_time_sec")
    if cw and bw and cw > (1.0 + WARN_WALL_FRAC) * bw:
        warn("%s: wall time %.2fs is %.0f%% over baseline %.2fs"
             % (name, cw, 100.0 * (cw / bw - 1.0), bw))
    return errors


def run_diff(cur_path, base_path):
    current, subset = load(cur_path)
    errors = []
    for name, bench in sorted(current.items()):
        errors += failed_checks(name, bench)
    try:
        baseline, _ = load(base_path)
    except (OSError, ValueError) as e:
        print("note: no usable baseline (%s); checks only" % e)
        return errors
    for name, base in sorted(baseline.items()):
        if name in current:
            errors += diff_bench(name, current[name], base)
        elif subset:
            print("note: %s: not in this subset run" % name)
        else:
            errors += fail("%s: in the baseline but missing from this "
                           "run" % name)
    return errors


# ----------------------------------------------------------------- #
# Self-test: prove the rules fail on injected drift.                 #
# ----------------------------------------------------------------- #

def _sample():
    """Two made-up benches in the schema-3 frame."""
    return {
        "benches": {
            "ladder": {
                "schema_version": 3, "bench": "ladder", "smoke": 1,
                "config": {"cores": 16, "measure_records": 2000000,
                           "sample_seed": 12345},
                "counters": {"oracle_misses": 523200},
                "checks": {"band_violations": 0},
                "rows": [
                    {"key": {"section": "scaled", "ways": 2},
                     "counters": {"instructions": 800000,
                                  "l3_misses": 9000},
                     "ipc": 1.21, "band_lo": 8700.0},
                    {"key": {"section": "nominal", "ways": 20},
                     "counters": {"instructions": 800000,
                                  "l3_misses": 8000},
                     "ipc": 1.34, "band_lo": 7600.0},
                ],
                "fit_slope": -0.0086, "wall_time_sec": 10.0,
            },
            "pool": {
                "schema_version": 3, "bench": "pool", "smoke": 1,
                "config": {"workers": 2},
                "counters": {},
                "checks": {"failed_rows": 0},
                "rows": [
                    {"key": {"mix": "queue", "workers": 1},
                     "counters": {"resolved": 1500, "shed": 0},
                     "qps": 900.0},
                ],
                "wall_time_sec": 6.0,
            },
        }
    }


def selftest():
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        def write(tree, name):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(tree, f)
            return path

        def diff(tree, base):
            """run_diff of @tree against @base: (errors, printed text)."""
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                errors = run_diff(write(tree, "cur.json"), base)
            return errors, out.getvalue()

        base = write(_sample(), "base.json")
        missing = os.path.join(tmp, "missing.json")

        # 1. Identical runs pass without a note or a warning.
        assert diff(_sample(), base) == ([], "")

        # 2. Scalar counter drift fails.
        t = _sample()
        t["benches"]["ladder"]["counters"]["oracle_misses"] += 1
        assert diff(t, base)[0]

        # 3. Row counter drift fails, in any row.
        t = _sample()
        t["benches"]["ladder"]["rows"][1]["counters"]["l3_misses"] += 5
        assert diff(t, base)[0]
        t = _sample()
        t["benches"]["pool"]["rows"][0]["counters"]["resolved"] -= 1
        assert diff(t, base)[0]

        # 4. A vanished row fails, and so does a dropped counter.
        t = _sample()
        del t["benches"]["ladder"]["rows"][0]
        assert diff(t, base)[0]
        t = _sample()
        del t["benches"]["ladder"]["rows"][0]["counters"]["l3_misses"]
        assert diff(t, base)[0]

        # 5. A nonzero check fails, with a baseline and without one.
        t = _sample()
        t["benches"]["pool"]["checks"]["failed_rows"] = 1
        assert diff(t, base)[0]
        assert diff(t, missing)[0]

        # 6. A config, smoke or schema change skips the bench's diff
        # with a note, even over drifted counters ...
        for section, key, value in (("config", "sample_seed", 99),
                                    (None, "smoke", 0),
                                    (None, "schema_version", 4)):
            t = _sample()
            bench = t["benches"]["ladder"]
            (bench[section] if section else bench)[key] = value
            bench["rows"][0]["counters"]["l3_misses"] += 5
            errors, out = diff(t, base)
            assert errors == [] and "note: ladder:" in out, out
        # ... but checks still gate a re-baselined run,
        t["benches"]["ladder"]["checks"]["band_violations"] = 1
        assert diff(t, base)[0]
        # and at equal schemas the same drift fails.
        v4 = _sample()
        v4["benches"]["ladder"]["schema_version"] = 4
        t["benches"]["ladder"]["checks"]["band_violations"] = 0
        assert diff(t, write(v4, "v4.json"))[0]

        # 7. A wall-time rise only warns, on any bench.
        t = _sample()
        t["benches"]["pool"]["wall_time_sec"] = 7.0
        errors, out = diff(t, base)
        assert errors == [] and "::warning::" in out, out

        # 8. A schema-2 baseline (flat keys, no sections) is noted and
        # never read further.
        v2 = {"benches": {
            "ladder": {"schema_version": 2, "smoke": 1, "cores": 16,
                      "band_violations": 0,
                      "rows": [{"section": "scaled", "ways": 2,
                                "l3_misses": 9000}]},
            "pool": {"schema_version": 2, "smoke": 1,
                       "scaling_rows_ok": 1}}}
        errors, out = diff(_sample(), write(v2, "v2.json"))
        assert errors == [] and out.count("note:") == 2, out

        # 9. A counter no gate list names still gates: with rows
        # renamed l3_misses -> llc_misses in both runs, 5 -> 999 fails.
        def renamed(misses):
            t = _sample()
            counters = t["benches"]["ladder"]["rows"][0]["counters"]
            del counters["l3_misses"]
            counters["llc_misses"] = misses
            return t

        assert diff(renamed(999), write(renamed(5), "renamed.json"))[0]

        # 10. A bench that stops writing its artifact fails a full
        # run ...
        t = _sample()
        del t["benches"]["pool"]
        errors, out = diff(t, base)
        assert errors and "pool" in out, out
        # ... and only prints a note in a declared subset run.
        t["subset"] = True
        errors, out = diff(t, base)
        assert errors == [] and "note: pool:" in out, out

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
