#!/usr/bin/env python3
"""Bench regression gate: compare a fresh BENCH.json against the newest
snapshot in bench/history/ and fail on a >20% slowdown in any group.

Usage: bench_gate.py FRESH_JSON HISTORY_DIR [--threshold 1.20]
       bench_gate.py --self-test

Snapshots are the files `main.exe bench-json PATH --history DIR` writes
(schema anonet-bench/1 through /5).  Schema 3 adds an "allocs" array of
per-workload GC word deltas (minor_words_per_run / major_words_per_run),
schema 4 a "search_states" array of pruning-ablation counters, and
schema 5 a "huge" array of one-shot million-node build/simulate rows;
the gate compares wall-clock "tests" rows only and ignores keys it does
not know, so mixed-schema histories remain comparable.  The schema-5
huge-graphs bechamel group gates like any other group once a schema-5
snapshot is the baseline (new groups start their own trajectory).
Comparison rules:

- The baseline is the history entry with the newest `generated_at`
  (file mtime for schema-1 entries, which lack the field) among those
  recorded on the fresh run's host shape (`domains_available`); only
  when no entry has that shape is the newest entry of any shape used.
- Only tests present in BOTH snapshots are compared: a new group lands
  with no baseline and simply starts its own trajectory.
- Tests aggregate into groups by the middle component of their
  "anonet/<group>/<test>" name; the gate fails iff some group's
  geometric-mean ratio fresh/baseline exceeds the threshold.
- Cross-host comparisons are meaningless, so when `domains_available`
  differs between the two snapshots (no entry of the fresh shape
  exists) the gate warns and passes.
- No history at all passes: the first snapshot seeds the trajectory.
"""

import datetime
import json
import math
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def generated_at(path, doc):
    # The sort key must be a number, not a string: schema >= 2 stores an
    # ISO-8601 `generated_at` while schema 1 only has a file mtime, and
    # a lexical sort between "2026-08-08T..." and a zero-padded epoch
    # ranks every mtime-keyed entry older than every ISO-keyed one
    # regardless of the actual times.  Parse both to epoch seconds.
    stamp = doc.get("generated_at")
    if stamp:
        try:
            return datetime.datetime.fromisoformat(
                stamp.replace("Z", "+00:00")
            ).timestamp()
        except ValueError:
            print(f"bench-gate: unparsable generated_at {stamp!r} in {path}; "
                  "falling back to file mtime")
    return os.path.getmtime(path)


def newest_history(history_dir, domains):
    """The newest snapshot as (path, doc), or None for an empty history.

    Prefer the newest snapshot recorded with `domains_available` equal
    to `domains`; fall back to the newest of any shape.
    """
    entries = []
    if not os.path.isdir(history_dir):
        return None
    for name in os.listdir(history_dir):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(history_dir, name)
        try:
            doc = load(path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench-gate: skipping unreadable {path}: {e}")
            continue
        entries.append((generated_at(path, doc), path, doc))
    if not entries:
        return None
    same_shape = [e for e in entries if e[2].get("domains_available") == domains]
    if same_shape:
        entries = same_shape
    entries.sort()
    return entries[-1][1], entries[-1][2]


def tests_by_name(doc):
    return {
        t["name"]: t["ns_per_run"]
        for t in doc.get("tests", [])
        if isinstance(t.get("ns_per_run"), (int, float)) and t["ns_per_run"] > 0
    }


def group_of(name):
    parts = name.split("/")
    return parts[1] if len(parts) >= 3 else parts[0]


def self_test():
    """Exercise the baseline-selection logic on a synthetic history.

    Regression coverage for the schema-1 ordering bug: mtime-keyed and
    ISO-keyed entries must interleave by actual time, in particular a
    schema-1 snapshot written *after* the newest ISO-stamped one must
    win the baseline.
    """
    import tempfile

    failures = []

    def expect(name, cond):
        print(f"  self-test {name}: {'ok' if cond else 'FAIL'}")
        if not cond:
            failures.append(name)

    iso = "2026-08-08T12:00:00Z"
    iso_epoch = datetime.datetime(
        2026, 8, 8, 12, tzinfo=datetime.timezone.utc
    ).timestamp()

    with tempfile.TemporaryDirectory() as d:
        def snapshot(name, doc, mtime):
            path = os.path.join(d, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            os.utime(path, (mtime, mtime))
            return path

        p_iso = snapshot("BENCH_aaa.json", {"generated_at": iso}, iso_epoch + 9999)
        expect("iso key ignores mtime", generated_at(p_iso, load(p_iso)) == iso_epoch)

        p_old = snapshot("BENCH_bbb.json", {"schema": "anonet-bench/1"}, iso_epoch - 3600)
        expect("older schema-1 loses", newest_history(d, None)[0] == p_iso)

        p_new = snapshot("BENCH_ccc.json", {"schema": "anonet-bench/1"}, iso_epoch + 3600)
        expect("newer schema-1 wins", newest_history(d, None)[0] == p_new)

        p_bad = snapshot(
            "BENCH_ddd.json", {"generated_at": "not-a-date"}, iso_epoch + 7200
        )
        expect("unparsable stamp falls back to mtime", newest_history(d, None)[0] == p_bad)

        p_iso2 = snapshot(
            "BENCH_eee.json", {"generated_at": "2026-08-08T15:00:00Z"}, iso_epoch - 9999
        )
        expect(
            "iso entries order among themselves",
            generated_at(p_iso2, load(p_iso2)) > generated_at(p_iso, load(p_iso)),
        )

    # Host shape: a newer snapshot from another host shape must not hide
    # an older one recorded on the fresh run's shape.
    with tempfile.TemporaryDirectory() as d:
        def shaped(name, hour, domains):
            path = os.path.join(d, name)
            with open(path, "w") as f:
                json.dump({"generated_at": f"2026-08-08T{hour:02d}:00:00Z",
                           "domains_available": domains}, f)
            return path

        p_two = shaped("BENCH_two.json", 10, 2)
        p_one = shaped("BENCH_one.json", 11, 1)
        expect("same shape beats newer other shape", newest_history(d, 2)[0] == p_two)
        expect("newest of the shape", newest_history(d, 1)[0] == p_one)
        expect("unknown shape falls back to newest", newest_history(d, 4)[0] == p_one)

    if failures:
        print(f"bench-gate: self-test FAIL ({', '.join(failures)})")
        return 1
    print("bench-gate: self-test pass")
    return 0


def main():
    if "--self-test" in sys.argv:
        return self_test()
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    threshold = 1.20
    if "--threshold" in sys.argv:
        threshold = float(sys.argv[sys.argv.index("--threshold") + 1])
        args = [a for a in args if a != str(threshold)]
    if len(args) < 2:
        print(__doc__)
        return 2
    fresh_path, history_dir = args[0], args[1]

    fresh = load(fresh_path)
    base = newest_history(history_dir, fresh.get("domains_available"))
    if base is None:
        print(f"bench-gate: no history in {history_dir}; seeding trajectory, pass")
        return 0
    base_path, base_doc = base
    print(f"bench-gate: baseline {base_path} (commit {base_doc.get('commit', '?')})")

    if fresh.get("domains_available") != base_doc.get("domains_available"):
        msg = (
            f"bench-gate: host mismatch (domains_available "
            f"{base_doc.get('domains_available')} -> {fresh.get('domains_available')}); "
            "timings are not comparable"
        )
        print(msg + "; skipping comparison, pass")
        return 0

    base_tests = tests_by_name(base_doc)
    fresh_tests = tests_by_name(fresh)
    shared = sorted(set(base_tests) & set(fresh_tests))
    if not shared:
        print("bench-gate: no shared tests with the baseline; pass")
        return 0

    groups = {}
    for name in shared:
        groups.setdefault(group_of(name), []).append(
            (name, fresh_tests[name] / base_tests[name])
        )

    failed = []
    for group in sorted(groups):
        ratios = groups[group]
        gmean = math.exp(sum(math.log(r) for _, r in ratios) / len(ratios))
        status = "ok" if gmean <= threshold else "REGRESSION"
        print(f"  {group:24s} gmean x{gmean:.3f} over {len(ratios)} tests  [{status}]")
        if gmean > threshold:
            failed.append(group)
            for name, r in sorted(ratios, key=lambda p: -p[1]):
                print(f"    {name}: x{r:.3f}")

    if failed:
        print(
            f"bench-gate: FAIL — group(s) {', '.join(failed)} slowed by more than "
            f"{(threshold - 1) * 100:.0f}% vs {os.path.basename(base_path)}"
        )
        return 1
    print(f"bench-gate: pass ({len(shared)} shared tests, {len(groups)} groups)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
