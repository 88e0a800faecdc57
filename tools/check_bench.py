#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json trajectory.

Every bench binary writes BENCH_<name>.json records ({name, wall_ms,
threads, speedup, peak_mb}); this tool compares freshly produced files
against the committed baselines in bench/baselines/ and fails (exit 1)
when a metric regresses past its tolerance. Records are keyed on
(name, threads): a record is compared only with a baseline recorded at
the same thread count, because walls and footprints (in-flight block
partials grow with the thread count) differ by design across counts. A
record produced at a thread count its baseline was not recorded at is a
failure naming both counts — pin DIVSEC_THREADS to the baselines' count
or refresh them at the new one.

  * wall_ms   may not rise above baseline * (1 + --wall-tol); getting
              faster is always fine. Records whose baseline wall is
              below the noise floor are skipped for wall comparison —
              timer noise dominates sub-millisecond phases. The floor is
              per metric: a baseline record carrying "wall_floor_ms"
              overrides the global --wall-floor-ms for that record, so a
              sub-millisecond metric (per-round merge time) can opt into
              a floor that fits its own scale instead of being silently
              exempted by the global 5 ms default.
  * speedup   may not fall below baseline * (1 - --speedup-tol) — the
              speedup floors (e.g. the kernel's ratio over the legacy
              oracle, the elastic worst-shard 1.3x improvement).
  * peak_mb   may not rise above baseline * (1 + --peak-tol) — the
              footprint ceilings (aggregation state, peak-RSS deltas).
              null baselines or null measurements skip the check.
  * state_bytes may not rise above baseline * (1 + --state-tol) — the
              codec-size ceiling (encoded shard-state bytes; lower is
              better, shrinking is always fine). Encoded sizes are
              deterministic for a fixed workload, so the tolerance is
              tight. null baselines or measurements skip the check.

A record present in the baseline but missing from the produced file is a
failure (a gated metric silently disappeared). Produced records without
a baseline are reported as new; refresh with --update after reviewing.

Usage:
  tools/check_bench.py BENCH_*.json               # gate (CI)
  tools/check_bench.py --update BENCH_*.json      # refresh baselines
"""

import argparse
import json
import math
import os
import shutil
import sys

DEFAULT_BASELINE_DIR = os.path.join(os.path.dirname(__file__), "..", "bench",
                                    "baselines")


def load_records(path):
    """Records keyed on (name, threads)."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of bench records")
    return {(r["name"], r.get("threads")): r for r in data}


def num(value):
    """JSON number or None (null and non-finite values don't gate)."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def check_file(produced_path, baseline_path, args, failures, notes):
    produced = load_records(produced_path)
    baseline = load_records(baseline_path)
    name = os.path.basename(produced_path)

    produced_threads = {}
    for key, threads in produced:
        produced_threads.setdefault(key, []).append(threads)

    for (key, threads), base in baseline.items():
        got = produced.get((key, threads))
        if got is None:
            ran_at = produced_threads.get(key)
            if ran_at:
                counts = ", ".join(str(t) for t in ran_at)
                failures.append(
                    f"{name}: '{key}' ran at threads={counts} but its "
                    f"baseline was recorded at threads={threads} (run at "
                    f"threads={threads} or refresh the baseline)")
            else:
                failures.append(f"{name}: record '{key}' vanished "
                                f"(present in baseline, missing from produced)")
            continue

        base_wall, got_wall = num(base.get("wall_ms")), num(got.get("wall_ms"))
        floor = num(base.get("wall_floor_ms"))
        if floor is None:
            floor = args.wall_floor_ms
        if (base_wall is not None and got_wall is not None
                and base_wall >= floor):
            limit = base_wall * (1.0 + args.wall_tol)
            if got_wall > limit:
                failures.append(
                    f"{name}: '{key}' wall_ms {got_wall:.4g} exceeds "
                    f"{limit:.4g} (baseline {base_wall:.4g} "
                    f"+{args.wall_tol:.0%})")

        base_speed, got_speed = num(base.get("speedup")), num(got.get("speedup"))
        if base_speed is not None and got_speed is not None:
            floor = base_speed * (1.0 - args.speedup_tol)
            if got_speed < floor:
                failures.append(
                    f"{name}: '{key}' speedup {got_speed:.2f} below "
                    f"{floor:.2f} (baseline {base_speed:.2f} "
                    f"-{args.speedup_tol:.0%})")

        base_peak, got_peak = num(base.get("peak_mb")), num(got.get("peak_mb"))
        if base_peak is not None and got_peak is not None and base_peak > 0:
            ceiling = base_peak * (1.0 + args.peak_tol)
            if got_peak > ceiling:
                failures.append(
                    f"{name}: '{key}' peak_mb {got_peak:.2f} exceeds "
                    f"{ceiling:.2f} (baseline {base_peak:.2f} "
                    f"+{args.peak_tol:.0%})")

        base_state = num(base.get("state_bytes"))
        got_state = num(got.get("state_bytes"))
        if base_state is not None and got_state is not None and base_state > 0:
            ceiling = base_state * (1.0 + args.state_tol)
            if got_state > ceiling:
                failures.append(
                    f"{name}: '{key}' state_bytes {got_state:.0f} exceeds "
                    f"{ceiling:.0f} (baseline {base_state:.0f} "
                    f"+{args.state_tol:.0%})")

    baseline_names = {key for key, _ in baseline}
    for key, threads in produced:
        if key not in baseline_names:
            notes.append(f"{name}: new record '{key}' (threads={threads}) "
                         f"has no baseline (run with --update to adopt it)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="produced BENCH_*.json files")
    parser.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR)
    parser.add_argument("--wall-tol", type=float,
                        default=float(os.environ.get("BENCH_WALL_TOL", 0.25)),
                        help="allowed relative wall_ms increase (default 0.25)")
    parser.add_argument("--speedup-tol", type=float, default=0.20,
                        help="allowed relative speedup decrease (default 0.20)")
    parser.add_argument("--peak-tol", type=float, default=0.25,
                        help="allowed relative peak_mb increase (default 0.25)")
    parser.add_argument("--state-tol", type=float, default=0.10,
                        help="allowed relative state_bytes increase "
                             "(default 0.10; encoded sizes are deterministic)")
    parser.add_argument("--wall-floor-ms", type=float, default=5.0,
                        help="skip wall comparison below this baseline wall "
                             "(timer noise; default 5 ms); a baseline "
                             "record's own wall_floor_ms overrides this")
    parser.add_argument("--update", action="store_true",
                        help="copy produced files into the baseline dir "
                             "instead of gating")
    args = parser.parse_args()

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in args.files:
            dest = os.path.join(args.baseline_dir, os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"baseline refreshed: {dest}")
        return 0

    failures, notes = [], []
    for path in args.files:
        baseline_path = os.path.join(args.baseline_dir, os.path.basename(path))
        if not os.path.exists(baseline_path):
            notes.append(f"{os.path.basename(path)}: no committed baseline "
                         f"(run with --update to adopt it)")
            continue
        check_file(path, baseline_path, args, failures, notes)

    for note in notes:
        print(f"note: {note}")
    if failures:
        print(f"\n{len(failures)} perf regression(s) against "
              f"{os.path.normpath(args.baseline_dir)}:")
        for failure in failures:
            print(f"  FAIL {failure}")
        print("\nIf the change is intentional (new workload, retuned bench), "
              "refresh with: tools/check_bench.py --update <files>")
        return 1
    print(f"perf gate passed: {len(args.files)} file(s) within tolerance "
          f"(wall +{args.wall_tol:.0%}, speedup -{args.speedup_tol:.0%}, "
          f"peak +{args.peak_tol:.0%}, state +{args.state_tol:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
