#!/usr/bin/env python3
"""Diff two bench-report JSON files (BENCH_*.json, bench/BenchCommon.h
schema) row by row and report the perf deltas.

Rows are matched on their configuration identity — engine, detector,
scenario, ordered, threads, shards — and compared on the measurements:
ns_per_commit (relative delta, falling back to ns_per_query for
detection-side reports) and the retry ratio retries/commits
(absolute delta). Rows present on only one side are listed, not
counted as regressions.

google-benchmark JSON (BENCH_micro_detection.json) is also accepted:
its "benchmarks" array is adapted into rows keyed by benchmark name
with real_time as ns_per_query.

Usage:
  perfdiff.py BASELINE.json[,MORE.json...] CURRENT.json[,MORE.json...]
              [--threshold=PCT] [--retry-threshold=DELTA] [--min-ns=NS]
  perfdiff.py --median-out=OUT.json RUN.json,RUN.json[,...]

Each side may name several runs of the same bench, comma-separated;
rows are then compared on their per-row medians (ns_per_commit or
ns_per_query, and the retry ratio), so one noisy run cannot make or
hide a regression. --median-out writes the per-row median of the given
runs as one report (the form the committed BENCH_micro_commit.json
takes); its meta fields are the first run's, plus "runs".

--threshold PCT (default 10): ns_per_commit regressions beyond PCT
percent are counted and reflected in the exit status.

--retry-threshold DELTA (default: off): absolute retry-ratio
increases beyond DELTA also count as regressions. A throughput
number can stay flat while the engine burns ever more aborted
attempts to get there; this gate makes that visible and fatal.

--min-ns NS (default 0): rows whose baseline ns_per_commit is below
NS are printed but never gate. Sub-microsecond rows move by whole
multiples from scheduler jitter alone on small or shared machines —
a relative threshold is meaningless there.

Exit status: 0 when no regression beyond the thresholds, 1 when at
least one row regressed, 2 on usage/parse errors. tools/ci.sh runs
this fatally in its perf-smoke stage, with machine-specific slack
dialled in via JANUS_PERF_THRESHOLD / JANUS_RETRY_THRESHOLD —
microbenchmark noise on shared or single-core machines needs a wide
throughput threshold, while the retry-ratio gate tolerates
scheduling noise and can stay tight.

Stdlib only; used by tools/ci.sh (perf-smoke stage) and by hand.
"""

import json
import statistics
import sys

IDENTITY = ("engine", "detector", "scenario", "ordered", "threads", "shards")


def load_rows(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"perfdiff: {path}: unreadable or invalid JSON: {e}")
    rows = doc.get("rows")
    if not isinstance(rows, list) and isinstance(doc.get("benchmarks"), list):
        # google-benchmark output (bench/micro_detection --json): adapt
        # each timed benchmark into a row keyed by its name.
        rows = [{"scenario": b.get("name"), "ns_per_query": b.get("real_time")}
                for b in doc["benchmarks"]
                if b.get("run_type", "iteration") == "iteration"]
        doc.setdefault("bench", "google-benchmark")
    if not isinstance(rows, list):
        sys.exit(f"perfdiff: {path}: no rows array")
    out = {}
    for row in rows:
        key = tuple(row.get(f) for f in IDENTITY)
        if key in out:
            sys.exit(f"perfdiff: {path}: duplicate row identity {key}")
        out[key] = row
    return doc, out


def median_rows(paths):
    """Loads every run in `paths` and reduces each row identity to its
    median: the median ns figure, and the commit and retry counts of the
    run whose retry ratio is the median one. Rows missing from some
    runs take the median of the runs that have them."""
    docs, runs = [], []
    for path in paths:
        doc, rows = load_rows(path)
        docs.append(doc)
        runs.append(rows)
    benches = {d.get("bench", "?") for d in docs}
    if len(benches) > 1:
        sys.exit(f"perfdiff: cannot merge different benches {sorted(benches)}")
    merged = {}
    for key in {k for rows in runs for k in rows}:
        have = [rows[key] for rows in runs if key in rows]
        row = dict(have[0])
        for field in ("ns_per_commit", "ns_per_query"):
            vals = [r[field] for r in have
                    if isinstance(r.get(field), (int, float))]
            if vals:
                row[field] = statistics.median(vals)
        if any("commits" in r for r in have):
            by_retry = sorted(have, key=retry_ratio)
            mid = by_retry[(len(by_retry) - 1) // 2]
            row["commits"] = mid.get("commits")
            row["retries"] = mid.get("retries")
        merged[key] = row
    return docs[0], merged


def write_median(paths, out_path):
    doc, rows = median_rows(paths)
    if "rows" not in doc:
        sys.exit("perfdiff: --median-out needs bench-report rows "
                 "(BenchCommon.h schema)")
    out = {k: v for k, v in doc.items() if k != "rows"}
    out["runs"] = len(paths)
    order = [tuple(r.get(f) for f in IDENTITY) for r in doc["rows"]]
    order += sorted((k for k in rows if k not in set(order)), key=fmt_key)
    lines = ",\n".join("    " + json.dumps(rows[k]) for k in order)
    head = json.dumps(out, indent=2)[:-2]
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(head + ',\n  "rows": [\n' + lines + "\n  ]\n}\n")
    print(f"perfdiff: wrote {out_path} (median of {len(paths)} runs, "
          f"{len(rows)} rows)")
    return 0


def fmt_key(key):
    parts = []
    for field, value in zip(IDENTITY, key):
        if value is None:
            continue
        parts.append(f"{field}={value}")
    return " ".join(parts)


def retry_ratio(row):
    commits = row.get("commits") or 0
    return (row.get("retries") or 0) / commits if commits else 0.0


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    threshold = 10.0
    retry_threshold = None
    min_ns = 0.0
    median_out = None
    for a in argv[1:]:
        if a.startswith("--median-out"):
            median_out = a.split("=", 1)[1] if "=" in a else ""
            if not median_out:
                sys.exit("perfdiff: bad --median-out=PATH")
        elif a.startswith("--retry-threshold"):
            try:
                retry_threshold = float(a.split("=", 1)[1])
            except (IndexError, ValueError):
                sys.exit("perfdiff: bad --retry-threshold=DELTA")
        elif a.startswith("--min-ns"):
            try:
                min_ns = float(a.split("=", 1)[1])
            except (IndexError, ValueError):
                sys.exit("perfdiff: bad --min-ns=NS")
        elif a.startswith("--threshold"):
            try:
                threshold = float(a.split("=", 1)[1])
            except (IndexError, ValueError):
                sys.exit("perfdiff: bad --threshold=PCT")
    if median_out is not None:
        if len(args) != 1:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        return write_median(args[0].split(","), median_out)
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    base_doc, base = median_rows(args[0].split(","))
    cur_doc, cur = median_rows(args[1].split(","))
    base_name = base_doc.get("bench", "?")
    cur_name = cur_doc.get("bench", "?")
    if base_name != cur_name:
        print(f"perfdiff: warning: comparing different benches "
              f"({base_name} vs {cur_name})", file=sys.stderr)

    regressions = 0
    compared = 0
    for key in sorted(cur, key=fmt_key):
        if key not in base:
            print(f"  new row: {fmt_key(key)}")
            continue
        b, c = base[key], cur[key]
        bn = b.get("ns_per_commit", b.get("ns_per_query"))
        cn = c.get("ns_per_commit", c.get("ns_per_query"))
        if not isinstance(bn, (int, float)) or not bn or \
           not isinstance(cn, (int, float)):
            continue
        compared += 1
        delta = (cn - bn) / bn * 100.0
        rr = retry_ratio(c) - retry_ratio(b)
        marker = ""
        if bn < min_ns:
            if delta > threshold:
                marker = "  (below --min-ns noise floor, not gating)"
        elif delta > threshold:
            marker = "  <-- REGRESSION"
            regressions += 1
        elif retry_threshold is not None and rr > retry_threshold:
            marker = "  <-- RETRY REGRESSION"
            regressions += 1
        elif delta < -threshold:
            marker = "  (improved)"
        print(f"  {fmt_key(key)}: ns/commit {bn:.0f} -> {cn:.0f} "
              f"({delta:+.1f}%), retry-ratio {rr:+.3f}{marker}")
    for key in sorted(base, key=fmt_key):
        if key not in cur:
            print(f"  dropped row: {fmt_key(key)}")

    gates = f"{threshold:.0f}%"
    if retry_threshold is not None:
        gates += f" / retry-ratio +{retry_threshold:g}"
    print(f"perfdiff: {compared} rows compared, {regressions} beyond "
          f"{gates} ({base_name})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
