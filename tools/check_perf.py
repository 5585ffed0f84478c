#!/usr/bin/env python3
"""Exact perf gate: diff a fresh bench_ci_perf run against the baseline.

The bench runs under the cooperative fiber scheduler, so every modeled
epoch time is bit-reproducible; the committed baseline is therefore an
*exact* contract, not a tolerance band.  Any non-identical value means the
cost model, fetch planner, cache, or scheduler changed behaviour — which
is either a regression or an intentional change that must update the
baseline in the same PR.

Usage: check_perf.py BASELINE.json FRESH.json

Exits 0 when every cell matches exactly; exits 1 and prints a delta table
otherwise.  %.17g serialization round-trips IEEE-754 doubles, so float
equality here is bitwise equality of the modeled times.
"""

import json
import sys


def cell_key(cell):
    return (cell.get("machine"), cell.get("nranks"), cell.get("width"),
            cell.get("pipeline"), cell.get("cache"), cell.get("feature", ""))


def fmt_key(key):
    text = f"{key[0]} n{key[1]} w{key[2]} {key[3]} cache={key[4]}"
    return f"{text} feature={key[5]}" if key[5] else text


def rel_delta(base_value, fresh_value):
    """Relative drift as a percent string; n/a when undefined."""
    if None in (base_value, fresh_value) or base_value == 0:
        return "n/a"
    return f"{100.0 * (fresh_value - base_value) / base_value:+.4f}%"


def compare_cell(label, base, fresh, rows):
    """Exact diff of one cell (or one tenant entry of a tenant cell)."""
    ok = True
    for field in ("epoch_seconds", "overlap_hidden_s"):
        b, f = base.get(field, []), fresh.get(field, [])
        if len(b) != len(f):
            rows.append((label, field, f"{len(b)} epochs",
                         f"{len(f)} epochs", "n/a", "n/a"))
            ok = False
            continue
        for i, (bv, fv) in enumerate(zip(b, f)):
            if bv != fv:
                rows.append((label, f"{field}[{i}]", repr(bv),
                             repr(fv), f"{fv - bv:+.3e}",
                             rel_delta(bv, fv)))
                ok = False
    bc, fc = base.get("counters", {}), fresh.get("counters", {})
    for name in sorted(set(bc) | set(fc)):
        bv, fv = bc.get(name), fc.get(name)
        if bv != fv:
            delta = "n/a" if None in (bv, fv) else f"{fv - bv:+d}"
            rows.append((label, f"counters.{name}", repr(bv),
                         repr(fv), delta, rel_delta(bv, fv)))
            ok = False
    bt, ft = base.get("tenants", []), fresh.get("tenants", [])
    bn, fn = [t.get("name") for t in bt], [t.get("name") for t in ft]
    if bn != fn:
        rows.append((label, "tenants", repr(bn), repr(fn), "n/a", "n/a"))
        return False
    for b, f in zip(bt, ft):
        if not compare_cell(f"{label} tenant={b.get('name')}", b, f, rows):
            ok = False
    return ok


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)

    base_map = {cell_key(c): c for c in baseline}
    fresh_map = {cell_key(c): c for c in fresh}
    rows = []
    ok = True
    for key in base_map:
        if key not in fresh_map:
            rows.append((fmt_key(key), "<cell>", "present", "missing", "n/a",
                         "n/a"))
            ok = False
    for key in fresh_map:
        if key not in base_map:
            rows.append((fmt_key(key), "<cell>", "missing", "present", "n/a",
                         "n/a"))
            ok = False
    for key in sorted(set(base_map) & set(fresh_map)):
        if not compare_cell(fmt_key(key), base_map[key], fresh_map[key],
                            rows):
            ok = False

    if ok:
        print(f"perf gate OK: {len(base_map)} cells, all modeled times and "
              "counters exactly match the baseline")
        return 0

    print("perf gate FAILED: modeled results drifted from the baseline")
    print("(intentional change? regenerate the baseline in this PR: "
          "bench_ci_perf > bench/baselines/BENCH_ci_perf.json)\n")
    header = ("cell", "field", "baseline", "fresh", "delta", "rel delta")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
