#!/usr/bin/env bash
# Compare the benchmark's end-to-end metrics between two checkouts.
#
# For pair i = 1..PAIRS, runs
#     python3 perfbench/run.py --workload WORKLOAD --seed i --seconds N --trace 0
# once in PARENT_DIR and once in CHANGE_DIR, one run at a time. The side that
# runs first alternates: the parent on odd pairs, the change on even ones, so
# a run-order effect lands on both sides equally and shows in the split
# medians below. N is `run_seconds` from CHANGE_DIR/BENCHMARK.json.
#
# Prints one line per run, then for each end-to-end metric: a verdict, each
# side's median and quartiles, the change's wins and losses over the pairs
# (ties count for neither), and each side's median over the pairs in which it
# ran first and in which it ran second. The last line is all of that, with
# every run's metrics, as one JSON object.
#
# The verdict compares the medians, with `bound` from BENCHMARK.json taken
# relative to the parent's median:
#   gain          at least 10 pairs, the change won at least 9 in 10 of them,
#                 and its median is better by more than the parent's IQR
#   worse         the change's median is worse by more than the bound
#   unresolved    a side has no value, or a side's IQR exceeds the bound
#                 (the runs spread too widely to tell) and not every run of
#                 the change reads better than every run of the parent
#   within bound  otherwise
# Usage: scripts/ab_bench.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS
set -euo pipefail

if [ "$#" -ne 4 ] || ! [[ "$4" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS" >&2
    exit 1
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="$4"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$change/BENCHMARK.json")"
runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT

run() {  # run SIDE DIR PAIR POSITION: append one JSON line to $runs
    local out
    out="$(cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
        --seconds "$seconds" --trace 0 | tail -n 1)" || true
    python3 - "$1" "$3" "$4" "$out" >> "$runs" <<'EOF'
import json, sys
side, pair, position, out = sys.argv[1:]
try:
    result = json.loads(out)
except ValueError:
    result = {"correct": False, "attempted": None, "failed": None, "metrics": {}}
print(json.dumps({"side": side, "pair": int(pair), "position": position, **result}))
EOF
    tail -n 1 "$runs"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$parent" "$i" first
        run change "$change" "$i" second
    else
        run change "$change" "$i" first
        run parent "$parent" "$i" second
    fi
done

python3 - "$runs" "$change/BENCHMARK.json" "$workload" "$seconds" <<'EOF'
import json, statistics, sys

runs_file, bench_file, workload, seconds = sys.argv[1:]
spec = json.load(open(bench_file))["end_to_end"]
runs = [json.loads(line) for line in open(runs_file)]
pairs = sorted({r["pair"] for r in runs})
by = {(r["side"], r["pair"]): r for r in runs}


def value(run, name):
    m = run["metrics"].get(name)
    return None if m is None else m["value"]


def spread(xs):
    if not xs:
        return None
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0], "n": 1}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "n": len(xs)}


def verdict(s, pairs, parent_vals, change_vals):
    # s is one metric's summary; *_vals are each side's values, pair order.
    p, c = s["parent"]["all"], s["change"]["all"]
    if p is None or c is None:
        return "unresolved"
    sign = 1 if s["better"] == "lower" else -1
    gain = sign * (p["median"] - c["median"])  # > 0 when the change is better
    if pairs >= 10 and 10 * s["change_wins"] >= 9 * pairs and gain > p["q3"] - p["q1"]:
        return "gain"
    scale = abs(p["median"]) or 1.0
    if -gain > s["bound"] * scale:
        return "worse"
    all_better = min(sign * v for v in parent_vals) > max(sign * v for v in change_vals)
    if max(x["q3"] - x["q1"] for x in (p, c)) > s["bound"] * scale and not all_better:
        return "unresolved"
    return "within bound"


summary = {}
for m in spec:
    name, lower = m["name"], m["better"] == "lower"
    sides, present = {}, {}
    for side in ("parent", "change"):
        vals = {p: value(by[side, p], name) for p in pairs if (side, p) in by}
        present[side] = [v for v in vals.values() if v is not None]
        sides[side] = {
            "all": spread(present[side]),
            **{f"ran_{pos}": spread([v for p, v in vals.items() if v is not None
                                     and by[side, p]["position"] == pos])
               for pos in ("first", "second")},
        }
    wins = losses = 0
    for p in pairs:
        a, b = value(by["parent", p], name), value(by["change", p], name)
        if a is None or b is None or a == b:
            continue
        if (b < a) == lower:
            wins += 1
        else:
            losses += 1
    summary[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     **sides, "change_wins": wins, "change_losses": losses}
    summary[name]["verdict"] = verdict(summary[name], len(pairs), present["parent"],
                                       present["change"])


def fmt(s):
    return "-" if s is None else f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] (n={s['n']})"


print(f"{workload}: {len(pairs)} pairs at --seconds {seconds}; median [q1, q3]")
for name, s in summary.items():
    print(f"{name} ({s['unit']}, {s['better']} is better): {s['verdict']}; "
          f"change won {s['change_wins']}, lost {s['change_losses']}")
    for side in ("parent", "change"):
        print(f"  {side}: {fmt(s[side]['all'])}; ran first {fmt(s[side]['ran_first'])}; "
              f"ran second {fmt(s[side]['ran_second'])}")
print(json.dumps({"workload": workload, "seconds": float(seconds), "pairs": len(pairs),
                  "correct": {side: all(r["correct"] for r in runs if r["side"] == side)
                              for side in ("parent", "change")},
                  "summary": summary, "runs": runs}))
EOF
