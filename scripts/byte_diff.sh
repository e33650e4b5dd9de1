#!/usr/bin/env bash
# Write a fixed set of seeded CLI outputs (CSV, SVG and stdout) into OUT_DIR.
#
# Run it in two checkouts and compare with `diff -r OUT_A OUT_B`: a change
# meant to preserve planner behaviour must leave every file identical.
# Usage: scripts/byte_diff.sh OUT_DIR
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 1
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
out="$(cd "$1" && pwd)"
export PYTHONPATH="$repo/src"

run() {
    echo "\$ bitplan $*"
    python -m bitplan.cli "$@"
}

{
    for seed in 1 2; do
        run demo --seed "$seed" --max-batches 10 \
            --svg-dir "$out/demo_s$seed" --out "$out/demo_s$seed.csv"
        run plan --scenario demo --planner rrtstar --seed "$seed" --max-batches 6000 \
            --out "$out/rrtstar_s$seed.csv"
    done
    for planner in bitstar rrtstar; do
        run bench --scenario demo --planner "$planner" --trials 3 --time-budget 1.0 \
            --out "$out/bench_$planner.csv"
    done
    run plan --scenario demo --planner bitstar --seed 3 --time-budget 0.5 \
        --out "$out/bitstar_s3_budget.csv"

    # Two generated maps, so that grid edge checks run on more than one map;
    # map 1 keeps the file names it had when it was the only one.
    for map in 1 2; do
        name=grid
        [ "$map" = 1 ] || name="grid$map"
        scn="$(PYTHONPATH="$repo/src:$repo/perfbench" python -c \
            'import sys; from pathlib import Path; from gridworld import GridWorld
print(GridWorld(int(sys.argv[1])).write(Path(sys.argv[2])))' "$map" "$out/$name")"
        for planner in bitstar rrtstar; do
            run plan --scenario "$scn" --planner "$planner" --seed 1 --max-batches 10 \
                --out "$out/${name}_$planner.csv"
        done
    done
} | sed "s|$out|OUT_DIR|g" > "$out/stdout.txt"
