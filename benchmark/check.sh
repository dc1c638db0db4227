#!/usr/bin/env bash
# Self-check of the benchmark: its unit tests, then a smoke run of every
# workload, untraced and traced, asserting that each run passes its
# correctness checks and prints exactly the metrics BENCHMARK.json names,
# with the same units.
#
#   bash benchmark/check.sh        (from anywhere; runs at the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo test --offline --quiet --manifest-path "$manifest"
cargo build --release --offline --quiet --manifest-path "$manifest"

for workload in social large search service; do
    for trace in 0 1; do
        out=$(cargo run --release --offline --quiet --manifest-path "$manifest" -- \
            --workload "$workload" --seed 1 --trace "$trace" --smoke)
        tail -n 1 <<<"$out" | python3 -c '
import json, sys
workload, trace = sys.argv[1], sys.argv[2] == "1"
declared = json.load(open("BENCHMARK.json"))["per_layer" if trace else "end_to_end"]
result = json.loads(sys.stdin.read())
assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
assert result["correct"] and result["failed"] == 0, result
assert result["attempted"] >= 1, result
want = {m["name"]: m["unit"] for m in declared}
got = {name: m["unit"] for name, m in result["metrics"].items()}
assert got == want, f"{workload}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
print("ok", workload, "trace=%d:" % trace, len(got), "metrics,", result["attempted"], "operations")
' "$workload" "$trace"
    done
done
