#!/usr/bin/env bash
# validate.sh makes the two sets of the two-set check described in
# bench/README.md: every workload once per seed and set, untraced, with
# the sets interleaved — A then B on each seed — so a host that speeds
# up or slows down over minutes moves both sets alike. The runs of set
# A are appended to OUT_A/runs.jsonl, those of set B to OUT_B/runs.jsonl.
# Run it from the checkout root:
#
#   bash bench/validate.sh bench/out/set-a bench/out/set-b
#   bash bench/run.sh -compare bench/out/set-a/runs.jsonl bench/out/set-b/runs.jsonl
set -euo pipefail

usage="usage: validate.sh OUT_A OUT_B [RUNS] [SECONDS]"
out_a=${1:?$usage}
out_b=${2:?$usage}
runs=${3:-10}
seconds=${4:-15}
here=$(dirname "${BASH_SOURCE[0]}")
for w in fleet-idle matrix-active live-serve c3-serve; do
	for i in $(seq 1 "$runs"); do
		seed=$((1000 + i))
		for out in "$out_a" "$out_b"; do
			echo "$w seed $seed $out: $(bash "$here/run.sh" --workload "$w" --seed "$seed" \
				--seconds "$seconds" --trace 0 --out "$out" | tail -1)"
		done
	done
done
