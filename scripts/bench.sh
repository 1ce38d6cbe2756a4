#!/usr/bin/env bash
# The performance gate. Runs the repository's benchmark (perfbench, declared
# in BENCHMARK.json) on this checkout and on a base commit, and fails if this
# checkout's median op_p90_ms on sweep-cold, study-warm, store-warm or
# daemon-mix is worse than the base's by more than the op_p90_ms bound in
# BENCHMARK.json.
#
# Usage: scripts/bench.sh <base-commit>
#
# Both sides run on the same host, one after the other: numbers from
# different machines, or from one machine at different times, are not
# comparable. Each workload runs in pairs, one base run and one run of this
# checkout with the same seed, and the side that runs first alternates from
# pair to pair, so a drift in the host's speed falls on both sides.
#
# The base commit is checked out into a temporary git worktree, removed on
# exit. Each side builds perfbench from its own sources into its own
# .bench_build (the first build takes about 30 s). Every run's report is
# kept in .bench_build/gate/<workload>.<side>.<seed>.log and its JSON line
# is appended to .bench_build/gate/<workload>.<side>.jsonl.
#
# The gate fails closed: a run that exits non-zero or whose last line is not
# a result fails it, as does a run of this checkout that reports
# "correct": false or a failed op.
set -euo pipefail

workloads=(sweep-cold study-warm store-warm daemon-mix)
pairs=5
seconds=5

if [ $# -ne 1 ]; then
	echo "usage: scripts/bench.sh <base-commit>" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
root=$PWD
bound=$(jq -e '.end_to_end[] | select(.name == "op_p90_ms") | .bound' BENCHMARK.json)

tmp=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$1"

out=$root/.bench_build/gate
rm -rf "$out"
mkdir -p "$out"
# Each side builds into its own checkout's .bench_build.
unset CARGO_TARGET_DIR

# run <side> <workload> <seed>: one perfbench run of base or change.
run() {
	local side=$1 w=$2 seed=$3 dir=$root
	if [ "$side" = base ]; then dir=$tmp/base; fi
	local log=$out/$w.$side.$seed.log
	if ! (cd "$dir" && bash perfbench/run.sh --workload "$w" --seed "$seed" \
		--seconds "$seconds" --trace 0) >"$log"; then
		echo "bench: $side $w seed $seed: perfbench failed" >&2
		exit 1
	fi
	local line
	line=$(tail -n 1 "$log")
	if ! jq -ne --argjson r "$line" '$r.metrics.op_p90_ms.value | numbers' >/dev/null 2>&1; then
		echo "bench: $side $w seed $seed: no result line; the run printed:" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	if ! jq -ne --argjson r "$line" '$r.correct == true and $r.failed == 0' >/dev/null; then
		echo "bench: $side $w seed $seed: incorrect run: $line" >&2
		if [ "$side" = change ]; then exit 1; fi
	fi
	echo "$line" >>"$out/$w.$side.jsonl"
}

# median <file>: the median op_p90_ms over a side's runs.
median() {
	jq -s 'map(.metrics.op_p90_ms.value) | sort
		| if length % 2 == 1 then .[length / 2 | floor]
		  else (.[length / 2 - 1] + .[length / 2]) / 2 end' "$1"
}

status=0
for w in "${workloads[@]}"; do
	for seed in $(seq 1 "$pairs"); do
		if [ $((seed % 2)) -eq 1 ]; then
			run base "$w" "$seed"
			run change "$w" "$seed"
		else
			run change "$w" "$seed"
			run base "$w" "$seed"
		fi
	done
	report=$(jq -nr --arg w "$w" --argjson n "$pairs" --argjson k "$bound" \
		--argjson b "$(median "$out/$w.base.jsonl")" --argjson c "$(median "$out/$w.change.jsonl")" '
		def r: . * 100 | round / 100;
		(($c / $b - 1) * 1000 | round / 10) as $d
		| "bench: \($w) median op_p90_ms over \($n) pairs: base \($b | r) ms, change \($c | r) ms, "
		  + "\(if $d > 0 then "+" else "" end)\($d)% (bound +\($k * 100)%): "
		  + if $c > $b * (1 + $k) then "FAIL" else "ok" end')
	echo "$report"
	case $report in *FAIL) status=1 ;; esac
done
exit $status
