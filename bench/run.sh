#!/usr/bin/env bash
# The benchmark's single command: builds pathbench once, pins the
# environment, and runs it.
#
#   bash bench/run.sh --workload steady_jsonl --seed 1 --seconds 24 --trace 0
#       one run. Every metric is printed by name; the last line of output
#       is the result object of BENCHMARK.json's contract. --trace 1 reports
#       the per-layer metrics instead of the end-to-end ones.
#   bash bench/run.sh all
#       every workload once, end-to-end and traced (SEED=n picks the seed).
#   bash bench/run.sh --calibrate 10 | --agree 5 [--workload NAME]
#       the noise tables of bench/README.md.
#
# Run it from the root of the checkout. Everything it writes — the Go build
# cache, the binary, spool and span files — goes under .bench_build/.
set -euo pipefail

if [ ! -f BENCHMARK.json ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of the checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out"

# The fixed environment of ISSUE 13: two procs (mat's chunked reductions,
# and so the scores, depend on it) and the default collector settings.
export GOMAXPROCS=2
unset GOGC GOMEMLIMIT GODEBUG

# The toolchain works inside the checkout too: local toolchain, no user
# configuration, caches and counters under .bench_build/. `go build` runs
# every time — it is a no-op when nothing changed, and a stale binary would
# silently measure the wrong code.
GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off \
	GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	go build -C bench -o "$out/pathbench" ./pathbench

if [ "${1:-}" = all ]; then
	for w in steady_jsonl wide_exposition churn_alerts; do
		for trace in 0 1; do
			echo "== $w --trace $trace"
			"$out/pathbench" -workload "$w" -seed "${SEED:-1}" -trace "$trace" -spool-dir "$out"
		done
	done
	exit 0
fi

exec "$out/pathbench" -spool-dir "$out" "$@"
