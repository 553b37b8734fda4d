#!/usr/bin/env sh
# verify.sh — the repo's full static-analysis + test gate.
#
#   build      go build ./...
#   format     gofmt -l (fails on any unformatted file)
#   vet        go vet ./...
#   sentrylint the repo's own analyzer (cmd/sentrylint); findings fail the
#              gate unless suppressed with //lint:ignore <check> <reason>.
#              Stale or unknown-check suppressions are findings too
#              (-unused-ignores defaults on). Runs against a findings
#              cache under .cache/ so unchanged packages skip
#              re-type-checking on repeat runs; the 2.5s -budget bounds
#              the cold path (CI has no cache), so analyzer performance
#              regressions fail the gate with the wall time printed.
#   race tests go test -race ./...
#   pathbench  (cd bench && go vet ./... && go test -short ./...): the
#              benchmark of BENCHMARK.json is a module of its own that the
#              steps above never build, and it compiles against
#              internal/runtime, internal/daemon and internal/core.
#   bench gate go run ./cmd/benchtab -exp all -check: reruns the paper
#              experiments and compares each stage's allocation counts
#              and bytes (two-sided, default ±10%) against the committed
#              BENCH_obs.json. A big allocation *improvement* also fails,
#              forcing the baseline to be regenerated (go run
#              ./cmd/benchtab -exp all -quick -json) and committed — that
#              is how perf wins get ratcheted in. Wall time is recorded
#              but not gated (speed is bench/pathbench's job).
#              Tune with BENCH_ALLOC_PCT.
#
# Run from the repository root: ./scripts/verify.sh
# Pass -short to forward to go test (trims the slow experiment tests):
#   ./scripts/verify.sh -short
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> sentrylint ./..."
go run ./cmd/sentrylint -cache .cache/sentrylint.json -budget 2.5s ./...

echo "==> go test -race $* ./..."
# The full experiment reproductions exceed go test's default 10m package
# timeout under the race detector; -short (what CI passes) stays well under.
go test -race -timeout 60m "$@" ./...

echo "==> bench module: go vet + go test -short (pathbench builds against internal/...)"
(cd bench && go vet ./... && go test -short ./...)

echo "==> benchtab -check (bench-regression gate vs BENCH_obs.json)"
# -quick matches the scale the committed baseline is generated at (see
# README: go run ./cmd/benchtab -exp all -quick -json).
go run ./cmd/benchtab -exp all -quick -check \
    -check-alloc-pct "${BENCH_ALLOC_PCT:-10}"

echo "verify: all gates passed"
