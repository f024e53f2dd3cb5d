#!/bin/sh
# verify.sh — the full gate; .github/workflows/ci.yml runs exactly this.
# Usage: ./verify.sh [quick]
#   quick   skip the race detector and fuzz smoke (seconds, not minutes)
set -eu

cd "$(dirname "$0")"

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== benchmark module (own go.mod: vet + smoke test) =="
# benchmark/ compiles against the root API and internal/{core,ecc,...}
# but ./... never sees it: without this step a change that breaks it
# fails the benchmark run instead of the gate.
(cd benchmark && go vet . && go test .)

echo "== cross-compile arm64 (NEON dispatch path) =="
# The arm64 assembly and dispatch hooks only compile under GOARCH=arm64,
# so an amd64-only gate would let them rot.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./...

echo "== govulncheck =="
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
else
    echo "govulncheck not installed; skipping (CI installs it)"
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# The arcvet sweep (full suite + waivercheck over ./...) is a test:
# cmd/arcvet's TestRepoSweepClean, part of go test below. Copied locks
# and constant over-shifts are go vet's, above.
if [ "${1:-}" = "quick" ]; then
    echo "== go test (quick) =="
    go test ./...
    echo "verify: OK (quick)"
    exit 0
fi

echo "== go test -race =="
go test -race ./...

echo "== on-demand training (1-point pins, cold-engine race, cache identity) =="
# A cold engine measures only the points a request can choose, each
# once even with goroutines racing for it, and trusts a cache only
# under the fingerprint it was written with.
go test -race ./internal/core -run 'Lazy|Train|Cache'

# These run-time gates are the repo's concurrency checks; arcvet has
# no concurrency analyzer.
echo "== stream close/decode-error race regression (race, 5 runs) =="
go test -race -run 'TestChunkReaderCloseRacesMidStreamError' -count=5 ./internal/core

echo "== worker-pool and pipe goroutine-leak regressions (race, 5 runs) =="
go test -race -run 'TestPipeStressLeakFree|TestForLeaksNoGoroutines|TestForErrLeaksNoGoroutines' -count=5 ./internal/parallel

echo "== service shutdown/disconnect leak regressions (race, 5 runs) =="
go test -race -run 'TestArcdShutdownDrains|TestArcdClientDisconnectMidStream' -count=5 ./internal/service

echo "== kernel floors and bench smoke (every kernel, stream and seek benchmark once) =="
# go test -race above skips TestKernelFloors (the detector slows the
# pure-Go kernels and not the assembly), so the speedup floors run here
# without it. One iteration of each benchmark fails on any that b.Fatals.
go test -run TestKernelFloors -bench 'Kernel|Stream|Seek' -benchtime=1x \
    . ./internal/core ./internal/sz ./internal/zfp

echo "== fuzz smoke (10s per target) =="
for target in FuzzContainerDecode FuzzSZDecompress FuzzSZDecodeCorruptHeader FuzzZFPDecompress FuzzZFPDecodeCorruptHeader FuzzHuffmanTable FuzzStreamReader FuzzStreamReaderPipelined FuzzIndexDecode FuzzBitIORoundTrip; do
    go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s .
done

echo "== service frame fuzz smoke (10s) =="
go test -run '^$' -fuzz '^FuzzFrameDecode$' -fuzztime 10s ./internal/service

echo "== gf256 dispatch fuzz smoke (10s) =="
# Differential fuzz across every SIMD tier the host supports: each
# input must produce byte-identical results under avx2/ssse3/neon and
# the word fallback.
go test -run '^$' -fuzz '^FuzzGF256Dispatch$' -fuzztime 10s ./internal/gf256

echo "== hamming kernel fuzz smoke (10s) =="
# Differential fuzz of the eight-codeword table kernel (all four codes,
# one and four workers) against the per-block references.
go test -run '^$' -fuzz '^FuzzHammingKernel$' -fuzztime 10s ./internal/ecc/hamming

echo "== reed-solomon repair fuzz smoke (10s) =="
# Differential fuzz of the repair path (code shape, generator, checksum
# width, workers, arbitrary erasure sets) against the retained K x K
# inversion decoder.
go test -run '^$' -fuzz '^FuzzRSRepair$' -fuzztime 10s ./internal/ecc/reedsolomon

echo "== zfp embedded coder fuzz smoke (10s) =="
# Differential fuzz of the word-speed group-testing coder (block size,
# kmin, bit budget, bit offset, progressive cap; clean, truncated,
# bit-flipped and zero-extended input) against the per-bit reference.
go test -run '^$' -fuzz '^FuzzZFPPlanes$' -fuzztime 10s ./internal/zfp

echo "== huffman batch decode fuzz smoke (10s) =="
# Differential fuzz of DecodeAll (local bit window, multi-symbol table)
# against one Decode per symbol, over whatever table the input's header
# yields: same symbols, same count before the first error, same error,
# same reader position.
go test -run '^$' -fuzz '^FuzzHuffmanDecodeAll$' -fuzztime 10s ./internal/huffman

echo "verify: OK"
