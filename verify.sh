#!/bin/sh
# verify.sh — the full local gate, mirroring .github/workflows/ci.yml.
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
    echo "govulncheck not installed; skipping (CI runs it)"
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

echo "== stream bench (recorded to BENCH_stream.json) =="
go test -run '^$' -bench 'BenchmarkStream' -benchtime=2s -benchmem -count=1 . | tee /tmp/arc_bench_stream.txt
# benchmeta parses the run, emits the artifact, and enforces the
# steady-state allocation budget (nonzero exit fails verify under set -e).
go run ./cmd/benchmeta stream < /tmp/arc_bench_stream.txt > BENCH_stream.json
echo "wrote BENCH_stream.json"

echo "== kernel bench (recorded to BENCH_kernels.json) =="
# The kernel pairs live in the root package plus the codec packages
# that grew vectorized paths (core voting, SZ quantize, ZFP lift and
# embedded coder).
go test -run '^$' -bench 'BenchmarkKernel' -benchtime=1s -benchmem -count=1 \
    . ./internal/core ./internal/sz ./internal/zfp | tee /tmp/arc_bench_kernels.txt
# benchmeta enforces the word/scalar speedup floors plus the
# AVX2-over-SSSE3 tier ratio on hosts that report AVX2.
go run ./cmd/benchmeta kernels < /tmp/arc_bench_kernels.txt > BENCH_kernels.json
echo "wrote BENCH_kernels.json"

echo "== seek bench (recorded to BENCH_seek.json) =="
go test -run '^$' -bench 'BenchmarkSeek' -benchtime=1s -benchmem -count=1 . | tee /tmp/arc_bench_seek.txt
# benchmeta enforces the ranged-read speedup floors: cold range vs
# sequential full decode, warm (cached) range vs cold.
go run ./cmd/benchmeta seek < /tmp/arc_bench_seek.txt > BENCH_seek.json
echo "wrote BENCH_seek.json"

echo "== service smoke (arcd + arcload with fault injection, recorded to BENCH_service.json) =="
# Boot a real daemon on an ephemeral port, hammer it with a workload
# that damages half the decode-side containers anywhere (a random bit,
# three bits, or a 1-, 4- or 64-byte burst), and gate the result: every
# response repaired or reported, zero silently wrong, no request
# failed, and the smoke-scale throughput/latency floors must hold
# (benchmeta's nonzero exit fails verify under set -e).
service_tmp=$(mktemp -d)
arcd_pid=""
cleanup_service() {
    if [ -n "$arcd_pid" ]; then
        kill "$arcd_pid" 2>/dev/null || true
    fi
    rm -rf "$service_tmp"
}
trap cleanup_service EXIT
go build -o "$service_tmp/arcd" ./cmd/arcd
go build -o "$service_tmp/arcload" ./cmd/arcload
go build -o "$service_tmp/arc" ./cmd/arc
# A root archive so the smoke also exercises READ_RANGE: plaintext
# ground truth plus its v2 encoding served from the daemon's -root.
mkdir "$service_tmp/root"
dd if=/dev/urandom of="$service_tmp/plain.bin" bs=65536 count=4 2>/dev/null
"$service_tmp/arc" encode -in "$service_tmp/plain.bin" \
    -out "$service_tmp/root/data.arc" -chunk-kb 32 -ecc secded
"$service_tmp/arcd" -addr 127.0.0.1:0 -addrfile "$service_tmp/arcd.addr" \
    -root "$service_tmp/root" -cache-mb 4 &
arcd_pid=$!
i=0
while [ ! -f "$service_tmp/arcd.addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "arcd never wrote its addrfile" >&2
        exit 1
    fi
    sleep 0.1
done
"$service_tmp/arcload" -addr "$(cat "$service_tmp/arcd.addr")" \
    -clients 4 -requests 40 -max-size 65536 -corrupt 0.5 -seed 1 \
    -range-archive data.arc -range-file "$service_tmp/plain.bin" -range-ratio 0.3 \
    > "$service_tmp/workload.json"
go run ./cmd/benchmeta service < "$service_tmp/workload.json" > BENCH_service.json
kill -TERM "$arcd_pid"
wait "$arcd_pid"
arcd_pid=""
echo "wrote BENCH_service.json"

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
