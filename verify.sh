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

echo "== arcvet sweep under GOARCH=arm64 (the !amd64 files) =="
# arcvet picks files with go/build's default context, so GOARCH=arm64
# makes it load and analyze the arm64 dispatch and the *_other.go
# kernel stubs, which the host sweep in go test never sees. The binary
# is built once for the host and run with the arm64 environment.
arcvet_dir=$(mktemp -d)
trap 'rm -rf "$arcvet_dir"' EXIT
go build -o "$arcvet_dir/arcvet" ./cmd/arcvet
GOARCH=arm64 "$arcvet_dir/arcvet" -waivercheck ./...

echo "== no fused multiply-add in the float packages (arm64 listings) =="
# Go may fuse x*y + z into one rounding, and the arm64 backend does.
# SZ's reconstruction is two roundings (docs/FORMAT.md), and the study
# fields and error metrics must be the same numbers on every host, so
# each product that feeds a sum is written float64(a*b), which the spec
# says forbids fusion. The compiler replays a cached package's listing,
# so an empty one is an error, not a pass.
for pkg in sz zfp pressio datasets metrics; do
    listing=$(GOARCH=arm64 go build -gcflags="repro/internal/$pkg=-S" "./internal/$pkg" 2>&1)
    if ! printf '%s\n' "$listing" | grep -q 'TEXT'; then
        echo "no arm64 listing for internal/$pkg" >&2
        exit 1
    fi
    fused=$(printf '%s\n' "$listing" | grep -E '[[:space:]]F(N?MADD|N?MSUB)D[[:space:]]' || true)
    if [ -n "$fused" ]; then
        echo "fused multiply-add in internal/$pkg:" >&2
        echo "$fused" >&2
        exit 1
    fi
done

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

# The host's arcvet sweep (full suite + waivercheck over ./...) is a
# test: cmd/arcvet's TestRepoSweepClean, part of go test below; the
# arm64 sweep is its own step above. Copied locks and constant
# over-shifts are go vet's, above.
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
echo "== word tier (ARC_SIMD=word: the table kernels, the zfp and sz word paths and the goldens on an AVX2 host) =="
# The ECC codes, ZFP's plane coder and SZ's Lorenzo quantizer leave
# their AVX2 kernels for the word path under ARC_SIMD=word; the ECC,
# chunk, SZ, ZFP, slab and checkpoint goldens must pass there too.
# ARC_SIMD is read in gf256's init, which the test cache does not key
# on: without -count=1 this would replay the results of the run above.
ARC_SIMD=word go test -count=1 ./internal/ecc/... ./internal/core ./internal/sz ./internal/zfp ./internal/pressio ./checkpoint

echo "== avx2 tier (ARC_SIMD=avx2: the tier below gfni, with the goldens) =="
# Where gfni is the default, the AVX2 Reed-Solomon kernels run only
# inside the per-tier tests; capping the dispatch at avx2 runs every
# package that reaches them, goldens included, on that tier. A host
# without AVX2 falls back to its best tier. -count=1 as above.
ARC_SIMD=avx2 go test -count=1 ./internal/gf256 ./internal/ecc/... ./internal/core ./internal/sz ./internal/zfp

echo "== stream close/decode-error race regression (race, 5 runs) =="
go test -race -run 'TestChunkReaderCloseRacesMidStreamError' -count=5 ./internal/core

echo "== ECC family table under concurrent registration (race, 5 runs) =="
go test -race -run TestRegistryConcurrentUse -count=5 ./internal/core

echo "== worker-pool and pipe goroutine-leak regressions (race, 5 runs) =="
go test -race -run 'TestPipeStressLeakFree|TestPipeSubmitAfterAbortFails|TestPipeWaitReturnsGoError|TestPipeStopUnblocksProducer|TestForLeaksNoGoroutines|TestForErrLeaksNoGoroutines' -count=5 ./internal/parallel
go test -race -run 'TestPipelinedWriterSinkErrorCancelsAndJoins|TestPipelinedWriterCloseIsTheOnlyJoinNeeded|TestPipelinedReaderCloseWithoutDrain' -count=5 ./internal/core

echo "== reed-solomon tables shared across workers (race, 10 runs) =="
# Four codes of one shape encode and repair at once, three workers each,
# all reading the generator and parity-check tables genCache holds.
go test -race -run 'TestSharedTablesAcrossWorkers' -count=10 ./internal/ecc/reedsolomon

echo "== service shutdown/disconnect leak regressions (race, 5 runs) =="
go test -race -run 'TestArcdShutdownDrains|TestArcdClientDisconnectMidStream' -count=5 ./internal/service

echo "== kernel floors and bench smoke (every kernel, stream and seek benchmark once) =="
# go test -race above skips TestKernelFloors (the detector slows the
# pure-Go kernels and not the assembly), so the speedup floors run here
# without it. One iteration of each benchmark fails on any that b.Fatals.
go test -run TestKernelFloors -bench 'Kernel|Stream|Seek' -benchtime=1x \
    . ./internal/core ./internal/sz ./internal/zfp

echo "== fuzz smoke (10s per target) =="
for target in FuzzContainerDecode FuzzSZDecompress FuzzSZDecodeCorruptHeader FuzzZFPDecompress FuzzPressioDecompress FuzzZFPDecodeCorruptHeader FuzzHuffmanTable FuzzStreamReader FuzzStreamReaderPipelined FuzzIndexDecode FuzzBitIORoundTrip; do
    go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s .
done

echo "== chunk walk fuzz smoke (10s) =="
# Differential: over arbitrary bytes, InspectStream, the chunks a
# ChunkReader delivers and the range scan list the same chunks and end
# the same way. It lives in internal/core because it compares the
# package's own chunk lists and walk ends.
go test -run '^$' -fuzz '^FuzzChunkWalk$' -fuzztime 10s ./internal/core

echo "== service frame fuzz smoke (10s) =="
go test -run '^$' -fuzz '^FuzzFrameDecode$' -fuzztime 10s ./internal/service

echo "== checkpoint loader fuzz smoke (10s) =="
# Arbitrary plaintext, protected under secded64, through Load and
# LoadArchive: no panic, and every field that loads has a shape that
# matches its length.
go test -run '^$' -fuzz '^FuzzCheckpointLoad$' -fuzztime 10s ./checkpoint

echo "== gf256 dispatch fuzz smoke (10s) =="
# Differential fuzz across every SIMD tier the host supports: each
# input must produce byte-identical results under gfni/avx2/ssse3/neon
# and the word fallback.
go test -run '^$' -fuzz '^FuzzGF256Dispatch$' -fuzztime 10s ./internal/gf256

echo "== gf256 multi-destination fuzz smoke (10s) =="
# Differential fuzz of MulRows (matrix shape, coefficients, nil sources
# and rows, length, offset, every tier) against sums of MulSliceRef.
go test -run '^$' -fuzz '^FuzzGF256MulRows$' -fuzztime 10s ./internal/gf256

echo "== hamming kernel fuzz smoke (10s) =="
# Differential fuzz of the eight-codeword table kernel and the AVX2
# kernel (all four codes, one and four workers, every dispatch tier)
# against the per-block references.
go test -run '^$' -fuzz '^FuzzHammingKernel$' -fuzztime 10s ./internal/ecc/hamming

echo "== parity kernel fuzz smoke (10s) =="
# Differential fuzz of parity's encode and decode (block size, workers,
# every dispatch tier, flips) against the per-block references.
go test -run '^$' -fuzz '^FuzzParityKernel$' -fuzztime 10s ./internal/ecc/parity

echo "== CRC-32C combine fuzz smoke (10s) =="
# The chunk digest is built from the CRC each code returns, joined
# piece by piece: CombineCRC and CRCShift against crc32.Checksum of the
# joined bytes, for any A and B up to 64 KiB and any split.
go test -run '^$' -fuzz '^FuzzCRC32CCombine$' -fuzztime 10s ./internal/ecc

echo "== reed-solomon repair fuzz smoke (10s) =="
# Differential fuzz of the repair path (code shape, generator, checksum
# width, workers, arbitrary erasure sets) against the retained K x K
# inversion decoder.
go test -run '^$' -fuzz '^FuzzRSRepair$' -fuzztime 10s ./internal/ecc/reedsolomon

echo "== zfp embedded coder fuzz smoke (10s) =="
# Differential fuzz of the word-speed group-testing coder (block size,
# kmin, bit budget, bit offset; clean, truncated, bit-flipped and
# zero-extended input) against the per-bit reference.
go test -run '^$' -fuzz '^FuzzZFPPlanes$' -fuzztime 10s ./internal/zfp

echo "== sz quantizer fuzz smoke (10s) =="
# Differential fuzz of the Lorenzo quantizer (2-D and 3-D extents,
# error bound, special values, every dispatch tier) against the word
# tier's 2-row kernel, bit for bit, and against quantizeRef's symbols.
go test -run '^$' -fuzz '^FuzzSZQuantize$' -fuzztime 10s ./internal/sz

echo "== huffman batch decode fuzz smoke (10s) =="
# Differential fuzz of DecodeAll (local bit window, multi-symbol table)
# against one Decode per symbol, over whatever table the input's header
# yields: same symbols, same count before the first error, same error,
# same reader position.
go test -run '^$' -fuzz '^FuzzHuffmanDecodeAll$' -fuzztime 10s ./internal/huffman

echo "== huffman batch encode fuzz smoke (10s) =="
# Differential fuzz of EncodeAll (several codes per 8-byte store into
# the writer's spare capacity) against one Encode per symbol, from every
# bit offset of the writer's partial byte and with every group tail,
# into a writer with no room and one sized exactly; DecodeAll must read
# the symbols back.
go test -run '^$' -fuzz '^FuzzHuffmanEncodeAll$' -fuzztime 10s ./internal/huffman

echo "verify: OK"
