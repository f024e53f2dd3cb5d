// Command arcload is the workload harness for arcd: it hammers a
// running daemon with a configurable mix of encode/decode/verify/
// repair traffic over Zipf-skewed payload sizes, optionally damaging
// containers mid-flight — a random bit, three bits, or a 1-, 4- or
// 64-byte burst, anywhere in the container — and byte-checks every
// response against ground truth: repaired, reported, or silent.
//
//	arcload -addr 127.0.0.1:7410 -clients 8 -requests 200 -corrupt 0.5
//
// The machine-readable workload result goes to stdout as JSON; a human
// summary goes to stderr. The exit status is about the harness, not the
// service: integrity verdicts (silent mismatches above all) are in the
// JSON for the caller to judge.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/service"
)

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("arcload", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		addr        = fs.String("addr", "127.0.0.1:7410", "arcd address to load")
		clients     = fs.Int("clients", 4, "concurrent client connections")
		requests    = fs.Int("requests", 50, "requests per client")
		encodeRatio = fs.Float64("encode-ratio", 0.5, "fraction of requests that are encodes")
		minSize     = fs.Int("min-size", 64, "smallest payload in bytes")
		maxSize     = fs.Int("max-size", 256<<10, "largest payload in bytes")
		zipfS       = fs.Float64("zipf", 1.4, "Zipf skew of payload sizes (>1; larger favors small payloads)")
		corrupt     = fs.Float64("corrupt", 0, "fraction of decode-side containers damaged mid-flight")
		seed        = fs.Int64("seed", 1, "workload RNG seed")
		rangeArch   = fs.String("range-archive", "", "archive name (in the server's -root) for READ_RANGE traffic")
		rangeFile   = fs.String("range-file", "", "plaintext file the range archive encodes (ground truth for byte checks)")
		rangeRatio  = fs.Float64("range-ratio", 0, "fraction of requests issued as ranged reads (requires -range-archive)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var rangePlain []byte
	if *rangeRatio > 0 {
		var err error
		rangePlain, err = os.ReadFile(*rangeFile)
		if err != nil {
			return fmt.Errorf("arcload: -range-file: %w", err)
		}
	}

	res, err := service.RunWorkload(ctx, service.WorkloadOptions{
		Addr:         *addr,
		Clients:      *clients,
		Requests:     *requests,
		EncodeRatio:  *encodeRatio,
		MinSize:      *minSize,
		MaxSize:      *maxSize,
		ZipfS:        *zipfS,
		CorruptRate:  *corrupt,
		Seed:         *seed,
		RangeRatio:   *rangeRatio,
		RangeArchive: *rangeArch,
		RangePlain:   rangePlain,
	})
	if err != nil {
		return err
	}

	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(out, string(b)); err != nil {
		return err
	}
	_, _ = fmt.Fprintf(errw, // summary is best-effort; the JSON on stdout is the contract
		"arcload: %d requests (%d enc / %d dec / %d ver / %d rep / %d range) in %.0fms: %.0f req/s, %.1f MB/s, p50 %.2fms p99 %.2fms\n",
		res.Requests, res.Encodes, res.Decodes, res.Verifies, res.Repairs, res.RangeReads,
		res.ElapsedMs, res.RequestsPerS, res.ThroughputMBs, res.Latency.P50Ms, res.Latency.P99Ms)
	v := res.CorruptedTotal()
	_, _ = fmt.Fprintf(errw, // as above
		"arcload: damaged %d containers: repaired %d, reported %d, silent %d; silent mismatches %d, errors %d\n",
		v.Repaired+v.Reported+v.Silent, v.Repaired, v.Reported, v.Silent, res.SilentMismatches, res.Errors)
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "arcload:", err)
		os.Exit(1)
	}
}
