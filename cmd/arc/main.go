// Command arc encodes and decodes files with ARC protection.
//
// Usage:
//
//	arc encode -in data.sz -out data.arc [-mem 0.2] [-bw 100] [-ecc rs|secded|hamming|parity] [-errors-per-mb 1] [-chunk-kb 4096]
//	arc decode -in data.arc -out data.sz [-range FIRST:COUNT]
//	arc verify -in data.arc
//	arc inspect -in data.arc
//
// encode picks the optimal ECC configuration under the given
// constraints (omitting them lifts the bound, as in the paper's
// ARC_ANY_* flags) and writes an indexed stream of chunks (-chunk-kb
// KiB each, 0 = 4 MiB) that decode -range can seek in; decode
// verifies, repairs, and writes the original bytes; verify only
// checks; inspect prints each chunk's configuration.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	arc "repro"
	"repro/internal/ecc"
	"repro/internal/profiling"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = cmdEncode(os.Args[2:])
	case "decode":
		err = cmdDecode(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "arc:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  arc encode -in FILE -out FILE [-mem FRAC] [-bw MBS] [-ecc NAME] [-errors-per-mb N] [-threads N] [-chunk-kb N] [-pipeline N]
  arc decode -in FILE -out FILE [-threads N] [-pipeline N] [-range FIRST:COUNT]
  arc verify -in FILE [-threads N] [-pipeline N]
  arc inspect -in FILE
encode, decode, and verify also accept -cpuprofile FILE and
-memprofile FILE to capture runtime/pprof profiles of the run.`)
}

// stopProfile folds a profiling stop error into the command's named
// return, so a profile that failed to land on disk exits non-zero
// without masking the command's own error.
func stopProfile(stop func() error, err *error) {
	if perr := stop(); perr != nil && *err == nil {
		*err = perr
	}
}

func cmdEncode(args []string) (err error) {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	out := fs.String("out", "", "output file")
	mem := fs.Float64("mem", arc.AnyMem, "storage-overhead budget as a fraction (default: unbounded)")
	bw := fs.Float64("bw", arc.AnyBW, "minimum encode throughput in MB/s (default: unbounded)")
	eccName := fs.String("ecc", "", "restrict to one ECC method: parity|hamming|secded|rs")
	errPerMB := fs.Float64("errors-per-mb", 0, "expected soft errors per MB to correct")
	threads := fs.Int("threads", arc.AnyThreads, "maximum threads (0 = all)")
	chunkKB := fs.Int("chunk-kb", 0, "plaintext KiB per chunk (0 = the 4 MiB default)")
	pipeline := fs.Int("pipeline", 0, "chunks encoded concurrently (1 = sequential, 0 = auto)")
	prof := profiling.AddFlags(fs)
	_ = fs.Parse(args) // flag.ExitOnError: Parse exits instead of returning

	if *in == "" || *out == "" {
		return errors.New("encode: -in and -out are required")
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProfile(stopProf, &err)
	res := arc.AnyECC
	if *eccName != "" {
		m, err := parseMethod(*eccName)
		if err != nil {
			return err
		}
		res.Methods = []ecc.Method{m}
	}
	res.ErrorsPerMB = *errPerMB

	a, err := arc.Init(*threads)
	if err != nil {
		return err
	}
	defer a.Close()
	opts := arc.StreamOptions{ChunkSize: *chunkKB << 10, Pipeline: *pipeline}
	c, written, err := a.EncodeFileWith(*in, *out, *mem, *bw, res, opts)
	if err != nil {
		return err
	}
	fmt.Printf("arc: %s (threads=%d, predicted %.1f MB/s), wrote %d bytes\n",
		c.Config, c.Threads, c.PredictedEncMBs, written)
	warn(c)
	return nil
}

func warn(c arc.Choice) {
	if c.OverBudget {
		fmt.Println("arc: warning: no configuration fit the memory budget; using the closest above it")
	}
	if c.UnderThroughput {
		fmt.Println("arc: warning: predicted throughput misses the requested bound")
	}
}

func cmdDecode(args []string) (err error) {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	out := fs.String("out", "", "output file")
	threads := fs.Int("threads", arc.AnyThreads, "maximum threads (0 = all)")
	pipeline := fs.Int("pipeline", 0, "chunks decoded concurrently (1 = sequential, 0 = auto)")
	rng := fs.String("range", "", "decode only FIRST:COUNT original bytes (v2 archives seek; v1 scan)")
	prof := profiling.AddFlags(fs)
	_ = fs.Parse(args) // flag.ExitOnError: Parse exits instead of returning
	if *in == "" || *out == "" {
		return errors.New("decode: -in and -out are required")
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProfile(stopProf, &err)
	if *rng != "" {
		return decodeRange(*in, *out, *rng, *threads, *pipeline)
	}
	// The streaming reader handles both single containers and chunked
	// streams; on uncorrectable damage, everything before the bad chunk
	// has already been written (best effort), matching arc_decode.
	rep, err := arc.DecodeFileWith(*in, *out, *threads, arc.StreamOptions{Pipeline: *pipeline})
	if err != nil {
		if errors.Is(err, ecc.ErrUncorrectable) {
			return fmt.Errorf("uncorrectable damage detected (best-effort data written): %w", err)
		}
		return err
	}
	if rep.DetectedBlocks > 0 {
		fmt.Printf("arc: repaired %d block(s) (%d bit corrections)\n", rep.CorrectedBlocks, rep.CorrectedBits)
	}
	return nil
}

// decodeRange serves `arc decode -range FIRST:COUNT`: it decodes only
// the chunks covering the requested original-byte window and writes
// those bytes to out. Indexed (v2) archives seek straight to the
// covering chunks; v1 streams fall back to a header scan.
func decodeRange(in, out, spec string, threads, pipeline int) error {
	first, count, err := parseRange(spec)
	if err != nil {
		return err
	}
	r, err := arc.OpenFileReaderAt(in, arc.RangeOptions{Workers: threads, Pipeline: pipeline})
	if err != nil {
		return err
	}
	defer r.Close()
	buf := make([]byte, count)
	got, rep, err := r.ReadRange(buf, first, count)
	if err != nil && err != io.EOF {
		if errors.Is(err, ecc.ErrUncorrectable) {
			return fmt.Errorf("uncorrectable damage in the requested range: %w", err)
		}
		return err
	}
	if err := os.WriteFile(out, buf[:got], 0o644); err != nil {
		return err
	}
	mode := "indexed"
	if !r.Indexed() {
		mode = "scanned"
	}
	fmt.Printf("arc: wrote %d byte(s) at offset %d (%s, %d chunk(s) decoded)\n", got, first, mode, rep.Chunks)
	if rep.DetectedBlocks > 0 {
		fmt.Printf("arc: repaired %d block(s) (%d bit corrections)\n", rep.CorrectedBlocks, rep.CorrectedBits)
	}
	if int64(got) < count {
		fmt.Printf("arc: range ran past the end of the archive (%d bytes total)\n", r.Size())
	}
	return nil
}

// parseRange parses the FIRST:COUNT argument of -range.
func parseRange(spec string) (first, count int64, err error) {
	f, c, ok := strings.Cut(spec, ":")
	if ok {
		first, err = strconv.ParseInt(f, 10, 64)
		if err == nil {
			count, err = strconv.ParseInt(c, 10, 64)
		}
	}
	if !ok || err != nil || first < 0 || count < 0 {
		return 0, 0, fmt.Errorf("decode: -range wants FIRST:COUNT (non-negative byte offsets), got %q", spec)
	}
	return first, count, nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	_ = fs.Parse(args) // flag.ExitOnError: Parse exits instead of returning
	if *in == "" {
		return errors.New("inspect: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	infos, ierr := arc.InspectStream(f)
	totalOrig, totalEnc, totalHdr := 0, 0, 0
	for i, ci := range infos {
		fmt.Printf("chunk %d: %s, %d -> %d bytes\n", i, ci.Config, ci.OrigLen, ci.EncLen)
		totalOrig += ci.OrigLen
		totalEnc += ci.EncLen
		totalHdr += ci.HeaderLen
	}
	fmt.Printf("chunks:        %d\n", len(infos))
	fmt.Printf("original size: %d bytes\n", totalOrig)
	fmt.Printf("encoded size:  %d bytes (%d payload + %d header)\n", totalEnc+totalHdr, totalEnc, totalHdr)
	if ierr != nil {
		fmt.Printf("status:        DAMAGED (%v)\n", ierr)
		return nil
	}
	fmt.Printf("status:        headers ok (run decode to verify payloads)\n")
	return nil
}

func parseMethod(s string) (ecc.Method, error) {
	switch s {
	case "parity":
		return arc.Parity, nil
	case "hamming":
		return arc.Hamming, nil
	case "secded":
		return arc.SECDED, nil
	case "rs", "reed-solomon", "reedsolomon":
		return arc.ReedSolomon, nil
	default:
		return 0, fmt.Errorf("unknown ECC method %q", s)
	}
}

func cmdVerify(args []string) (err error) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	threads := fs.Int("threads", arc.AnyThreads, "maximum threads (0 = all)")
	pipeline := fs.Int("pipeline", 0, "chunks verified concurrently (1 = sequential, 0 = auto)")
	prof := profiling.AddFlags(fs)
	_ = fs.Parse(args) // flag.ExitOnError: Parse exits instead of returning
	if *in == "" {
		return errors.New("verify: -in is required")
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProfile(stopProf, &err)
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r := arc.NewReaderWith(f, *threads, arc.StreamOptions{Pipeline: *pipeline})
	defer r.Close()
	_, cerr := io.Copy(io.Discard, r)
	rep := r.Report()
	fmt.Printf("chunks:    %d\n", rep.Chunks)
	fmt.Printf("detected:  %d block(s)\n", rep.DetectedBlocks)
	fmt.Printf("corrected: %d block(s) (%d bit corrections)\n", rep.CorrectedBlocks, rep.CorrectedBits)
	fmt.Printf("digest:    %d chunk(s) the ECC passed and the digest refused\n", rep.DigestMismatches)
	if cerr != nil {
		return fmt.Errorf("verification FAILED: %w", cerr)
	}
	if rep.DetectedBlocks > 0 {
		fmt.Println("status:    CORRECTABLE damage present — re-encode recommended")
	} else {
		fmt.Println("status:    clean")
	}
	return nil
}
