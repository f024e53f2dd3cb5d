package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/service"
)

// writeRangeArchive writes size random bytes to dir as plain.bin and as
// the indexed SEC-DED archive data.arc, and returns the plaintext path.
func writeRangeArchive(t *testing.T, dir string, size int) string {
	t.Helper()
	plain := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(plain)
	plainPath := filepath.Join(dir, "plain.bin")
	if err := os.WriteFile(plainPath, plain, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "data.arc"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cw, err := new(core.Engine).NewChunkWriterChoice(f,
		core.Choice{Config: core.Config{Method: ecc.MethodSECDED, Param: 64}, Threads: 1},
		core.StreamOptions{ChunkSize: 32 << 10, Pipeline: 1, Indexed: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return plainPath
}

// TestArcloadAgainstLiveServer runs the harness end to end against an
// in-process arcd serving a root archive, with fault injection and
// ranged reads in one mix, and checks the JSON result carries a clean
// integrity verdict.
func TestArcloadAgainstLiveServer(t *testing.T) {
	root := t.TempDir()
	plainPath := writeRangeArchive(t, root, 256<<10)
	s := service.New(service.Config{Workers: 2, Root: root, CacheBytes: 96 << 10})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }() // workload completes before this

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out, errw bytes.Buffer
	err = run(ctx, []string{
		"-addr", addr.String(),
		"-clients", "3",
		"-requests", "25",
		"-max-size", "8192",
		"-corrupt", "0.5",
		"-seed", "11",
		"-range-archive", "data.arc",
		"-range-file", plainPath,
		"-range-ratio", "0.3",
	}, &out, &errw)
	if err != nil {
		t.Fatalf("arcload: %v\n%s", err, errw.String())
	}

	var res service.WorkloadResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("stdout is not a workload result: %v", err)
	}
	if res.Requests != 75 || res.RangeReads == 0 || res.Errors != 0 || res.SilentMismatches != 0 {
		t.Fatalf("workload result: %+v", res)
	}
	if v := res.CorruptedTotal(); v.Repaired == 0 || v.Reported == 0 || v.Silent != 0 {
		t.Fatalf("fault injection verdicts: %+v", res.Corrupted)
	}
	if !strings.Contains(errw.String(), "req/s") || !strings.Contains(errw.String(), "silent mismatches 0") {
		t.Fatalf("summary missing from stderr:\n%s", errw.String())
	}
}

func TestArcloadBadFlagsAndDeadServer(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out, &errw); err == nil {
		t.Fatal("bad flag accepted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Nothing listens on a fresh ephemeral-range port 1 — the dial must
	// fail loudly, not hang or report a healthy empty run.
	if err := run(ctx, []string{"-addr", "127.0.0.1:1", "-clients", "1", "-requests", "1"}, &out, &errw); err == nil {
		t.Fatal("dead server produced a successful run")
	}
}
