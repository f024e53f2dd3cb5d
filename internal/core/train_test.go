package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ecc"
)

func TestTrainerCacheCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	tr := &Trainer{CacheDir: dir, SampleBytes: 16 << 10}
	table, n, err := tr.Train(tr.LoadCache(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("fresh trainer must measure")
	}
	if err := tr.SaveCache(table); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "train-cache.json")
	// Corrupt the cache: load must fall back to empty, not crash.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := tr.LoadCache(); len(got.Entries) != 0 {
		t.Fatal("corrupt cache must load as empty")
	}
	// A cache with mismatched sample size is also ignored.
	other := &Trainer{CacheDir: dir, SampleBytes: 32 << 10}
	if err := other.SaveCache(table); err == nil {
		// table says 16 KiB; saving under 32 KiB trainer is caller
		// misuse, but LoadCache's guard is what we verify:
		if got := other.LoadCache(); len(got.Entries) != 0 {
			t.Fatal("sample-size mismatch must invalidate the cache")
		}
	}
}

func TestTrainerNoPersistence(t *testing.T) {
	tr := &Trainer{SampleBytes: 8 << 10} // no cache dir
	table, _, err := tr.Train(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveCache(table); err != nil {
		t.Fatal("SaveCache without a dir must be a no-op")
	}
	if got := tr.LoadCache(); len(got.Entries) != 0 {
		t.Fatal("no-dir LoadCache must be empty")
	}
}

func TestTrainTableLookup(t *testing.T) {
	table := &TrainTable{Entries: []TrainEntry{
		{Config: "parity8", Threads: 1, EncMBs: 10},
		{Config: "parity8", Threads: 4, EncMBs: 40},
		{Config: "secded64", Threads: 1, EncMBs: 5},
	}}
	if e, ok := table.Lookup("parity8", 4); !ok || e.EncMBs != 40 {
		t.Fatalf("lookup: %+v %v", e, ok)
	}
	if _, ok := table.Lookup("parity8", 2); ok {
		t.Fatal("missing point must not resolve")
	}
}

func TestTrainIsIncremental(t *testing.T) {
	tr := &Trainer{SampleBytes: 8 << 10}
	table, n1, err := tr.Train(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Re-train at the same cap: nothing to measure.
	table, n2, err := tr.Train(table, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Fatalf("second train measured %d points", n2)
	}
	// Raising the cap adds exactly one tier.
	_, n3, err := tr.Train(table, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n3 != n1 {
		t.Fatalf("tier 2 measured %d points, want %d (one tier)", n3, n1)
	}
}

func TestTrainingSampleDeterministic(t *testing.T) {
	a := trainingSample(1024)
	b := trainingSample(1024)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training sample must be deterministic")
		}
	}
}

// TestTrainMeasureRunsTheChunkCodec: what measure times is a real
// round trip, and a code that hands back other bytes than it was given
// is refused rather than rated.
func TestTrainMeasureRunsTheChunkCodec(t *testing.T) {
	for _, cfg := range []Config{{ecc.MethodSECDED, 64}, {ecc.MethodReedSolomon, 15}} {
		enc, dec, err := measure(cfg, 2, 64<<10)
		if err != nil || enc <= 0 || dec <= 0 {
			t.Fatalf("%s: %.1f / %.1f MB/s, %v", cfg, enc, dec, err)
		}
	}
	lossy := tripleMethod
	lossy.ID, lossy.Name = CustomMethodBase+1, "lossy"
	lossy.Build = func(param, workers, devSize int) (ecc.Code, error) { return lossyCode{}, nil }
	if err := RegisterCustomMethod(lossy); err != nil {
		t.Fatal(err)
	}
	defer UnregisterCustomMethod(lossy.ID)
	_, _, err := measure(Config{Method: lossy.ID, Param: 1}, 1, 4<<10)
	if err == nil || !strings.Contains(err.Error(), "training decode failed") {
		t.Fatalf("a decode that changes the bytes must fail training, got %v", err)
	}
}

// lossyCode decodes without error to bytes that are not the input.
type lossyCode struct{ triplicate }

func (c lossyCode) Decode(enc []byte, origLen int) ([]byte, ecc.Report, error) {
	out, rep, err := c.triplicate.Decode(enc, origLen)
	if len(out) > 0 {
		out[len(out)/2] ^= 1
	}
	return out, rep, err
}

// rewriteCache edits the cache file's JSON in place.
func rewriteCache(t *testing.T, path string, edit func(m map[string]any)) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheIdentityMismatchDiscarded: a table is trusted only under
// the format version, fingerprint and sample size it was written with.
func TestCacheIdentityMismatchDiscarded(t *testing.T) {
	fp := func(m map[string]any) map[string]any { return m["fingerprint"].(map[string]any) }
	edits := map[string]func(m map[string]any){
		"version":        func(m map[string]any) { m["version"] = cacheVersion + 1 },
		"old format":     func(m map[string]any) { delete(m, "version"); delete(m, "fingerprint") },
		"goarch":         func(m map[string]any) { fp(m)["goarch"] = "other" },
		"gf256 tier":     func(m map[string]any) { fp(m)["gf256_tier"] = "other" },
		"cpu features":   func(m map[string]any) { fp(m)["cpu_features"] = "other" },
		"codec revision": func(m map[string]any) { fp(m)["codec_revision"] = codecRevision - 1 },
		"sample size":    func(m map[string]any) { m["sample_bytes"] = 8 << 10 },
	}
	for name, edit := range edits {
		dir := t.TempDir()
		tr := &Trainer{CacheDir: dir, SampleBytes: 4 << 10}
		table := tr.newTable()
		if _, _, err := tr.point(table, Config{ecc.MethodParity, 8}, 1); err != nil {
			t.Fatal(err)
		}
		if err := tr.SaveCache(table); err != nil {
			t.Fatal(err)
		}
		if got := tr.LoadCache(); len(got.Entries) != 1 {
			t.Fatalf("%s: untouched cache loads %d entries, want 1", name, len(got.Entries))
		}
		rewriteCache(t, filepath.Join(dir, "train-cache.json"), edit)
		got := tr.LoadCache()
		if len(got.Entries) != 0 {
			t.Fatalf("%s changed: cache must be discarded, loaded %d entries", name, len(got.Entries))
		}
		if !got.comparable(tr.newTable()) {
			t.Fatalf("%s changed: the replacement table is not stamped for this host", name)
		}
		// Saving over a discarded file replaces it, it does not merge.
		if err := tr.SaveCache(got); err != nil {
			t.Fatal(err)
		}
		if got := tr.LoadCache(); len(got.Entries) != 0 {
			t.Fatalf("%s changed: incomparable points survived a save", name)
		}
	}
}

// TestCacheSaveMergesAndLeavesNoTemp: savers sharing a directory add to
// each other's partial tables, the saver's own measurement wins, and no
// temp file outlives a save — failed or not.
func TestCacheSaveMergesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	tr := &Trainer{CacheDir: dir, SampleBytes: 4 << 10}
	a, b := tr.newTable(), tr.newTable()
	a.Entries = []TrainEntry{{Config: "parity8", Threads: 1, EncMBs: 1}, {Config: "secded64", Threads: 1, EncMBs: 2}}
	b.Entries = []TrainEntry{{Config: "secded64", Threads: 1, EncMBs: 3}, {Config: "rs-m15", Threads: 2, EncMBs: 4}}
	if err := tr.SaveCache(a); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveCache(b); err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 2 {
		t.Fatal("SaveCache must not grow the caller's table")
	}
	got := tr.LoadCache()
	want := []TrainEntry{{Config: "parity8", Threads: 1, EncMBs: 1}, {Config: "rs-m15", Threads: 2, EncMBs: 4}, {Config: "secded64", Threads: 1, EncMBs: 3}}
	if len(got.Entries) != len(want) {
		t.Fatalf("merged cache holds %+v, want %+v", got.Entries, want)
	}
	for i := range want {
		if got.Entries[i] != want[i] {
			t.Fatalf("merged cache holds %+v, want %+v", got.Entries, want)
		}
	}
	// A save that cannot finish (the target is a directory) reports it
	// and cleans up after itself.
	blocked := &Trainer{CacheDir: filepath.Join(dir, "blocked"), SampleBytes: 4 << 10}
	if err := os.MkdirAll(filepath.Join(blocked.CacheDir, "train-cache.json", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := blocked.SaveCache(a); err == nil {
		t.Fatal("rename onto a non-empty directory must fail")
	}
	for _, d := range []string{dir, blocked.CacheDir} {
		names, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if n.Name() != "train-cache.json" && n.Name() != "blocked" {
				t.Fatalf("%s: stray file %q after save", d, n.Name())
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "train-cache.json"))
	if err != nil || !bytes.Contains(raw, []byte(`"codec_revision"`)) {
		t.Fatalf("cache file lacks its fingerprint: %v", err)
	}
}
