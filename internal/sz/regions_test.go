package sz

import (
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

func TestRegionsRoundTrip(t *testing.T) {
	data, dims := smoothField2D(64, 48, 200)
	for _, regions := range []int{1, 2, 3, 7, 64, 100} {
		buf, err := CompressRegions(data, dims, Options{Mode: ModeABS, ErrorBound: 0.01}, regions, 2)
		if err != nil {
			t.Fatalf("regions=%d: %v", regions, err)
		}
		got, gotDims, err := DecompressRegions(buf, 2)
		if err != nil {
			t.Fatalf("regions=%d: %v", regions, err)
		}
		if gotDims[0] != dims[0] || gotDims[1] != dims[1] {
			t.Fatalf("regions=%d: dims %v", regions, gotDims)
		}
		if i := metrics.VerifyBound(data, got, metrics.BoundAbs, 0.01); i != -1 {
			t.Fatalf("regions=%d: bound violated at %d", regions, i)
		}
	}
}

func TestRegionsParallelMatchesSerial(t *testing.T) {
	data, dims := smoothField2D(48, 32, 201)
	serial, err := CompressRegions(data, dims, Options{Mode: ModeABS, ErrorBound: 0.01}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompressRegions(data, dims, Options{Mode: ModeABS, ErrorBound: 0.01}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatal("parallel output differs")
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatal("parallel output differs")
		}
	}
}

func TestRegionsDecompressPlainStream(t *testing.T) {
	data, dims := smoothField2D(16, 16, 202)
	buf, err := Compress(data, dims, Options{Mode: ModeABS, ErrorBound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecompressRegions(buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if i := metrics.VerifyBound(data, got, metrics.BoundAbs, 0.1); i != -1 {
		t.Fatal("plain stream via region decoder violated bound")
	}
}

func TestRegionsLimitErrorPropagation(t *testing.T) {
	// The resiliency angle: a flip in one region cannot corrupt rows
	// belonging to other regions.
	data, dims := smoothField2D(64, 64, 203)
	buf, err := CompressRegions(data, dims, Options{Mode: ModeABS, ErrorBound: 0.001}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean, _, err := DecompressRegions(buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(204))
	rowsPerRegion := 64 / 8
	sawContained := 0
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), buf...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 0x80 >> (bit % 8)
		got, gotDims, err := DecompressRegions(mut, 1)
		if err != nil || len(got) != len(clean) || gotDims[0] != 64 {
			continue // exception or reshape: not silent corruption
		}
		// Find which rows changed.
		minRow, maxRow := 65, -1
		for i := range got {
			if got[i] != clean[i] {
				row := i / 64
				if row < minRow {
					minRow = row
				}
				if row > maxRow {
					maxRow = row
				}
			}
		}
		if maxRow == -1 {
			continue // masked flip
		}
		if maxRow-minRow < rowsPerRegion {
			sawContained++
		}
		// Corruption must never span more than one region's rows.
		if minRow/rowsPerRegion != maxRow/rowsPerRegion {
			t.Fatalf("trial %d: corruption spans regions (rows %d-%d)", trial, minRow, maxRow)
		}
	}
	if sawContained == 0 {
		t.Fatal("no trial demonstrated contained corruption")
	}
}

func TestRegionsGarbage(t *testing.T) {
	if _, _, err := DecompressRegions([]byte("SZR1xxxx"), 1); err == nil {
		t.Fatal("garbage region stream must fail")
	}
	if _, _, err := DecompressRegions([]byte("SZR1"), 1); err == nil {
		t.Fatal("truncated region count must fail")
	}
	// Implausible region count.
	bad := append([]byte("SZR1"), 0xFF, 0xFF, 0xFF, 0xFF)
	if _, _, err := DecompressRegions(bad, 1); err == nil {
		t.Fatal("huge region count must fail")
	}
}
