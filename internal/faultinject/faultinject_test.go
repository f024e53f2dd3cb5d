package faultinject

import (
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/pressio"
)

func TestFlipBit(t *testing.T) {
	buf := []byte{0x00, 0xFF}
	m := FlipBit(buf, 0)
	if m[0] != 0x80 {
		t.Fatalf("bit 0 flip: %#x", m[0])
	}
	if buf[0] != 0x00 {
		t.Fatal("FlipBit must not modify its input")
	}
	m = FlipBit(buf, 15)
	if m[1] != 0xFE {
		t.Fatalf("bit 15 flip: %#x", m[1])
	}
	// Double flip restores.
	m2 := FlipBit(FlipBit(buf, 7), 7)
	if m2[0] != buf[0] || m2[1] != buf[1] {
		t.Fatal("double flip must restore")
	}
}

func TestFlipBitOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out of range flip must panic")
		}
	}()
	FlipBit([]byte{0}, 8)
}

func TestFlipBitInPlace(t *testing.T) {
	buf := []byte{0}
	FlipBitInPlace(buf, 3)
	if buf[0] != 0x10 {
		t.Fatalf("got %#x", buf[0])
	}
}

func TestSampleBits(t *testing.T) {
	bits := sampleBits(1000, 100, 1)
	if len(bits) != 100 {
		t.Fatalf("sampled %d bits, want 100", len(bits))
	}
	for i := 1; i < len(bits); i++ {
		if bits[i] <= bits[i-1] {
			t.Fatal("samples must be strictly increasing (stratified)")
		}
	}
	if bits[0] >= 100 || bits[len(bits)-1] < 900 {
		t.Fatal("stratified sampling must cover the whole stream")
	}
	// Full coverage, uncapped or under a cap the stream does not reach.
	for _, maxTrials := range []int{0, 64, 1000} {
		if all := sampleBits(64, maxTrials, 1); len(all) != 64 {
			t.Fatalf("MaxTrials %d must test every bit of 64, got %d", maxTrials, len(all))
		}
	}
	if sampleBits(0, 0, 1) != nil {
		t.Fatal("zero-length stream must sample nothing")
	}
}

func TestStatusString(t *testing.T) {
	want := map[Status]string{
		Completed:           "Completed",
		CompressorException: "Compressor Exception",
		Terminated:          "Terminated",
		Timeout:             "Timeout",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d: %q", s, s.String())
		}
	}
	if len(Statuses()) != 4 {
		t.Fatal("Statuses must list all four")
	}
}

func TestCampaignSZ(t *testing.T) {
	f := datasets.CESM(32, 64, 9)
	c, err := pressio.New("SZ-ABS", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := Run(Config{
		Compressor: c,
		Data:       f.Data,
		Dims:       f.Dims,
		MaxTrials:  300,
		Seed:       1,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Trials) != 300 {
		t.Fatalf("ran %d trials", len(camp.Trials))
	}
	counts := camp.Counts()
	if counts[Completed] == 0 {
		t.Fatal("expected some Completed trials (the paper's SDC case)")
	}
	if counts[Completed] == len(camp.Trials) {
		t.Log("note: all trials completed; SZ streams usually throw some exceptions")
	}
	// Control decode must be clean.
	if camp.Control.IncorrectElements != 0 {
		t.Fatalf("control decode has %d incorrect elements", camp.Control.IncorrectElements)
	}
	if camp.Ratio <= 1 {
		t.Fatalf("compression ratio %.2f", camp.Ratio)
	}
	t.Logf("SZ-ABS: %d trials, %.1f%% completed", len(camp.Trials), camp.PercentByStatus(Completed))
}

func TestCampaignZFPRateAllComplete(t *testing.T) {
	f := datasets.CESM(32, 64, 10)
	c, err := pressio.New("ZFP-Rate", 8)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := Run(Config{
		Compressor: c,
		Data:       f.Data,
		Dims:       f.Dims,
		MaxTrials:  200,
		Seed:       2,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 100% of ZFP trials Completed. Header flips in our stream
	// can raise exceptions (the real study flips payload too), so only
	// require a dominant majority with zero crashes.
	if pc := camp.PercentByStatus(Completed); pc < 90 {
		t.Fatalf("ZFP-Rate completed only %.1f%%, want ~100%%", pc)
	}
	if camp.Counts()[Terminated] != 0 {
		t.Fatal("ZFP-Rate must never crash")
	}
	// Corruption stays within one block: incorrect counts tiny.
	for _, tr := range camp.Trials {
		if tr.Status == Completed && tr.Metrics.IncorrectElements > 16 {
			t.Fatalf("bit %d corrupted %d elements, want <= 16", tr.Bit, tr.Metrics.IncorrectElements)
		}
	}
}

func TestTimeoutClassification(t *testing.T) {
	// A compressor whose decode hangs must be classified Timeout.
	c := hangingCompressor{}
	res := sandboxDecode(c, []byte{1}, 30*time.Millisecond)
	if !res.timedOut {
		t.Fatal("expected timeout")
	}
}

func TestTerminatedClassification(t *testing.T) {
	c := panickyCompressor{}
	res := sandboxDecode(c, []byte{1}, 0)
	if res.panicked == nil {
		t.Fatal("expected panic capture")
	}
}

type hangingCompressor struct{}

func (hangingCompressor) Name() string { return "hang" }
func (hangingCompressor) Compress(d []float64, dims []int) ([]byte, error) {
	return []byte{1}, nil
}
func (hangingCompressor) Decompress(buf []byte) ([]float64, []int, error) {
	time.Sleep(10 * time.Second)
	return nil, nil, nil
}
func (hangingCompressor) Bound() float64                         { return 0.1 }
func (hangingCompressor) BoundsError() bool                      { return true }
func (hangingCompressor) WithBound(b float64) pressio.Compressor { return hangingCompressor{} }

type panickyCompressor struct{}

func (panickyCompressor) Name() string { return "panic" }
func (panickyCompressor) Compress(d []float64, dims []int) ([]byte, error) {
	return []byte{1}, nil
}
func (panickyCompressor) Decompress(buf []byte) ([]float64, []int, error) {
	panic("simulated crash")
}
func (panickyCompressor) Bound() float64                         { return 0.1 }
func (panickyCompressor) BoundsError() bool                      { return true }
func (panickyCompressor) WithBound(b float64) pressio.Compressor { return panickyCompressor{} }
