package experiments

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/faultinject"
	"repro/internal/raceflag"
)

// tiny keeps experiment tests fast.
var tiny = StudyOptions{Scale: 1, MaxTrials: 60, Seed: 3, Workers: 1}

func TestFig1(t *testing.T) {
	r, err := Fig1(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trials) == 0 {
		t.Fatal("no completed trials")
	}
	// Severity must vary by location: the worst trial well above the best.
	lo := r.Trials[0].PercentIncorrect
	hi := r.Trials[len(r.Trials)-1].PercentIncorrect
	if hi < lo+5 {
		t.Fatalf("expected location-dependent severity, got range [%.2f, %.2f]", lo, hi)
	}
	// Severe cases corrupt large fractions (paper: up to 99.4%).
	if hi < 20 {
		t.Fatalf("worst case only %.1f%% incorrect; expected severe corruption", hi)
	}
	var buf bytes.Buffer
	if err := r.Table().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("table must carry the figure title")
	}
}

func TestFig2ShapeClaims(t *testing.T) {
	r, err := Fig2(StudyOptions{Scale: 1, MaxTrials: 60, Seed: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 15 {
		t.Fatalf("%d cells, want 5 compressors x 3 datasets", len(r.Cells))
	}
	// Paper shape 1: the majority of trials complete.
	if avg := r.AverageCompleted(); avg < 60 {
		t.Fatalf("average completed %.1f%%, expected a dominant majority", avg)
	}
	// Paper shape 2: ZFP-Rate rows complete ~100% (fixed-size blocks).
	for _, c := range r.Cells {
		if c.Compressor == "ZFP-Rate" && c.Percent[faultinject.Completed] < 90 {
			t.Fatalf("ZFP-Rate/%s completed only %.1f%%", c.Dataset, c.Percent[faultinject.Completed])
		}
	}
	var buf bytes.Buffer
	if err := r.Table().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ZFP-Rate") {
		t.Fatal("table missing rows")
	}
}

func TestFig3ShapeClaims(t *testing.T) {
	r, err := Fig3(StudyOptions{Scale: 1, MaxTrials: 120, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig3Series{}
	for _, s := range r.Series {
		byName[s.Compressor] = s
	}
	// Paper shape: variable-length modes average >> ZFP-Rate's, and
	// ZFP-Rate stays within one block (<= 16 elements in 2D).
	rate := byName["ZFP-Rate"]
	for _, p := range rate.Points {
		if p.Elements > 16 {
			t.Fatalf("ZFP-Rate trial corrupted %d elements", p.Elements)
		}
	}
	for _, name := range []string{"SZ-ABS", "ZFP-ACC"} {
		s := byName[name]
		if s.MeanPercent < 1 {
			t.Fatalf("%s mean %.2f%%: expected substantial propagation", name, s.MeanPercent)
		}
		if s.MeanPercent <= rate.MeanPercent {
			t.Fatalf("%s must propagate more than ZFP-Rate", name)
		}
	}
}

func TestFig6(t *testing.T) {
	r, err := Fig6([]int{1, 2}, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatal("want 2 rows")
	}
	if r.Rows[1].Configs <= r.Rows[0].Configs {
		t.Fatal("more threads must train more configurations")
	}
	var buf bytes.Buffer
	if err := r.Table().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("bad table")
	}
}

func TestFig89ShapeClaims(t *testing.T) {
	// Best encode throughput per configuration over three sweeps: one
	// sweep is a handful of 1 MiB timings, and a neighbouring test
	// binary taking the core for a millisecond moves any one of them.
	enc := map[string]float64{}
	for sweep := 0; sweep < 3; sweep++ {
		r, err := Fig89([]int{1}, 1<<20, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			enc[row.Config] = max(enc[row.Config], row.EncMBs)
		}
	}
	// Paper shape: parity >> hamming/secded >> RS on encode. The two
	// structural gaps are against Reed-Solomon, whose encode is GF(256)
	// multiplies where the others are XORs and table lookups; they are
	// strict. The race detector instruments the pure-Go parity and
	// SEC-DED kernels and not the GF(256) assembly, so under it these
	// two comparisons would measure the detector.
	if !raceflag.Enabled {
		if !(enc["parity8"] > enc["rs-m15"]) {
			t.Fatalf("parity (%.0f) must out-encode RS (%.0f)", enc["parity8"], enc["rs-m15"])
		}
		if !(enc["secded64"] > enc["rs-m15"]) {
			t.Fatalf("secded (%.0f) must out-encode RS (%.0f)", enc["secded64"], enc["rs-m15"])
		}
	}
	// Parity over SEC-DED is not structural here: both are AVX2
	// kernels that move the data once, 11-16 GB/s each at this 1 MiB on
	// the 2-vCPU host and inside each other's noise (results/scale.txt,
	// at 4 MiB: parity8 0.85-1.64x secded64 over 1-4 threads). Require
	// only that parity is not clearly slower: within a 25 % band of
	// SEC-DED.
	const noiseBand = 0.25
	if enc["parity8"] < (1-noiseBand)*enc["secded64"] {
		t.Fatalf("parity (%.0f) encodes more than %.0f%% below secded (%.0f)",
			enc["parity8"], 100*noiseBand, enc["secded64"])
	}
	t.Logf("encode MB/s: parity8 %.0f secded64 %.0f rs-m15 %.0f", enc["parity8"], enc["secded64"], enc["rs-m15"])
}

func TestFig10ShapeClaims(t *testing.T) {
	r, err := Fig10([]int{1}, 1<<20, []int{1, 20000}, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec := map[string]map[int]float64{}
	for _, row := range r.Rows {
		if dec[row.Config] == nil {
			dec[row.Config] = map[int]float64{}
		}
		dec[row.Config][row.Errors] = row.DecMBs
	}
	// Heavy error load must slow Reed-Solomon sharply: 20k errors put
	// 15 corrupt data devices into every stripe, and their syndromes
	// cost about what encoding the stripe did, on top of the CRC scan
	// that is all a clean decode pays. (One error no longer shows: it
	// is a 1x1 solve in one stripe — the deviation from the paper's
	// Figure 10 that EXPERIMENTS.md records.) How far Hamming and
	// SEC-DED drop depends on how fast their clean decode is (≈ 6x for
	// secded64 at 100k errors with the AVX2 kernel, ≈ 2x on the table
	// path); only require they never speed up beyond noise.
	rs := dec["rs-m15"]
	if rs[20000] >= rs[1]/2 {
		t.Fatalf("RS under 20k errors decoded %.1f MB/s vs %.1f clean; expected a sharp drop", rs[20000], rs[1])
	}
	for cfg, m := range dec {
		if m[20000] > m[1]*2 {
			t.Fatalf("%s: error load speeding decode up (%.1f vs %.1f) is implausible", cfg, m[20000], m[1])
		}
	}
}

func TestFig11ConstraintTracking(t *testing.T) {
	r, err := Fig11(2, 1, 8, []float64{0.05, 0.2, 0.5, 0.9}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, row := range r.MemRows {
		if row.ChoiceOverhead > row.TargetOverhead {
			t.Fatalf("target %.2f: choice overhead %.3f over budget", row.TargetOverhead, row.ChoiceOverhead)
		}
		if row.ChoiceOverhead < prev {
			t.Fatal("overhead must be non-decreasing in the budget")
		}
		prev = row.ChoiceOverhead
	}
	// A 0.9 budget must buy much more protection than 0.05.
	if r.MemRows[3].ChoiceOverhead < 10*r.MemRows[0].ChoiceOverhead {
		t.Fatalf("budget scaling too flat: %.3f vs %.3f",
			r.MemRows[0].ChoiceOverhead, r.MemRows[3].ChoiceOverhead)
	}
	var buf bytes.Buffer
	if err := r.Table().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.BWTable().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Fatal("bad tables")
	}
}

// TestHonestyConstraintsKept is the constraint-honesty gate: what
// EncodeFileWith stores stays within the budget whenever the choice does
// not say OverBudget (deterministic, always checked), and what it
// achieves is at least half the bound whenever the choice does not say
// UnderThroughput (timed, median of 3 on 16 MiB; the shared VM forbids
// a tighter gate, and -short and -race runs skip it along with the
// bounded requests, whose walk down the overhead levels measures the
// table codes the race detector slows fifty-fold).
func TestHonestyConstraintsKept(t *testing.T) {
	timed := !testing.Short() && !raceflag.Enabled
	size, reps, bws := 16<<20, 3, []float64{core.AnyBW, 25, 60}
	if !timed {
		size, reps, bws = 1<<20, 1, bws[:1]
	}
	r, err := Honesty(2, size, reps, bws)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Table().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if want := len(honestyResiliencies) * len(honestyMems) * len(bws); len(r.Rows) != want {
		t.Fatalf("grid has %d rows, want %d", len(r.Rows), want)
	}
	for _, row := range r.Rows {
		if !row.Kept(timed) {
			t.Errorf("res=%s mem=%g bw=%g: %s x%d stored %.4f over plain at %.1f MB/s (over=%v under=%v)",
				row.Res, row.Mem, row.BW, row.Config, row.Threads, row.RealizedOverhead, row.AchievedMBs,
				row.OverBudget, row.UnderThroughput)
		}
	}
	if t.Failed() {
		t.Log("\n" + buf.String())
	}
}

func TestFig12StepFunctions(t *testing.T) {
	r, err := Fig12(1, 1, 9, []float64{0.05, 0.11, 0.2, 0.63, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Hamming has exactly two plateaus in the space (10.9% and 50%).
	seen := map[string]map[float64]bool{}
	for _, row := range r.MemRows {
		if seen[row.Method] == nil {
			seen[row.Method] = map[float64]bool{}
		}
		seen[row.Method][row.TrueOverhead] = true
	}
	if n := len(seen["ARC_HAMMING"]); n > 2 {
		t.Fatalf("hamming showed %d plateaus, want <= 2 (step function)", n)
	}
	if n := len(seen["ARC_RS"]); n < 4 {
		t.Fatalf("RS showed only %d levels; should track targets nearly continuously", n)
	}
}

func TestSec63AllCorrected(t *testing.T) {
	rows, err := Sec63(1, 1, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 datasets, got %d", len(rows))
	}
	for _, r := range rows {
		if !strings.HasPrefix(r.Config, "secded") {
			t.Fatalf("%s: config %s, want secded (1 err/MB)", r.Dataset, r.Config)
		}
		if r.Corrected != r.Trials {
			t.Fatalf("%s: corrected %d/%d; ARC must fix every single flip", r.Dataset, r.Corrected, r.Trials)
		}
		if !r.BurstCorrected {
			t.Fatalf("%s: burst not corrected by %s", r.Dataset, r.BurstConfig)
		}
	}
	var buf bytes.Buffer
	if err := Sec63Table(rows).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Section 6.3") {
		t.Fatal("bad table")
	}
}

func TestSec64Report(t *testing.T) {
	r := Sec64()
	if len(r.Recs) != 2 {
		t.Fatal("want Cielo and Hopper")
	}
	var buf bytes.Buffer
	if err := r.Table().Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Cielo", "Hopper", "1.90", "5.43"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Caption: "c"}
	tab.AddRow("xxx", "y")
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T ==", "xxx", "bb", "c"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestMatrixPatternsCodeCRC holds every configuration's code to its
// CRC contract under the matrix's payload fault patterns, the way the
// chunk codec runs it: the CRC DecodeTo returns is that of the bytes
// it returns, whatever they are, so the chunk digest built from it
// sees what a separate pass over them would. The patterns include
// miscorrections (three flips in a Hamming codeword), which must occur.
func TestMatrixPatternsCodeCRC(t *testing.T) {
	const trials = 40
	payload := randomBytes(6<<10, 17)
	miscorrected := 0
	for _, cfg := range core.AllConfigs() {
		code, err := cfg.BuildWithDeviceSize(1, cfg.DeviceSizeFor(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		enc, crc := code.EncodeTo(nil, payload, nil)
		if crc != crc32.Checksum(payload, ecc.Castagnoli) {
			t.Fatalf("%s: EncodeTo's CRC is not the data's", cfg)
		}
		for _, inj := range faultinject.Patterns() {
			faultinject.RunRepairCampaign(enc, payload, inj, func(mut []byte) ([]byte, error) {
				out, crc, _, err := code.DecodeTo(nil, mut, len(payload), nil)
				if crc != crc32.Checksum(out, ecc.Castagnoli) {
					t.Fatalf("%s/%s: DecodeTo's CRC is not its output's (err %v)", cfg, inj.Name(), err)
				}
				if err == nil && !bytes.Equal(out, payload) {
					miscorrected++
				}
				return out, err
			}, trials, 19)
		}
	}
	if miscorrected == 0 {
		t.Error("no pattern produced a miscorrection")
	}
}

// TestExtResilienceMatrix is the "never silently wrong" gate: every
// configuration, every fault pattern, 300 trials a cell, and not one
// decode may return wrong bytes without an error.
func TestExtResilienceMatrix(t *testing.T) {
	const trials = 300
	r, err := ExtResilienceMatrix(2<<10, trials, 11)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(core.AllConfigs()) * 9; len(r.Rows) != want {
		t.Fatalf("%d cells, want %d", len(r.Rows), want)
	}
	cell := func(cfg, inj string) ExtMatrixRow {
		for _, row := range r.Rows {
			if row.Config == cfg && row.Injector == inj {
				return row
			}
		}
		t.Fatalf("missing cell %s/%s", cfg, inj)
		return ExtMatrixRow{}
	}
	for _, row := range r.Rows {
		if row.Trials != trials || row.Recovered+row.Detected+row.Silent != trials || row.Digest > row.Detected {
			t.Errorf("%s/%s: verdicts do not add up: %+v", row.Config, row.Injector, row)
		}
		if row.Silent != 0 {
			t.Errorf("%s/%s: %d SILENT corruptions", row.Config, row.Injector, row.Silent)
		}
		// A chunk moved in its stream decodes cleanly; only its digest
		// knows it is out of place.
		if (row.Injector == "duplicated" || row.Injector == "reordered") && row.Digest != trials {
			t.Errorf("%s/%s: digest caught %d of %d", row.Config, row.Injector, row.Digest, trials)
		}
	}
	// Parity detects what lands in the payload; the header votes.
	if p := cell("parity8", "single-bit"); p.Detected == 0 || p.Digest != 0 {
		t.Errorf("parity single-bit: %+v", p)
	}
	// SEC-DED and RS repair every single flip, header included.
	for _, cfg := range []string{"secded64", "rs-m15"} {
		if s := cell(cfg, "single-bit"); s.Recovered != trials {
			t.Errorf("%s single-bit: %+v", cfg, s)
		}
	}
	// Hamming miscorrects three flips in one byte; the digest catches it.
	if h := cell("hamming64", "burst-1B"); h.Digest == 0 {
		t.Errorf("hamming64 burst-1B: nothing for the digest to catch: %+v", h)
	}
	var buf bytes.Buffer
	if err := r.Table().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "recovery matrix") || !strings.Contains(buf.String(), "caught by digest") {
		t.Fatal("bad table")
	}
}

func TestExtMatrixInterleavedSECDED(t *testing.T) {
	r, err := ExtResilienceMatrix(64<<10, 30, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// Interleaved SEC-DED recovers singles AND 64-byte bursts, as RS
		// does at its full device size.
		if row.Config != "ilsecded256" && (row.Config != "rs-m15" || row.Injector != "burst-64B") {
			continue
		}
		if (row.Injector == "single-bit" || row.Injector == "burst-64B") && row.Recovered != row.Trials {
			t.Fatalf("%s %s: %+v", row.Config, row.Injector, row)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}, Caption: "ignored in csv"}
	tab.AddRow("x,y", "2")
	tab.AddRow("plain", "3")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",2\nplain,3\n"
	if buf.String() != want {
		t.Fatalf("csv:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestExtCrossover(t *testing.T) {
	r, err := ExtCrossover(128<<10, 10, 14)
	if err != nil {
		t.Fatal(err)
	}
	get := func(cfg string, bs int) ExtCrossoverRow {
		for _, row := range r.Rows {
			if row.Config == cfg && row.BurstBytes == bs {
				return row
			}
		}
		t.Fatalf("missing %s/%d", cfg, bs)
		return ExtCrossoverRow{}
	}
	// ilsecded64 recovers <=64-byte bursts, fails 4096-byte ones.
	if row := get("ilsecded64", 16); row.Recovered != row.Trials {
		t.Fatalf("ilsecded64/16B: %+v", row)
	}
	if row := get("ilsecded64", 4096); row.Recovered != 0 {
		t.Fatalf("ilsecded64/4096B should fail: %+v", row)
	}
	// ilsecded1024 covers 512-byte bursts.
	if row := get("ilsecded1024", 512); row.Recovered != row.Trials {
		t.Fatalf("ilsecded1024/512B: %+v", row)
	}
	// RS m=15 with adaptive... here default 1024-byte devices: a
	// 4096-byte burst spans at most 5 devices < 15 -> recovered.
	if row := get("rs-m15", 4096); row.Recovered != row.Trials {
		t.Fatalf("rs-m15/4096B: %+v", row)
	}
	// The cheap method is cheaper than like-for-like RS protection.
	if get("ilsecded1024", 16).Overhead >= get("rs-m64", 16).Overhead {
		t.Fatal("ilsecded must undercut heavy RS overhead")
	}
	var buf bytes.Buffer
	if err := r.Table().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crossover") {
		t.Fatal("bad table")
	}
}

func TestFig5AllDatasets(t *testing.T) {
	r, err := Fig5(StudyOptions{Scale: 1, MaxTrials: 30, Seed: 15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 15 {
		t.Fatalf("%d rows, want 5 modes x 3 datasets", len(r.Rows))
	}
	seen := map[string]bool{}
	for _, row := range r.Rows {
		seen[row.Dataset] = true
	}
	if len(seen) != 3 {
		t.Fatalf("datasets %v", seen)
	}
	var buf bytes.Buffer
	if err := r.Table().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NYX-T") {
		t.Fatal("table missing dataset column")
	}
}
