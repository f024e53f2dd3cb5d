package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/faultinject"
)

// Fig6Result reproduces Figure 6: ARC training cost and configuration
// count versus the maximum thread count.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6Row is one max-thread setting.
type Fig6Row struct {
	MaxThreads   int
	TrainSeconds float64
	Configs      int // (configuration, threads) points trained
}

// Fig6 trains fresh engines (no cache) at increasing thread caps. An
// engine measures on demand, so the full training the figure times is
// the completing Table call.
func Fig6(maxThreads []int, sampleBytes int) (*Fig6Result, error) {
	res := &Fig6Result{}
	for _, mt := range maxThreads {
		t0 := time.Now()
		eng, err := core.NewEngine(core.EngineOptions{MaxThreads: mt, CacheDir: "-", SampleBytes: sampleBytes})
		if err != nil {
			return nil, err
		}
		eng.Table()
		elapsed := time.Since(t0).Seconds()
		res.Rows = append(res.Rows, Fig6Row{
			MaxThreads:   mt,
			TrainSeconds: elapsed,
			Configs:      eng.TrainedPoints(),
		})
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Table renders the training-cost sweep.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:  "Figure 6: ARC training cost vs maximum threads",
		Header: []string{"max threads", "train time (s)", "configs trained"},
		Caption: "Paper shape: more threads -> more configurations trained, with\n" +
			"logarithmic time growth (each step adds one thread tier).",
	}
	for _, row := range r.Rows {
		t.AddRow(iS(row.MaxThreads), f2(row.TrainSeconds), iS(row.Configs))
	}
	return t
}

// scalingConfigs are the four ECC methods Figures 8-10 sweep, at the
// parameters the ARC engine defaults to for each family.
func scalingConfigs() []core.Config {
	return []core.Config{
		{Method: ecc.MethodParity, Param: 8},
		{Method: ecc.MethodHamming, Param: 64},
		{Method: ecc.MethodSECDED, Param: 64},
		{Method: ecc.MethodReedSolomon, Param: 15},
	}
}

// Fig89Result reproduces Figures 8 and 9: encode and decode throughput
// versus thread count per ECC method.
type Fig89Result struct {
	Rows []Fig89Row
}

// Fig89Row is one (config, threads) measurement.
type Fig89Row struct {
	Config  string
	Threads int
	EncMBs  float64
	DecMBs  float64
}

// Fig89 measures encode/decode throughput over a thread sweep.
func Fig89(threadCounts []int, payloadBytes int, seed int64) (*Fig89Result, error) {
	data := randomBytes(payloadBytes, seed)
	res := &Fig89Result{}
	for _, cfg := range scalingConfigs() {
		for _, th := range threadCounts {
			code, err := cfg.Build(th)
			if err != nil {
				return nil, err
			}
			encMBs, decMBs, err := timeCode(code, data)
			if err != nil {
				return nil, fmt.Errorf("fig8/9 %s@%d: %w", cfg, th, err)
			}
			res.Rows = append(res.Rows, Fig89Row{Config: cfg.String(), Threads: th, EncMBs: encMBs, DecMBs: decMBs})
		}
	}
	return res, nil
}

// SpeedupTable renders each config's best encode and decode throughput
// over its one-thread throughput, in sweep order.
func (r *Fig89Result) SpeedupTable() *Table {
	t := &Table{
		Title:  "Figures 8-9: speedup, best thread count vs 1",
		Header: []string{"config", "encode", "decode"},
	}
	for i := 0; i < len(r.Rows); {
		var base, best [2]float64
		j := i
		for ; j < len(r.Rows) && r.Rows[j].Config == r.Rows[i].Config; j++ {
			row := r.Rows[j]
			if row.Threads == 1 {
				base = [2]float64{row.EncMBs, row.DecMBs}
			}
			best = [2]float64{max(best[0], row.EncMBs), max(best[1], row.DecMBs)}
		}
		if base[0] > 0 && base[1] > 0 {
			t.AddRow(r.Rows[i].Config, f2(best[0]/base[0])+"x", f2(best[1]/base[1])+"x")
		}
		i = j
	}
	return t
}

// Table renders the scalability sweep.
func (r *Fig89Result) Table() *Table {
	t := &Table{
		Title:  "Figures 8-9: ECC encode/decode throughput vs threads",
		Header: []string{"config", "threads", "encode MB/s", "decode MB/s"},
		Caption: "Paper shape: parity >> hamming/secded >> reed-solomon encode throughput;\n" +
			"near-linear thread scaling (on multi-core hosts).",
	}
	for _, row := range r.Rows {
		t.AddRow(row.Config, iS(row.Threads), f1(row.EncMBs), f1(row.DecMBs))
	}
	return t
}

// Fig10Result reproduces Figure 10: decode throughput with 1 and with
// 100,000 correctable injected errors.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10Row is one (config, threads, errors) decode measurement.
type Fig10Row struct {
	Config  string
	Threads int
	Errors  int
	DecMBs  float64
}

// Fig10 injects correctable errors and measures the decode cost. Only
// correcting methods run (the paper drops parity here too).
func Fig10(threadCounts []int, payloadBytes int, errorCounts []int, seed int64) (*Fig10Result, error) {
	data := randomBytes(payloadBytes, seed)
	res := &Fig10Result{}
	for _, cfg := range scalingConfigs() {
		if cfg.Method == ecc.MethodParity {
			continue
		}
		for _, nerr := range errorCounts {
			for _, th := range threadCounts {
				code, err := cfg.Build(th)
				if err != nil {
					return nil, err
				}
				enc, _ := code.EncodeTo(nil, data, nil)
				injectCorrectable(enc, cfg, len(data), nerr, seed)
				// Best-of-N over a fresh copy: decode must see the
				// injected errors every repetition, and the minimum
				// discards scheduler hiccups that otherwise swamp the
				// repair-cost signal this figure is about. Output and
				// scratch are kept across repetitions, as in timeCode:
				// the chunk stream decodes that way, and a fresh
				// megabyte per call would time page faults.
				damaged := make([]byte, len(enc))
				var scratch ecc.Scratch
				var dec []byte
				var best time.Duration
				for rep := 0; rep < timingReps; rep++ {
					copy(damaged, enc)
					t0 := time.Now()
					var derr error
					//arcvet:ignore integrityflow repair-cost timing loop; the figure measures latency, not correction counts
					dec, _, _, derr = code.DecodeTo(dec, damaged, len(data), &scratch)
					el := time.Since(t0)
					if derr != nil {
						return nil, fmt.Errorf("fig10 %s@%d/%d errors: decode failed: %v", cfg, th, nerr, derr)
					}
					if rep == 0 || el < best {
						best = el
					}
				}
				res.Rows = append(res.Rows, Fig10Row{
					Config:  cfg.String(),
					Threads: th,
					Errors:  nerr,
					DecMBs:  mbs(len(data), best),
				})
			}
		}
	}
	return res, nil
}

// injectCorrectable flips bits so every error stays within the code's
// correction ability: for Hamming/SEC-DED one flip per codeword; for
// Reed-Solomon flips confined to at most M devices per stripe.
func injectCorrectable(enc []byte, cfg core.Config, origLen, count int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	switch cfg.Method {
	case ecc.MethodHamming, ecc.MethodSECDED:
		blocks := origLen / 8 // 64-bit data blocks in the data region
		if blocks == 0 {
			return
		}
		if count > blocks {
			count = blocks
		}
		// One flip in each of `count` distinct data blocks.
		step := blocks / count
		if step == 0 {
			step = 1
		}
		for i := 0; i < count; i++ {
			block := (i * step) % blocks
			bit := block*64 + rng.Intn(64)
			faultinject.FlipBitInPlace(enc, bit)
		}
	case ecc.MethodReedSolomon:
		// Spread flips across the first M data devices of each stripe
		// (never more than M, so every stripe stays correctable).
		// Touching many devices per stripe is what makes the error
		// load expensive: each corrupt data device costs one more
		// syndrome over the healthy devices of its stripe, so M of
		// them cost about what encoding the stripe did — the regime
		// of the paper's 100k-error column. Flips confined to a
		// single device (the old behavior) made 20k errors cost about
		// the same as one, which is not what the figure describes.
		devSize := 1024
		stripeEnc := 256*devSize + 256*4
		stripes := len(enc) / stripeEnc
		if stripes == 0 {
			return
		}
		perStripe := count / stripes
		if perStripe == 0 {
			perStripe = 1
		}
		placed := 0
		for s := 0; s < stripes && placed < count; s++ {
			base := s * stripeEnc
			for i := 0; i < perStripe && placed < count; i++ {
				dev := i % cfg.Param
				bit := (base+dev*devSize)*8 + rng.Intn(devSize*8)
				faultinject.FlipBitInPlace(enc, bit)
				placed++
			}
		}
	}
}

// Table renders the error-load sweep.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		Title:  "Figure 10: decode throughput under correctable error load",
		Header: []string{"config", "errors", "threads", "decode MB/s"},
		Caption: "Paper shape: 1 error barely affects Hamming/SEC-DED but drops RS sharply\n" +
			"(repair cost); 100k errors collapse every method yet all still correct.\n" +
			"Here one bad device costs a 1x1 solve, not a matrix inversion: RS drops\n" +
			"only under dense damage (EXPERIMENTS.md, Figure 10).",
	}
	for _, row := range r.Rows {
		t.AddRow(row.Config, iS(row.Errors), iS(row.Threads), f1(row.DecMBs))
	}
	return t
}

func randomBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// timingReps is the repetition count for throughput measurements;
// reporting the fastest of N runs filters out GC pauses and scheduler
// preemption, which on shared CI hosts can distort a single run by
// more than the cross-method gaps Figures 8-10 assert. It is five
// because the first code timed after scalar work reaches its steady
// speed only by the third or fourth repetition: on the 2-vCPU host
// parity8's AVX2 kernel encoded 1 MiB at 1.3, 6.7, 7.2 and then
// 13.3 GB/s.
const timingReps = 5

// timeCode measures a code the way the chunk stream runs it: EncodeTo
// and DecodeTo into buffers kept across repetitions. With a fresh
// output per call the page faults of a new megabyte cost as much as
// the fastest codes do, and hide the gaps between them.
func timeCode(code ecc.Code, data []byte) (encMBs, decMBs float64, err error) {
	var encBest, decBest time.Duration
	var scratch ecc.Scratch
	var enc, dec []byte
	for rep := 0; rep < timingReps; rep++ {
		t0 := time.Now()
		enc, _ = code.EncodeTo(enc, data, &scratch)
		encT := time.Since(t0)
		t1 := time.Now()
		var derr error
		//arcvet:ignore integrityflow throughput timing on uncorrupted bytes; the report is zero by construction
		dec, _, _, derr = code.DecodeTo(dec, enc, len(data), &scratch)
		decT := time.Since(t1)
		if derr != nil {
			return 0, 0, derr
		}
		if rep == 0 || encT < encBest {
			encBest = encT
		}
		if rep == 0 || decT < decBest {
			decBest = decT
		}
	}
	return mbs(len(data), encBest), mbs(len(data), decBest), nil
}

func mbs(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / (1 << 20) / d.Seconds()
}
