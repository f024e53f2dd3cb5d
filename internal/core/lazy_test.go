package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ecc"
)

// throughputModel is a deterministic stand-in for measure: a rate per
// configuration drawn from its name (few distinct values, so ties are
// common), scaling with threads up to four (so the top tiers tie too).
// It counts how often each point is asked for.
type throughputModel struct {
	mu    sync.Mutex
	calls map[modelPoint]int
}

type modelPoint struct {
	config  string
	threads int
}

func modelRate(cfg Config, threads int) float64 {
	h := crc32.ChecksumIEEE([]byte(cfg.String()))
	if threads > 4 {
		threads = 4
	}
	return float64(10*(1+h%6)) * float64(threads)
}

func (m *throughputModel) measure(cfg Config, threads, _ int) (float64, float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.calls == nil {
		m.calls = map[modelPoint]int{}
	}
	m.calls[modelPoint{cfg.String(), threads}]++
	rate := modelRate(cfg, threads)
	return rate, 0.9 * rate, nil
}

func (m *throughputModel) points() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}

// modelEngine is a cold engine whose measurements come from a model.
func modelEngine(t *testing.T, maxThreads int) (*Engine, *throughputModel) {
	t.Helper()
	e, err := NewEngine(EngineOptions{MaxThreads: maxThreads, CacheDir: "-"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	m := &throughputModel{}
	e.trainer.measure = m.measure
	return e, m
}

// jointRef is the selection procedure as it was written against a
// complete table: resolve every allowed configuration's threads, then
// three passes over all of them. The lazy walk must agree with it.
func jointRef(table *TrainTable, maxThreads int, mem, bw float64, res Resiliency) (Choice, error) {
	if res.ErrorsPerMB > 0 && mem == AnyMem {
		if cfg := MinimalAdequateConfig(res.ErrorsPerMB); res.allows(cfg) {
			mem = cfg.Overhead()
		}
	}
	var cands []candidate
	for _, cfg := range AllConfigs() {
		if !res.allows(cfg) {
			continue
		}
		var best *candidate
		for _, th := range trainThreadCounts(maxThreads) {
			e, ok := table.Lookup(cfg.String(), th)
			if !ok {
				continue
			}
			c := candidate{cfg: cfg, threads: th, encMBs: e.EncMBs, decMBs: e.DecMBs,
				overhead: cfg.Overhead(), meetsBW: e.EncMBs >= bw}
			if c.meetsBW {
				best = &c
				break
			}
			if best == nil || c.encMBs > best.encMBs {
				best = &c
			}
		}
		if best != nil {
			cands = append(cands, *best)
		}
	}
	if len(cands) == 0 {
		return Choice{}, ErrNoConfiguration
	}
	var best *candidate
	for i := range cands {
		c := &cands[i]
		if c.overhead > mem || !c.meetsBW {
			continue
		}
		if best == nil || c.overhead > best.overhead ||
			(c.overhead == best.overhead && c.encMBs < best.encMBs) {
			best = c
		}
	}
	if best != nil {
		return choiceFrom(*best, mem, bw), nil
	}
	for i := range cands {
		c := &cands[i]
		if c.overhead > mem {
			continue
		}
		if best == nil || c.encMBs > best.encMBs ||
			(c.encMBs == best.encMBs && c.overhead > best.overhead) {
			best = c
		}
	}
	if best != nil {
		return choiceFrom(*best, mem, bw), nil
	}
	for i := range cands {
		c := &cands[i]
		if best == nil || c.overhead < best.overhead ||
			(c.overhead == best.overhead && c.encMBs > best.encMBs) {
			best = c
		}
	}
	return choiceFrom(*best, mem, bw), nil
}

// admissible lists the configurations a request may ask numbers for:
// those res allows within the budget or, when none is, the cheapest
// allowed overhead level.
func admissible(mem float64, res Resiliency) map[string]bool {
	if res.ErrorsPerMB > 0 && mem == AnyMem {
		if cfg := MinimalAdequateConfig(res.ErrorsPerMB); res.allows(cfg) {
			mem = cfg.Overhead()
		}
	}
	in, cheapest := map[string]bool{}, map[string]bool{}
	floor := -1.0
	for _, cfg := range AllConfigs() { // ascending overhead
		if !res.allows(cfg) {
			continue
		}
		if floor < 0 {
			floor = cfg.Overhead()
		}
		if cfg.Overhead() == floor {
			cheapest[cfg.String()] = true
		}
		if cfg.Overhead() <= mem {
			in[cfg.String()] = true
		}
	}
	if len(in) == 0 {
		return cheapest
	}
	return in
}

// TestLazyJointEquivalence: over a grid of requests, a cold engine's
// walk returns the Choice the complete table gives, and asks only for
// points of admissible configurations.
func TestLazyJointEquivalence(t *testing.T) {
	if err := RegisterCustomMethod(tripleMethod); err != nil {
		t.Fatal(err)
	}
	defer UnregisterCustomMethod(tripleMethod.ID)
	const maxThreads = 6 // tiers 1, 2, 4, 6

	full, fullModel := modelEngine(t, maxThreads)
	table := full.Table()
	if want := len(AllConfigs()) * len(trainThreadCounts(maxThreads)); len(table.Entries) != want || fullModel.points() != want {
		t.Fatalf("complete table has %d entries from %d measurements, want %d", len(table.Entries), fullModel.points(), want)
	}
	lo, hi := table.Entries[0].EncMBs, 0.0
	for _, e := range table.Entries {
		if e.EncMBs < lo {
			lo = e.EncMBs
		}
		if e.EncMBs > hi {
			hi = e.EncMBs
		}
	}
	mems := []float64{AnyMem, 0.001, 0.01, 0.07, 0.1, 0.125, 0.5, 2}
	bws := []float64{AnyBW, lo / 2, (lo + hi) / 2, hi / 3, 2 * hi}
	ress := []Resiliency{AnyECC, {Caps: ecc.CorrectBurst}, {ErrorsPerMB: 1}, {ErrorsPerMB: 1000},
		{Methods: []ecc.Method{tripleMethod.ID}}, {Methods: []ecc.Method{ecc.MethodParity}, Caps: ecc.CorrectSparse}}
	for _, m := range []ecc.Method{ecc.MethodParity, ecc.MethodHamming, ecc.MethodSECDED, ecc.MethodReedSolomon, ecc.MethodInterleavedSECDED} {
		ress = append(ress, Resiliency{Methods: []ecc.Method{m}})
	}
	for _, res := range ress {
		for _, mem := range mems {
			for _, bw := range bws {
				name := fmt.Sprintf("mem=%g bw=%g res=%+v", mem, bw, res)
				want, wantErr := jointRef(table, maxThreads, mem, bw, res)
				eng, model := modelEngine(t, maxThreads)
				got, err := eng.Optimizer().Joint(mem, bw, res)
				if err != wantErr || got != want {
					t.Fatalf("%s:\n lazy %+v, %v\n full %+v, %v", name, got, err, want, wantErr)
				}
				// The same walk over the literal table, no engine behind it.
				lit, err := (&Optimizer{Table: table, MaxThreads: maxThreads}).Joint(mem, bw, res)
				if err != wantErr || lit != want {
					t.Fatalf("%s:\n literal %+v, %v\n full    %+v, %v", name, lit, err, want, wantErr)
				}
				ok := admissible(mem, res)
				for p, n := range model.calls {
					if n != 1 || !ok[p.config] || p.threads > maxThreads {
						t.Fatalf("%s: measured %+v %d times (admissible: %v)", name, p, n, ok[p.config])
					}
				}
				if eng.TrainedPoints() != model.points() {
					t.Fatalf("%s: TrainedPoints %d, model saw %d", name, eng.TrainedPoints(), model.points())
				}
				if wantErr == nil && model.points() == 0 {
					t.Fatalf("%s: a cold engine answered without a measurement", name)
				}
			}
		}
	}
}

// TestLazyPins fixes how much the common requests measure.
func TestLazyPins(t *testing.T) {
	const maxThreads = 2
	rs := Resiliency{Methods: []ecc.Method{ecc.MethodReedSolomon}}
	for _, tc := range []struct {
		name    string
		mem, bw float64
		res     Resiliency
		config  string
		points  int
	}{
		{"1 error/MB, no other bound", AnyMem, AnyBW, Resiliency{ErrorsPerMB: 1}, "secded64", 1},
		{"Reed-Solomon within 0.1", 0.1, AnyBW, rs, "rs-m15", 1},
		// parity1, secded64 and the three interleaved depths tie at 0.125.
		{"any code within 0.125", 0.125, AnyBW, AnyECC, "", 5},
		// rs-m1 .. rs-m15 at both tiers, each once.
		{"unreachable bound", 0.1, 1e12, rs, "", 5 * 2},
	} {
		eng, model := modelEngine(t, maxThreads)
		for i := 0; i < 2; i++ { // the repeat measures nothing
			c, err := eng.Optimizer().Joint(tc.mem, tc.bw, tc.res)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if tc.config != "" && c.Config.String() != tc.config {
				t.Fatalf("%s: chose %s, want %s", tc.name, c.Config, tc.config)
			}
			if c.PredictedEncMBs != modelRate(c.Config, c.Threads) {
				t.Fatalf("%s: prediction %.1f is not the model's", tc.name, c.PredictedEncMBs)
			}
			if got := eng.TrainedPoints(); got != tc.points || model.points() != tc.points {
				t.Fatalf("%s, request %d: measured %d points (model saw %d), want %d", tc.name, i+1, got, model.points(), tc.points)
			}
		}
		for p, n := range model.calls {
			if n != 1 {
				t.Fatalf("%s: %+v measured %d times", tc.name, p, n)
			}
		}
	}
}

// TestLazyTableCompletesAndSnapshots: Table measures what requests have
// not, once, and hands out a copy that later measurements and the
// caller's own writes do not touch.
func TestLazyTableCompletesAndSnapshots(t *testing.T) {
	eng, model := modelEngine(t, 2)
	if _, err := eng.Optimizer().Memory(0.125, AnyECC); err != nil {
		t.Fatal(err)
	}
	all := len(AllConfigs()) * 2
	snap := eng.Table()
	if len(snap.Entries) != all || eng.TrainedPoints() != all || model.points() != all {
		t.Fatalf("Table: %d entries, %d trained, %d measured, want %d", len(snap.Entries), eng.TrainedPoints(), model.points(), all)
	}
	for i := 1; i < len(snap.Entries); i++ {
		a, b := snap.Entries[i-1], snap.Entries[i]
		if a.Config > b.Config || (a.Config == b.Config && a.Threads >= b.Threads) {
			t.Fatalf("snapshot not sorted at %d: %+v, %+v", i, a, b)
		}
	}
	snap.Entries[0].EncMBs = -1
	snap.Entries = snap.Entries[:1]
	if again := eng.Table(); len(again.Entries) != all || again.Entries[0].EncMBs < 0 {
		t.Fatal("a caller's edit of the snapshot reached the engine")
	}
	if model.points() != all {
		t.Fatal("a second Table call measured again")
	}
}

// TestLazyConcurrentColdEngine: goroutines racing mixed requests into a
// cold engine measure every point once and leave nothing running.
func TestLazyConcurrentColdEngine(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, model := modelEngine(t, 2)
	data := make([]byte, 40_000)
	rand.New(rand.NewSource(9)).Read(data)
	type request struct {
		mem, bw float64
		res     Resiliency
	}
	reqs := []request{
		{AnyMem, AnyBW, Resiliency{ErrorsPerMB: 1}},
		{0.1, AnyBW, Resiliency{Methods: []ecc.Method{ecc.MethodReedSolomon}}},
		{0.125, 25, AnyECC},
		{0.2, 1e12, Resiliency{Caps: ecc.CorrectBurst}},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range reqs {
				r := reqs[(g+i)%len(reqs)]
				if g%2 == 0 {
					enc, err := eng.Encode(data, r.mem, r.bw, r.res)
					if err != nil {
						t.Error(err)
						return
					}
					if dec, err := eng.Decode(enc.Encoded); err != nil || !bytes.Equal(dec.Data, data) {
						t.Errorf("round trip: %v", err)
					}
					continue
				}
				choice, err := eng.Optimizer().Joint(r.mem, r.bw, r.res)
				if err != nil {
					t.Error(err)
					return
				}
				w, err := eng.NewChunkWriterChoice(io.Discard, choice, StreamOptions{ChunkSize: 16 << 10})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := w.Write(data); err != nil {
					t.Error(err)
				}
				if err := w.Close(); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if model.points() == 0 || model.points() != eng.TrainedPoints() {
		t.Fatalf("model saw %d points, engine counts %d", model.points(), eng.TrainedPoints())
	}
	for p, n := range model.calls {
		if n != 1 {
			t.Fatalf("%+v measured %d times", p, n)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked: %d live, started with %d", n, base)
	}
}
