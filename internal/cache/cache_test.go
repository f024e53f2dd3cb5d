package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetOrLoadHitMiss(t *testing.T) {
	c := New(1 << 20)
	loads := 0
	load := func() ([]byte, error) { loads++; return []byte("chunk-0"), nil }

	k := Key{Archive: 1, Chunk: 0}
	v, err := c.GetOrLoad(k, load)
	if err != nil || string(v) != "chunk-0" {
		t.Fatalf("first GetOrLoad = %q, %v", v, err)
	}
	v, err = c.GetOrLoad(k, func() ([]byte, error) { t.Fatal("loaded twice"); return nil, nil })
	if err != nil || string(v) != "chunk-0" {
		t.Fatalf("second GetOrLoad = %q, %v", v, err)
	}
	if loads != 1 {
		t.Fatalf("loads = %d, want 1", loads)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 7 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BudgetBytes != 1<<20 {
		t.Fatalf("budget = %d, want %d", st.BudgetBytes, 1<<20)
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")
	k := Key{Archive: 3, Chunk: 9}
	if _, err := c.GetOrLoad(k, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("error load = %v, want boom", err)
	}
	// The failure must not poison the key: the next load runs and wins.
	v, err := c.GetOrLoad(k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(v) != "ok" {
		t.Fatalf("retry = %q, %v", v, err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("stats after retry = %+v", st)
	}
}

func TestEvictionUnderBudget(t *testing.T) {
	// Values of 1..12 bytes through a 40-byte budget: every insert past
	// the first few must evict, and only as much as the newcomer needs.
	const budget = 40
	c := New(budget)
	for i := int64(0); i < 200; i++ {
		val := bytes.Repeat([]byte{0xAB}, int(1+i*7%12))
		before := c.Stats()
		if _, err := c.GetOrLoad(Key{Archive: 7, Chunk: i}, func() ([]byte, error) { return val, nil }); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Bytes > budget {
			t.Fatalf("insert %d: resident bytes %d exceed the %d-byte budget: %+v", i, st.Bytes, budget, st)
		}
		if st.Evictions > before.Evictions && before.Bytes+int64(len(val)) <= budget {
			t.Fatalf("insert %d evicted though %d+%d bytes fit the budget", i, before.Bytes, len(val))
		}
		// The entry just inserted always survives its own insert.
		if _, err := c.GetOrLoad(Key{Archive: 7, Chunk: i}, func() ([]byte, error) {
			t.Fatalf("insert %d: the newest entry was evicted", i)
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions after 200 inserts into %d bytes: %+v", budget, st)
	}
}

// resident lists the cached chunk ordinals from oldest to newest.
func resident(c *Cache) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int64
	for e := c.oldest; e != nil; e = e.newer {
		out = append(out, e.key.Chunk)
	}
	return out
}

func TestVisitedEntrySurvivesSweep(t *testing.T) {
	c := New(4)
	get := func(ch int64) {
		t.Helper()
		if _, err := c.GetOrLoad(Key{Chunk: ch}, func() ([]byte, error) { return []byte{byte(ch)}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for ch := int64(0); ch < 4; ch++ {
		get(ch)
	}
	get(1) // a hit: 1 is visited
	for _, step := range []struct {
		insert int64
		want   []int64
	}{
		// The hand starts at the oldest entry, unvisited, and takes it.
		{4, []int64{1, 2, 3, 4}},
		// It passes 1, clearing its bit, and takes 2.
		{5, []int64{1, 3, 4, 5}},
		// It resumes after 2, not at the oldest entry: 1, unvisited
		// now, outlives newer entries until the hand wraps to it.
		{6, []int64{1, 4, 5, 6}},
		{7, []int64{1, 5, 6, 7}},
	} {
		get(step.insert)
		if got := resident(c); fmt.Sprint(got) != fmt.Sprint(step.want) {
			t.Fatalf("after inserting %d: resident %v, want %v", step.insert, got, step.want)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Evictions != 4 || st.Bytes != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOversizedEntryCachedThenDisplaced(t *testing.T) {
	c := New(8)
	put := func(ch int64, size int) {
		t.Helper()
		if _, err := c.GetOrLoad(Key{Chunk: ch}, func() ([]byte, error) { return make([]byte, size), nil }); err != nil {
			t.Fatal(err)
		}
	}
	put(0, 4)
	put(1, 4)
	put(2, 16) // twice the budget: everything else goes, it stays
	if got, st := resident(c), c.Stats(); fmt.Sprint(got) != "[2]" || st.Bytes != 16 || st.Evictions != 2 {
		t.Fatalf("after the oversized insert: resident %v, stats %+v", got, st)
	}
	// It serves repeat reads...
	if _, err := c.GetOrLoad(Key{Chunk: 2}, func() ([]byte, error) {
		t.Fatal("oversized entry was not cached")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	// ...until the next insert displaces it, visited or not.
	put(3, 4)
	if got, st := resident(c), c.Stats(); fmt.Sprint(got) != "[3]" || st.Bytes != 4 || st.Evictions != 3 {
		t.Fatalf("after the next insert: resident %v, stats %+v", got, st)
	}
}

// TestZipfHitRatio replays a seeded trace shaped like the benchmark's
// service workload: four archives of 32 chunks of 256 KiB, Zipf
// s = 1.2 over the archives and over each one's chunks, reads of
// 4-64 KiB from a uniform offset in the chosen chunk (touching the next
// chunk too when they cross its end), after one pass over every chunk,
// through a budget of half the 128 chunks. A budget split into 16
// stripes of four chunks each held 0.75 of these reads; one SIEVE
// budget holds about 0.90 (a static choice of the 64 hottest, 0.91).
func TestZipfHitRatio(t *testing.T) {
	const (
		archives, chunks = 4, 32
		chunkBytes       = 256 << 10
		readMin, readMax = 4 << 10, 64 << 10
		valBytes         = 1 << 10 // stands in for a chunk's decoded bytes
		reads            = 20000
	)
	c := New(archives * chunks / 2 * valBytes)
	val := make([]byte, valBytes)
	read := func(a, ch int) {
		if _, err := c.GetOrLoad(Key{Archive: uint64(a + 1), Chunk: int64(ch)}, func() ([]byte, error) { return val, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < archives; a++ {
		for ch := 0; ch < chunks; ch++ {
			read(a, ch)
		}
	}
	warm := c.Stats()
	rng := rand.New(rand.NewSource(1))
	zArchive := rand.NewZipf(rng, 1.2, 1, archives-1)
	var zChunk [archives]*rand.Zipf
	for a := range zChunk {
		zChunk[a] = rand.NewZipf(rng, 1.2, 1, chunks-1)
	}
	for i := 0; i < reads; i++ {
		a := int(zArchive.Uint64())
		ch := int(zChunk[a].Uint64())
		first := ch*chunkBytes + rng.Intn(chunkBytes)
		n := readMin + rng.Intn(readMax-readMin+1)
		for last := min((first+n-1)/chunkBytes, chunks-1); ch <= last; ch++ {
			read(a, ch)
		}
	}
	st := c.Stats()
	hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
	ratio := float64(hits) / float64(hits+misses)
	t.Logf("hit ratio %.3f over %d lookups (%d misses, %d evictions)", ratio, hits+misses, misses, st.Evictions-warm.Evictions)
	if ratio < 0.87 {
		t.Fatalf("hit ratio %.3f, want >= 0.87", ratio)
	}
}

func TestSingleFlightConcurrent(t *testing.T) {
	c := New(1 << 20)
	var loads atomic.Int64
	release := make(chan struct{})
	k := Key{Archive: 5, Chunk: 5}

	const callers = 16
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.GetOrLoad(k, func() ([]byte, error) {
				loads.Add(1)
				<-release
				return []byte("slow"), nil
			})
		}(i)
	}
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("load ran %d times, want 1", n)
	}
	for i := range results {
		if errs[i] != nil || string(results[i]) != "slow" {
			t.Fatalf("caller %d got %q, %v", i, results[i], errs[i])
		}
	}
}

func TestCloseUnblocksFollowers(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	k := Key{Archive: 9, Chunk: 1}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.GetOrLoad(k, func() ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
		leaderDone <- err
	}()
	<-started

	followerDone := make(chan error, 1)
	go func() {
		_, err := c.GetOrLoad(k, func() ([]byte, error) { return nil, errors.New("follower must not load") })
		followerDone <- err
	}()

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-followerDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("follower err = %v, want ErrClosed", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v, want nil (its own load completed)", err)
	}
	// Post-close lookups refuse rather than repopulate.
	if _, err := c.GetOrLoad(k, func() ([]byte, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close GetOrLoad err = %v, want ErrClosed", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("closed cache still resident: %+v", st)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(4 << 10) // small enough to churn
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Archive: uint64(g % 3), Chunk: int64(i % 17)}
				want := fmt.Sprintf("a%d-c%d", k.Archive, k.Chunk)
				v, err := c.GetOrLoad(k, func() ([]byte, error) { return []byte(want), nil })
				if err != nil {
					t.Error(err)
					return
				}
				if string(v) != want {
					t.Errorf("key %+v returned %q, want %q", k, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("hits+misses = %d, want %d (%+v)", st.Hits+st.Misses, 8*200, st)
	}
}

// BenchmarkGetOrLoadHit is the cost of a hit from every processor at
// once: warm keys, the single lock's worst case.
func BenchmarkGetOrLoadHit(b *testing.B) {
	const keys = 64
	c := New(0)
	val := make([]byte, 1<<10)
	load := func() ([]byte, error) { return val, nil }
	for i := 0; i < keys; i++ {
		if _, err := c.GetOrLoad(Key{Archive: 1, Chunk: int64(i)}, load); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := c.GetOrLoad(Key{Archive: 1, Chunk: int64(i % keys)}, load); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if st := c.Stats(); st.Misses != keys {
		b.Fatalf("%d misses on warm keys, want only the %d warming loads", st.Misses, keys)
	}
}
