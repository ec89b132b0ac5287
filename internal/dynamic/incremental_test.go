package dynamic

import (
	"math/rand"
	"sync"
	"testing"

	"skydiver/internal/minhash"
)

// equivalencePair builds two monitors with identical parameters, one on the
// incremental path and one pinned to wholesale rebuilds.
func equivalencePair(t testing.TB, dims, capacity, k, sigSize int, seed int64) (inc, whole *Monitor) {
	t.Helper()
	var err error
	inc, err = NewMonitor(dims, capacity, k, sigSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	whole, err = NewMonitor(dims, capacity, k, sigSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	whole.wholesaleOnly = true
	return inc, whole
}

// compareMonitors queries both monitors and asserts bit-identical skylines,
// signature matrices, domination scores, and selections.
func compareMonitors(t *testing.T, step int, inc, whole *Monitor) {
	t.Helper()
	iSky, err := inc.Skyline()
	if err != nil {
		t.Fatalf("step %d: incremental skyline: %v", step, err)
	}
	wSky, err := whole.Skyline()
	if err != nil {
		t.Fatalf("step %d: wholesale skyline: %v", step, err)
	}
	if len(iSky) != len(wSky) {
		t.Fatalf("step %d: skyline size %d (incremental) vs %d (wholesale)", step, len(iSky), len(wSky))
	}
	for i := range iSky {
		if iSky[i].Seq != wSky[i].Seq {
			t.Fatalf("step %d: skyline[%d] seq %d vs %d", step, i, iSky[i].Seq, wSky[i].Seq)
		}
	}
	// White-box: maintained signature state must match slot for slot. An
	// empty window holds no matrix, which compares as zero columns.
	im, wm := inc.matrix, whole.matrix
	cols := func(m *minhash.Matrix) int {
		if m == nil {
			return 0
		}
		return m.Cols()
	}
	if cols(im) != cols(wm) || cols(im) != len(iSky) {
		t.Fatalf("step %d: matrix cols %d vs %d (skyline %d)", step, cols(im), cols(wm), len(iSky))
	}
	for c := 0; c < cols(im); c++ {
		ic, wc := im.Column(c), wm.Column(c)
		for s := range ic {
			if ic[s] != wc[s] {
				t.Fatalf("step %d: matrix[%d][%d] = %d (incremental) vs %d (wholesale)", step, c, s, ic[s], wc[s])
			}
		}
		if inc.domScore[c] != whole.domScore[c] {
			t.Fatalf("step %d: domScore[%d] = %v vs %v", step, c, inc.domScore[c], whole.domScore[c])
		}
	}
	iPick, err := inc.Diverse()
	if err != nil {
		t.Fatalf("step %d: incremental diverse: %v", step, err)
	}
	wPick, err := whole.Diverse()
	if err != nil {
		t.Fatalf("step %d: wholesale diverse: %v", step, err)
	}
	if len(iPick) != len(wPick) {
		t.Fatalf("step %d: %d picks vs %d", step, len(iPick), len(wPick))
	}
	for i := range iPick {
		if iPick[i].Seq != wPick[i].Seq {
			t.Fatalf("step %d: pick[%d] seq %d vs %d", step, i, iPick[i].Seq, wPick[i].Seq)
		}
	}
}

// TestIncrementalEquivalence drives random streams — with quantized
// coordinates, so dominance, demotion, promotion, and exact duplicates all
// occur constantly — through an incremental monitor and a wholesale twin,
// comparing the full maintained state at random query points. This is the
// incremental ≡ wholesale property the whole design rests on: min-folds are
// order-independent, so the patched matrix must equal the rebuilt one bit
// for bit, at every step.
func TestIncrementalEquivalence(t *testing.T) {
	cases := []struct {
		seed     int64
		dims     int
		capacity int
		k        int
		levels   int // coordinate quantization: r.Intn(levels)/levels
		steps    int
	}{
		{seed: 1, dims: 2, capacity: 8, k: 2, levels: 4, steps: 400},
		{seed: 2, dims: 3, capacity: 16, k: 3, levels: 6, steps: 500},
		{seed: 3, dims: 3, capacity: 64, k: 5, levels: 8, steps: 800},
		{seed: 4, dims: 4, capacity: 32, k: 4, levels: 5, steps: 600},
		{seed: 5, dims: 2, capacity: 1, k: 1, levels: 3, steps: 100},
	}
	for _, tc := range cases {
		inc, whole := equivalencePair(t, tc.dims, tc.capacity, tc.k, 64, tc.seed)
		r := rand.New(rand.NewSource(tc.seed))
		p := make([]float64, tc.dims)
		for step := 0; step < tc.steps; step++ {
			for d := range p {
				p[d] = float64(r.Intn(tc.levels)) / float64(tc.levels)
			}
			if _, err := inc.Add(p); err != nil {
				t.Fatal(err)
			}
			if _, err := whole.Add(p); err != nil {
				t.Fatal(err)
			}
			// Query roughly every few steps; long gaps exercise the op-log
			// replay and, past a full turnover, the rebuild fallback.
			if r.Intn(4) == 0 {
				compareMonitors(t, step, inc, whole)
			}
		}
		compareMonitors(t, tc.steps, inc, whole)
	}
}

// FuzzMonitorEquivalence fuzzes the same property: each input byte becomes a
// quantized 2-D point (low/high nibble) and every fifth byte also triggers a
// comparison of the maintained state against the wholesale twin.
func FuzzMonitorEquivalence(f *testing.F) {
	f.Add(uint8(4), []byte{0x00, 0x11, 0x10, 0x01, 0xff, 0x23, 0x32, 0x00, 0x77})
	f.Add(uint8(1), []byte{0x42, 0x42, 0x42, 0x24, 0x24})
	f.Add(uint8(16), []byte("skyline diversification over sliding windows"))
	f.Add(uint8(7), []byte{0x80, 0x08, 0x81, 0x18, 0x80, 0x08, 0x99, 0x00, 0xf0, 0x0f})
	// An empty window, and a window of one point (k cannot exceed it).
	f.Add(uint8(3), []byte{})
	f.Add(uint8(0), []byte("0"))
	f.Fuzz(func(t *testing.T, capacity uint8, data []byte) {
		cap := 1 + int(capacity)%24
		inc, whole := equivalencePair(t, 2, cap, min(2, cap), 32, 99)
		for i, b := range data {
			p := []float64{float64(b & 0xF), float64(b >> 4)}
			if _, err := inc.Add(p); err != nil {
				t.Fatal(err)
			}
			if _, err := whole.Add(p); err != nil {
				t.Fatal(err)
			}
			if b%5 == 0 {
				compareMonitors(t, i, inc, whole)
			}
		}
		compareMonitors(t, len(data), inc, whole)
	})
}

// TestMonitorConcurrentWave mirrors the Dataset concurrency wave test:
// writers stream points while readers query, all under the race detector.
// The assertions are liveness and internal consistency (every pick on the
// concurrently observed skyline); exact answers are timing-dependent.
func TestMonitorConcurrentWave(t *testing.T) {
	m, err := NewMonitor(3, 256, 4, 48, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the window so early queries have something to chew on.
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 256; i++ {
		if _, err := m.Add([]float64{r.Float64(), r.Float64(), r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				if _, err := m.Add([]float64{r.Float64(), r.Float64(), r.Float64()}); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w + 100))
	}
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sky, err := m.Skyline()
				if err != nil {
					errs <- err
					return
				}
				picks, err := m.Diverse()
				if err != nil {
					errs <- err
					return
				}
				if len(picks) > len(sky) {
					// sky and picks come from different refreshes, but a
					// selection can never be larger than any window skyline
					// of a full 256-point window with k=4.
					if len(picks) > 4 {
						errs <- errTooManyPicks
						return
					}
				}
				_ = m.Len()
				_ = m.Seen()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A final quiescent query must be internally consistent.
	sky, err := m.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	picks, err := m.Diverse()
	if err != nil {
		t.Fatal(err)
	}
	onSky := make(map[uint64]bool, len(sky))
	for _, it := range sky {
		onSky[it.Seq] = true
	}
	for _, p := range picks {
		if !onSky[p.Seq] {
			t.Errorf("pick seq %d not on the skyline", p.Seq)
		}
	}
}

var errTooManyPicks = &tooManyPicksError{}

type tooManyPicksError struct{}

func (*tooManyPicksError) Error() string { return "more picks than k" }

// TestRingRetention is the regression test for the old `window = window[1:]`
// leak: evicted points must not be retained. After a refresh the pending
// eviction log is empty and every ring slot holds a live window item; a full
// turnover between queries invalidates (rather than accumulates) the log.
func TestRingRetention(t *testing.T) {
	m, err := NewMonitor(2, 8, 2, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if _, err := m.Add([]float64{r.Float64(), r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Diverse(); err != nil {
		t.Fatal(err)
	}
	if m.pendingEvict != nil {
		t.Fatalf("pending eviction log not released after refresh: %d items", len(m.pendingEvict))
	}
	lo := m.next - uint64(m.count)
	for s, it := range m.buf {
		if it.Seq < lo || it.Seq >= m.next {
			t.Fatalf("ring slot %d holds dead seq %d (window [%d, %d))", s, it.Seq, lo, m.next)
		}
		if it.Point == nil {
			t.Fatalf("ring slot %d lost its point", s)
		}
	}
	// Live state retains evicted items only until they are replayed…
	for i := 0; i < 3; i++ {
		if _, err := m.Add([]float64{r.Float64(), r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.pendingEvict) != 3 {
		t.Fatalf("pending eviction log has %d items, want 3", len(m.pendingEvict))
	}
	// …and a full window turnover drops the log instead of growing it.
	for i := 0; i < 5; i++ {
		if _, err := m.Add([]float64{r.Float64(), r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if m.pendingEvict != nil || m.live {
		t.Fatalf("full turnover did not invalidate: pending=%d live=%v", len(m.pendingEvict), m.live)
	}
	if _, err := m.Diverse(); err != nil {
		t.Fatal(err)
	}
	if !m.live || m.pendingEvict != nil {
		t.Fatalf("refresh after invalidation did not restore live state")
	}
}

// benchFill streams n random points into a fresh monitor and performs the
// initial wholesale build, leaving it in steady state.
func benchFill(b *testing.B, m *Monitor, n int, seed int64) {
	b.Helper()
	r := rand.New(rand.NewSource(seed))
	p := make([]float64, 3)
	for i := 0; i < n; i++ {
		p[0], p[1], p[2] = r.Float64(), r.Float64(), r.Float64()
		if _, err := m.Add(p); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := m.Diverse(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMonitorAdd measures raw ingestion: Add is O(1) — a ring write
// plus an op-log append — independent of window size.
func BenchmarkMonitorAdd(b *testing.B) {
	m, err := NewMonitor(3, 100000, 10, 100, 42)
	if err != nil {
		b.Fatal(err)
	}
	benchFill(b, m, 100000, 42)
	r := rand.New(rand.NewSource(43))
	p := make([]float64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p[0], p[1], p[2] = r.Float64(), r.Float64(), r.Float64()
		if _, err := m.Add(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefreshIncremental100K: steady-state single-point update latency
// on a 100K window — one Add then one query served by the incremental
// replay. Compare against BenchmarkRefreshWholesale100K.
func BenchmarkRefreshIncremental100K(b *testing.B) {
	m, err := NewMonitor(3, 100000, 10, 100, 42)
	if err != nil {
		b.Fatal(err)
	}
	benchFill(b, m, 100000, 42)
	r := rand.New(rand.NewSource(43))
	p := make([]float64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p[0], p[1], p[2] = r.Float64(), r.Float64(), r.Float64()
		if _, err := m.Add(p); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Diverse(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefreshWholesale100K: the same workload with incremental
// maintenance disabled — every query rebuilds the window from scratch, which
// is what every query cost before incremental maintenance existed.
func BenchmarkRefreshWholesale100K(b *testing.B) {
	m, err := NewMonitor(3, 100000, 10, 100, 42)
	if err != nil {
		b.Fatal(err)
	}
	m.wholesaleOnly = true
	benchFill(b, m, 100000, 42)
	r := rand.New(rand.NewSource(43))
	p := make([]float64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p[0], p[1], p[2] = r.Float64(), r.Float64(), r.Float64()
		if _, err := m.Add(p); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Diverse(); err != nil {
			b.Fatal(err)
		}
	}
}
