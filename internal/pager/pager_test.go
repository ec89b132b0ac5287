package pager

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"
)

func TestPageStoreBasics(t *testing.T) {
	ps := NewPageStore()
	if ps.NumPages() != 0 {
		t.Fatal("new store not empty")
	}
	a := ps.Allocate()
	b := ps.Allocate()
	if a != 0 || b != 1 || ps.NumPages() != 2 {
		t.Fatalf("allocate ids: %d %d", a, b)
	}
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(buf, 0xdeadbeef)
	if err := ps.WritePage(b, buf); err != nil {
		t.Fatal(err)
	}
	got, err := ps.ReadPage(b)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(got) != 0xdeadbeef {
		t.Error("read-back mismatch")
	}
	// Fresh pages are zeroed.
	got, _ = ps.ReadPage(a)
	for _, v := range got {
		if v != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
}

func TestPageStoreErrors(t *testing.T) {
	ps := NewPageStore()
	if _, err := ps.ReadPage(0); err == nil {
		t.Error("expected error reading unallocated page")
	}
	if err := ps.WritePage(0, make([]byte, PageSize)); err == nil {
		t.Error("expected error writing unallocated page")
	}
	ps.Allocate()
	if err := ps.WritePage(0, make([]byte, 10)); err == nil {
		t.Error("expected error for short buffer")
	}
}

func decodeFirstU32(raw []byte) (any, error) {
	return binary.LittleEndian.Uint32(raw), nil
}

func TestBufferPoolHitsAndFaults(t *testing.T) {
	ps := NewPageStore()
	ids := make([]PageID, 4)
	for i := range ids {
		ids[i] = ps.Allocate()
		buf := make([]byte, PageSize)
		binary.LittleEndian.PutUint32(buf, uint32(i*100))
		if err := ps.WritePage(ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(ps, 2)
	v, err := bp.Get(ids[0], decodeFirstU32)
	if err != nil {
		t.Fatal(err)
	}
	if v.(uint32) != 0 {
		t.Error("decoded value mismatch")
	}
	// Second access: hit.
	if _, err := bp.Get(ids[0], decodeFirstU32); err != nil {
		t.Fatal(err)
	}
	s := bp.Stats()
	if s.Reads != 2 || s.Hits != 1 || s.Faults != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Fill beyond capacity: page 0 evicted (LRU) after touching 1 then 2.
	bp.Get(ids[1], decodeFirstU32)
	bp.Get(ids[2], decodeFirstU32)
	if bp.Len() != 2 {
		t.Fatalf("pool len = %d, want 2", bp.Len())
	}
	bp.ResetStats()
	bp.Get(ids[0], decodeFirstU32) // must fault again
	if s := bp.Stats(); s.Faults != 1 || s.Hits != 0 {
		t.Fatalf("eviction not LRU: %+v", s)
	}
}

func TestBufferPoolLRUOrder(t *testing.T) {
	ps := NewPageStore()
	for i := 0; i < 3; i++ {
		ps.Allocate()
	}
	bp := NewBufferPool(ps, 2)
	bp.Get(0, decodeFirstU32)
	bp.Get(1, decodeFirstU32)
	bp.Get(0, decodeFirstU32) // refresh 0; 1 is now LRU
	bp.Get(2, decodeFirstU32) // evicts 1
	bp.ResetStats()
	bp.Get(0, decodeFirstU32)
	bp.Get(2, decodeFirstU32)
	if s := bp.Stats(); s.Hits != 2 {
		t.Fatalf("0 and 2 should be cached: %+v", s)
	}
	bp.Get(1, decodeFirstU32)
	if s := bp.Stats(); s.Faults != 1 {
		t.Fatalf("1 should have been evicted: %+v", s)
	}
}

func TestBufferPoolPutClear(t *testing.T) {
	ps := NewPageStore()
	ps.Allocate()
	bp := NewBufferPool(ps, 4)
	bp.Put(0, uint32(7))
	v, err := bp.Get(0, func([]byte) (any, error) { t.Fatal("decode must not run"); return nil, nil })
	if err != nil || v.(uint32) != 7 {
		t.Fatalf("Put/Get: %v %v", v, err)
	}
	bp.Put(0, uint32(8)) // overwrite in place
	v, _ = bp.Get(0, nil)
	if v.(uint32) != 8 {
		t.Error("Put overwrite failed")
	}
	bp.Clear()
	if bp.Len() != 0 {
		t.Error("Clear failed")
	}
}

func TestBufferPoolNeverExceedsCapacity(t *testing.T) {
	ps := NewPageStore()
	for i := 0; i < 100; i++ {
		ps.Allocate()
	}
	bp := NewBufferPool(ps, 7)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		id := PageID(r.Intn(100))
		if r.Intn(3) == 0 {
			bp.Put(id, i)
		} else if _, err := bp.Get(id, func([]byte) (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if bp.Len() > bp.Capacity() {
			t.Fatalf("pool exceeded capacity: %d > %d", bp.Len(), bp.Capacity())
		}
	}
	if s := bp.Stats(); s.Reads == 0 || s.Faults == 0 || s.Hits == 0 {
		t.Errorf("implausible stats %+v", s)
	}
}

func TestBufferPoolFraction(t *testing.T) {
	ps := NewPageStore()
	for i := 0; i < 50; i++ {
		ps.Allocate()
	}
	bp := NewBufferPoolFraction(ps, DefaultCacheFraction)
	if bp.Capacity() != 10 {
		t.Errorf("capacity = %d, want 10", bp.Capacity())
	}
	tiny := NewBufferPoolFraction(NewPageStore(), DefaultCacheFraction)
	if tiny.Capacity() != 1 {
		t.Errorf("minimum capacity must be 1, got %d", tiny.Capacity())
	}
}

func TestBufferPoolDecodeError(t *testing.T) {
	ps := NewPageStore()
	ps.Allocate()
	bp := NewBufferPool(ps, 2)
	_, err := bp.Get(0, func([]byte) (any, error) { return nil, errTest })
	if err == nil {
		t.Error("expected decode error")
	}
	if _, err := bp.Get(99, decodeFirstU32); err == nil {
		t.Error("expected store error")
	}
}

var errTest = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestCostModel(t *testing.T) {
	cm := DefaultCostModel()
	s := Stats{Faults: 10}
	if got := cm.IOTime(s); got != 80*time.Millisecond {
		t.Errorf("IOTime = %v, want 80ms", got)
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{Reads: 1, Hits: 1}
	a.Add(Stats{Reads: 3, Faults: 2, Writes: 1})
	if a.Reads != 4 || a.Faults != 2 || a.Hits != 1 || a.Writes != 1 {
		t.Errorf("Add: %+v", a)
	}
	if a.String() == "" {
		t.Error("String empty")
	}
	if (Stats{}).HitRatio() != 0 {
		t.Error("HitRatio on empty stats")
	}
}

func TestSequentialCounter(t *testing.T) {
	// 36-byte records: 4096/36 = 113 per page.
	sc := NewSequentialCounter(36)
	if sc.RecordsPerPage() != 113 {
		t.Fatalf("records/page = %d", sc.RecordsPerPage())
	}
	n := 500
	for i := 0; i < n; i++ {
		sc.Touch(i)
	}
	wantPages := sc.PagesForRecords(n)
	if wantPages != 5 {
		t.Fatalf("PagesForRecords = %d", wantPages)
	}
	s := sc.Stats()
	if s.Faults != int64(wantPages) {
		t.Errorf("sequential faults = %d, want %d", s.Faults, wantPages)
	}
	if s.Reads != int64(n) || s.Hits != int64(n-wantPages) {
		t.Errorf("stats = %+v", s)
	}
}

func TestSequentialCounterHugeRecord(t *testing.T) {
	sc := NewSequentialCounter(2 * PageSize)
	if sc.RecordsPerPage() != 1 {
		t.Error("records/page must clamp to 1")
	}
	sc.Touch(0)
	sc.Touch(1)
	if sc.Stats().Faults != 2 {
		t.Error("each record its own page")
	}
}

func BenchmarkBufferPoolGet(b *testing.B) {
	ps := NewPageStore()
	for i := 0; i < 256; i++ {
		ps.Allocate()
	}
	bp := NewBufferPool(ps, 64)
	r := rand.New(rand.NewSource(1))
	ids := make([]PageID, 1024)
	for i := range ids {
		ids[i] = PageID(r.Intn(256))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.Get(ids[i%1024], decodeFirstU32)
	}
}
