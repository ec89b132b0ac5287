package rtree

import (
	"strings"
	"sync"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/pager"
)

// TestCorruptPageSurfacesError: a torn/corrupted page must produce a decode
// error that propagates out of every query path instead of silently
// returning wrong counts.
func TestCorruptPageSurfacesError(t *testing.T) {
	ds := data.Independent(5000, 3, 1)
	tr := mustBulkLoad(t, ds)
	tr.Reopen(0.2)           // cold cache so the corrupted page is actually re-read
	tr.SetDecodeCache(false) // byte-level corruption below bypasses writeNode, which would
	// otherwise keep serving the node decoded at build time; the point here is
	// the decode-error path itself

	// Corrupt the root: claim an absurd entry count.
	raw := make([]byte, pager.PageSize)
	raw[0] = 0 // internal node
	raw[1] = 0xff
	raw[2] = 0xff
	if err := tr.Store().WritePage(tr.Root(), raw); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RangeCount(geom.Rect{Lo: []float64{0, 0, 0}, Hi: []float64{1, 1, 1}}); err == nil {
		t.Error("expected error from corrupted page")
	}
	if _, err := tr.DominanceCount([]float64{0, 0, 0}); err == nil {
		t.Error("expected error from corrupted page")
	}
	if err := tr.Walk(func(*Node, int) bool { return true }); err == nil {
		t.Error("expected error from corrupted page")
	}
}

// TestDecodeRejectsOversizedCount: a node whose declared entry count runs
// past the page boundary must not panic.
func TestDecodeRejectsOversizedCount(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			if !strings.Contains(panicString(r), "out of range") {
				t.Fatalf("unexpected panic: %v", r)
			}
			// A bounds panic would be a bug; decode must error instead.
			t.Fatal("decode panicked on oversized entry count")
		}
	}()
	raw := make([]byte, pager.PageSize)
	raw[0] = 1    // leaf
	raw[1] = 0xff // 65535 entries: cannot fit
	raw[2] = 0xff
	if _, err := decodeNode(0, raw, 4); err == nil {
		t.Error("expected decode error for oversized entry count")
	}
}

func panicString(r any) string {
	if err, ok := r.(error); ok {
		return err.Error()
	}
	if s, ok := r.(string); ok {
		return s
	}
	return ""
}

// TestPageStoreConcurrent: the store must tolerate concurrent allocation
// and access (the buffer pools on top are single-owner, but the store is
// shared).
func TestPageStoreConcurrent(t *testing.T) {
	ps := pager.NewPageStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ps.Allocate()
				buf := make([]byte, pager.PageSize)
				buf[0] = byte(id)
				if err := ps.WritePage(id, buf); err != nil {
					t.Error(err)
					return
				}
				got, err := ps.ReadPage(id)
				if err != nil {
					t.Error(err)
					return
				}
				if got[0] != byte(id) {
					t.Errorf("page %d corrupted", id)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ps.NumPages() != 1600 {
		t.Errorf("pages = %d", ps.NumPages())
	}
}
