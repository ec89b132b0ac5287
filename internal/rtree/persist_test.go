package rtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/pager"
	"skydiver/internal/retry"
)

// snapHeader is the 8-byte header a snapshot opens with, for wrapping a
// hand-built index image.
func snapHeader() []byte {
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapVersion)
	return hdr
}

// snapshotBytes returns tr's snapshot.
func snapshotBytes(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPersistRoundTrip(t *testing.T) {
	ds := data.Anticorrelated(5000, 3, 8)
	orig := mustBulkLoad(t, ds)
	var buf bytes.Buffer
	n, err := orig.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() || got.Dims() != orig.Dims() || got.Height() != orig.Height() {
		t.Fatal("metadata mismatch after reload")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		a, err1 := orig.DominanceCount(p)
		b, err2 := got.DominanceCount(p)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("reloaded tree disagrees: %d vs %d (%v %v)", a, b, err1, err2)
		}
	}
	// The reloaded tree stays mutable.
	if err := got.Insert([]float64{0.5, 0.5, 0.5}, 999999); err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFromCorrupt: reading a snapshot fails on a truncated header, a
// bad magic in either header, and a truncated page file.
func TestReadFromCorrupt(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("expected error for truncated header")
	}
	bad := make([]byte, 40)
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Error("expected error for bad snapshot magic")
	}
	if _, err := ReadSnapshot(bytes.NewReader(append(snapHeader(), bad...))); err == nil {
		t.Error("expected error for bad index magic")
	}
	// Valid headers but truncated pages.
	ds := data.Independent(500, 2, 1)
	tr := mustBulkLoad(t, ds)
	image := 8 + treeHeaderSize + tr.Store().NumPages()*pager.PageSize
	trunc := snapshotBytes(t, tr)[:image-100]
	if _, err := ReadSnapshot(bytes.NewReader(trunc)); err == nil {
		t.Error("expected error for truncated page file")
	}
}

// corruptHeader builds a 32-byte header with the given fields, for probing
// individual validation rules.
func corruptHeader(dims, root, height uint32, size uint64, numPages uint32) []byte {
	hdr := make([]byte, treeHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:], treeMagic)
	binary.LittleEndian.PutUint32(hdr[4:], treeVersion)
	binary.LittleEndian.PutUint32(hdr[8:], dims)
	binary.LittleEndian.PutUint32(hdr[12:], root)
	binary.LittleEndian.PutUint32(hdr[16:], height)
	binary.LittleEndian.PutUint64(hdr[20:], size)
	binary.LittleEndian.PutUint32(hdr[28:], numPages)
	return hdr
}

// TestReadFromCorruptTaxonomy pins that every malformed index-header class,
// read behind a valid snapshot header, is rejected with an error wrapping
// ErrCorruptIndex — never a panic, never a silent misparse.
func TestReadFromCorruptTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		hdr  []byte
	}{
		{"truncated header", []byte{0x52, 0x54}},
		{"bad magic", make([]byte, treeHeaderSize)},
		{"bad version", func() []byte {
			h := corruptHeader(2, 0, 1, 1, 1)
			binary.LittleEndian.PutUint32(h[4:], 99)
			return h
		}()},
		{"zero dims", corruptHeader(0, 0, 1, 1, 1)},
		{"oversized dims", corruptHeader(1<<20, 0, 1, 1, 1)},
		{"zero height", corruptHeader(2, 0, 0, 1, 1)},
		{"implausible height", corruptHeader(2, 0, 1000, 1, 1)},
		{"zero pages", corruptHeader(2, 0, 1, 1, 0)},
		{"root out of range", corruptHeader(2, 7, 1, 1, 3)},
		{"fewer pages than levels", corruptHeader(2, 0, 5, 1, 3)},
		{"size exceeds capacity", corruptHeader(2, 0, 1, 1<<40, 2)},
	}
	for _, tc := range cases {
		_, err := ReadSnapshot(bytes.NewReader(append(snapHeader(), tc.hdr...)))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("%s: error %v does not wrap ErrCorruptIndex", tc.name, err)
		}
	}
	// Truncated page section also wraps the sentinel.
	tr := mustBulkLoad(t, data.Independent(500, 2, 1))
	image := 8 + treeHeaderSize + tr.Store().NumPages()*pager.PageSize
	if _, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, tr)[:image-100])); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("truncated pages: %v does not wrap ErrCorruptIndex", err)
	}
}

// TestSnapshotWarmStart: a snapshot taken from a tree whose decode cache is
// fully resident must reload with every warm page pre-decoded — the first
// query performs zero physical decodes — while answering queries
// identically to the original.
func TestSnapshotWarmStart(t *testing.T) {
	ds := data.Anticorrelated(5000, 3, 8)
	orig := mustBulkLoad(t, ds)
	orig.Reopen(0.2)
	// Touch every node so the decode cache holds the whole tree (bulk load
	// already installs written nodes; the walk makes it explicit).
	if err := orig.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	n, err := orig.WriteSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(snap.Len()) {
		t.Errorf("WriteSnapshot reported %d bytes, wrote %d", n, snap.Len())
	}

	got, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() || got.Dims() != orig.Dims() || got.Height() != orig.Height() {
		t.Fatal("metadata mismatch after snapshot reload")
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		a, err1 := orig.DominanceCount(p)
		b, err2 := got.DominanceCount(p)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("snapshot tree disagrees: %d vs %d (%v %v)", a, b, err1, err2)
		}
	}
	st := got.DecodeCacheStats()
	if st.Decodes != 0 {
		t.Errorf("warm-started tree performed %d physical decodes, want 0", st.Decodes)
	}
	if st.Hits == 0 {
		t.Error("warm-started tree served no decode-cache hits")
	}

	// Corrupt snapshot inputs fail cleanly.
	if _, err := ReadSnapshot(bytes.NewReader([]byte{1})); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("truncated snapshot: %v", err)
	}
	bad := append([]byte(nil), snap.Bytes()...)
	bad[0] ^= 0xff
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("bad snapshot magic: %v", err)
	}
}

// TestPersistFileStoreRoundTrip reloads a snapshot onto a disk-backed
// FileStore and requires query-identical answers: the physical substrate is
// invisible above the pager boundary.
func TestPersistFileStoreRoundTrip(t *testing.T) {
	ds := data.Correlated(3000, 4, 5)
	orig := mustBulkLoad(t, ds)
	fstore, err := pager.CreateFileStore("")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotStore(bytes.NewReader(snapshotBytes(t, orig)), fstore)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		a, err1 := orig.DominanceCount(p)
		b, err2 := got.DominanceCount(p)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("file-backed tree disagrees: %d vs %d (%v %v)", a, b, err1, err2)
		}
	}
}

// faultWorkload runs a fixed query mix through cold per-query sessions under
// an injected fault policy and returns the summed session counters.
func faultWorkload(t *testing.T, tr *Tree, decodeCache bool) pager.Stats {
	t.Helper()
	tr.SetDecodeCache(decodeCache)
	fi, err := pager.NewFaultInjector(pager.FaultPolicy{Rate: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tr.Store().SetFaultInjector(fi)
	defer tr.Store().SetFaultInjector(nil)

	var total pager.Stats
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 20; q++ {
		s := tr.NewSession(pager.DefaultCacheFraction)
		s.SetRetryPolicy(retry.Policy{MaxRetries: 6}) // no backoff: fast and deterministic
		p := make([]float64, tr.Dims())
		for d := range p {
			p[d] = rng.Float64()
		}
		if _, err := s.DominanceCount(p); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		total.Add(s.Stats())
	}
	return total
}

// TestPersistFaultCounterIdentity is the satellite pin: a reloaded tree with
// a cold pool must reproduce bit-identical read/hit/fault/retry counters to
// a freshly bulk-loaded one under the same injected fault schedule — with
// the decode cache on and off, and regardless of the physical store backing
// the reload.
func TestPersistFaultCounterIdentity(t *testing.T) {
	ds := data.Anticorrelated(4000, 3, 11)
	fresh := mustBulkLoad(t, ds)
	snap := snapshotBytes(t, fresh)

	for _, decodeCache := range []bool{true, false} {
		want := faultWorkload(t, fresh, decodeCache)

		reloaded, err := ReadSnapshot(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		if got := faultWorkload(t, reloaded, decodeCache); got != want {
			t.Errorf("decodeCache=%v: reloaded counters diverge:\n  fresh    %+v\n  reloaded %+v", decodeCache, want, got)
		}

		fstore, err := pager.CreateFileStore("")
		if err != nil {
			t.Fatal(err)
		}
		onDisk, err := ReadSnapshotStore(bytes.NewReader(snap), fstore)
		if err != nil {
			t.Fatal(err)
		}
		if got := faultWorkload(t, onDisk, decodeCache); got != want {
			t.Errorf("decodeCache=%v: file-backed counters diverge:\n  fresh %+v\n  file  %+v", decodeCache, want, got)
		}
		onDisk.Close()
	}
}

func TestPersistEmptyishTree(t *testing.T) {
	tr, _ := New(2)
	tr.Insert([]float64{1, 2}, 0)
	got, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := got.RangeCount(geom.Rect{Lo: []float64{0, 0}, Hi: []float64{5, 5}})
	if err != nil || c != 1 {
		t.Errorf("reloaded single-point tree: %d %v", c, err)
	}
}
