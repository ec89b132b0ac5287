package rtree

import (
	"bytes"
	"errors"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/pager"
)

type rectAlias = geom.Rect

// FuzzDecodeNode hardens the page decoder against arbitrary bytes: it must
// return an error or a structurally sane node, never panic or overread.
func FuzzDecodeNode(f *testing.F) {
	// Seed with a valid leaf page and a valid internal page.
	leaf := &Node{Leaf: true}
	leaf.Entries = append(leaf.Entries, Entry{Rect: pointRect2(1, 2), Count: 1, RowID: 3})
	if buf, err := leaf.encode(2); err == nil {
		f.Add(buf, 2)
	}
	internal := &Node{Entries: []Entry{{Rect: rect2(0, 0, 1, 1), Child: 9, Count: 7}}}
	if buf, err := internal.encode(2); err == nil {
		f.Add(buf, 2)
	}
	f.Add(make([]byte, pager.PageSize), 4)
	f.Add([]byte{1, 255, 255}, 3)
	f.Fuzz(func(t *testing.T, raw []byte, dims int) {
		if dims < 1 || dims > 16 {
			return
		}
		n, err := decodeNode(0, raw, dims)
		if err != nil {
			return
		}
		for i := range n.Entries {
			e := &n.Entries[i]
			if len(e.Rect.Lo) != dims {
				t.Fatalf("decoded entry with %d dims, want %d", len(e.Rect.Lo), dims)
			}
			if n.Leaf && e.Count != 1 {
				t.Fatal("leaf entry count must be 1")
			}
		}
	})
}

// FuzzTreeHeader hardens the index-header parser: arbitrary bytes must
// either decode to an internally consistent header or fail with an error
// wrapping ErrCorruptIndex — never panic, never yield fields that would
// drive out-of-range allocation or traversal.
func FuzzTreeHeader(f *testing.F) {
	// Seed with the header of a real tree and a few mutants.
	ds := data.Independent(200, 3, 1)
	if tr, err := BulkLoad(ds); err == nil {
		f.Add(tr.encodeHeader())
	}
	f.Add(make([]byte, treeHeaderSize))
	f.Add([]byte{0x52, 0x54, 0x4b, 0x53})
	f.Add(corruptHeader(2, 7, 1, 1, 3))
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, err := decodeTreeHeader(raw)
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("reject without ErrCorruptIndex: %v", err)
			}
			return
		}
		if h.dims <= 0 || h.height < 1 || h.height > maxTreeHeight ||
			h.numPages < 1 || int(h.root) >= h.numPages || h.size < 0 {
			t.Fatalf("accepted inconsistent header: %+v", h)
		}
	})
}

// FuzzReadFrom drives the whole load path of ReadSnapshot (snapshot
// header, index header, page stream, warm set) with arbitrary bytes; it
// must never panic.
func FuzzReadFrom(f *testing.F) {
	ds := data.Independent(200, 2, 1)
	if tr, err := BulkLoad(ds); err == nil {
		var buf bytes.Buffer
		if _, err := tr.WriteSnapshot(&buf); err == nil {
			f.Add(buf.Bytes())
			f.Add(buf.Bytes()[:buf.Len()/2])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// A tree that loads must at least survive a structural walk attempt;
		// decode errors are fine, panics are not.
		_ = tr.Walk(func(*Node, int) bool { return true })
	})
}

func pointRect2(x, y float64) (r rectAlias) {
	return rectAlias{Lo: []float64{x, y}, Hi: []float64{x, y}}
}

func rect2(x0, y0, x1, y1 float64) rectAlias {
	return rectAlias{Lo: []float64{x0, y0}, Hi: []float64{x1, y1}}
}
