package data

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// readSeeds is the seed corpus of the dataset-file fuzz targets: a valid
// file, an empty input, a zeroed header and a header claiming an enormous
// cardinality.
func readSeeds() [][]byte {
	var buf bytes.Buffer
	if err := Independent(10, 2, 1).Write(&buf); err != nil {
		panic(err)
	}
	// Regression seed: a header claiming an enormous cardinality must not
	// make n*dims overflow into a makeslice panic (found by fuzzing).
	huge := make([]byte, 32)
	copy(huge, buf.Bytes()[:12])
	for i := 12; i < 20; i++ {
		huge[i] = 0xff
	}
	return [][]byte{buf.Bytes(), {}, make([]byte, 24), huge}
}

// FuzzRead hardens the dataset deserializer against arbitrary input.
func FuzzRead(f *testing.F) {
	for _, seed := range readSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Cap pathological allocations: the header encodes n and dims, and
		// Read allocates n*dims floats — reject absurd sizes like a real
		// loader would by bounding the input length.
		if len(raw) > 1<<16 {
			return
		}
		got, err := Read(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if got.Len() < 0 || got.Dims() < 1 {
			t.Fatal("invalid dataset accepted")
		}
	})
}

// FuzzOpenFile holds the streaming reader to Read's verdict on arbitrary
// files. OpenFile followed by a pass of Next to io.EOF accepts exactly the
// files Read accepts; a short file fails with an error, never a panic; and
// on an accepted file each of two passes, separated by Reset, yields
// exactly Len() rows, bit-identical to Read's.
func FuzzOpenFile(f *testing.F) {
	for _, seed := range readSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.skd")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		want, readErr := Read(bytes.NewReader(raw))
		src, err := OpenFile(path)
		if err != nil {
			if readErr == nil {
				t.Fatalf("OpenFile rejects a file Read accepts: %v", err)
			}
			return
		}
		defer src.Close()
		for pass := 1; pass <= 2; pass++ {
			rows := 0
			for ; ; rows++ {
				row, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					if readErr == nil {
						t.Fatalf("pass %d, row %d: %v, but Read accepts the file", pass, rows, err)
					}
					return
				}
				if readErr != nil {
					continue
				}
				if rows >= want.Len() {
					t.Fatalf("pass %d: more rows than Read's %d", pass, want.Len())
				}
				for j, v := range want.Point(rows) {
					if math.Float64bits(row[j]) != math.Float64bits(v) {
						t.Fatalf("pass %d, row %d, dim %d: %v, Read has %v", pass, rows, j, row[j], v)
					}
				}
			}
			if readErr != nil {
				t.Fatalf("pass %d streamed all %d rows of a file Read rejects: %v", pass, rows, readErr)
			}
			if rows != src.Len() || rows != want.Len() {
				t.Fatalf("pass %d: %d rows, Len() %d, Read %d", pass, rows, src.Len(), want.Len())
			}
			if err := src.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
