package data

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// drain collects every row of a source (copying), asserting the declared
// length is honored.
func drain(t *testing.T, src Source) [][]float64 {
	t.Helper()
	var rows [][]float64
	for {
		row, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		rows = append(rows, append([]float64(nil), row...))
	}
	if len(rows) != src.Len() {
		t.Fatalf("source yielded %d rows, declared %d", len(rows), src.Len())
	}
	return rows
}

// TestSourcesMatchMaterialized pins the tentpole's bit-identity contract:
// every generator's streaming source must produce exactly the rows of its
// materializing constructor, and Reset must replay the identical stream.
func TestSourcesMatchMaterialized(t *testing.T) {
	cases := []struct {
		name string
		src  Source
		ds   *Dataset
	}{
		{"independent", IndependentSource(500, 4, 7), Independent(500, 4, 7)},
		{"correlated", CorrelatedSource(400, 3, 9), Correlated(400, 3, 9)},
		{"anticorrelated", AnticorrelatedSource(450, 5, 3), Anticorrelated(450, 5, 3)},
		{"clustered", ClusteredSource(300, 3, 5, 11), Clustered(300, 3, 5, 11)},
		{"forestcover", ForestCoverSource(250, 2), SyntheticForestCover(250, 2)},
		{"recipes", RecipesSource(250, 4), SyntheticRecipes(250, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.src.Name() != tc.ds.Name() {
				t.Fatalf("name %q vs %q", tc.src.Name(), tc.ds.Name())
			}
			check := func(pass string) {
				i := 0
				for {
					row, err := tc.src.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("%s: %v", pass, err)
					}
					want := tc.ds.Point(i)
					for j := range row {
						if row[j] != want[j] {
							t.Fatalf("%s: row %d dim %d: %v != %v", pass, i, j, row[j], want[j])
						}
					}
					i++
				}
				if i != tc.ds.Len() {
					t.Fatalf("%s: %d rows, want %d", pass, i, tc.ds.Len())
				}
			}
			check("first pass")
			if err := tc.src.Reset(); err != nil {
				t.Fatal(err)
			}
			check("after reset")
		})
	}
}

// TestWriteSourceRoundTrip: streaming a generator to disk and reading it
// back — wholesale via Read or streamed via OpenFile — recovers the
// materialized dataset exactly.
func TestWriteSourceRoundTrip(t *testing.T) {
	src := AnticorrelatedSource(800, 4, 21)
	want := Anticorrelated(800, 4, 21)

	var buf bytes.Buffer
	if err := WriteSource(&buf, src); err != nil {
		t.Fatalf("write source: %v", err)
	}

	// Must be byte-identical to the materializing writer's output.
	var whole bytes.Buffer
	if err := want.Write(&whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), whole.Bytes()) {
		t.Fatal("WriteSource bytes differ from (*Dataset).Write")
	}

	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if got.Name() != want.Name() || got.Len() != want.Len() || got.Dims() != want.Dims() {
		t.Fatal("metadata mismatch after round trip")
	}

	path := filepath.Join(t.TempDir(), "ant.skd")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatalf("open file source: %v", err)
	}
	defer fs.Close()
	for pass := 0; pass < 2; pass++ {
		rows := drain(t, fs)
		for i, row := range rows {
			wantRow := want.Point(i)
			for j := range row {
				if row[j] != wantRow[j] {
					t.Fatalf("pass %d row %d dim %d: %v != %v", pass, i, j, row[j], wantRow[j])
				}
			}
		}
		if err := fs.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenFileRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.skd")
	if err := os.WriteFile(bad, []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); err == nil {
		t.Error("opened a non-dataset file")
	}
	if _, err := OpenFile(filepath.Join(dir, "missing.skd")); err == nil {
		t.Error("opened a missing file")
	}
	// Truncated data section surfaces at Next, not open.
	src := IndependentSource(50, 3, 1)
	var buf bytes.Buffer
	if err := WriteSource(&buf, src); err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.skd")
	if err := os.WriteFile(trunc, buf.Bytes()[:buf.Len()-10], 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(trunc)
	if err != nil {
		t.Fatalf("open truncated: %v", err)
	}
	defer fs.Close()
	var lastErr error
	for {
		_, err := fs.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == io.EOF {
		t.Error("truncated file drained without error")
	}
}

func TestDatasetSourceView(t *testing.T) {
	ds := Independent(100, 3, 5)
	rows := drain(t, ds.Source())
	for i, row := range rows {
		want := ds.Point(i)
		for j := range row {
			if row[j] != want[j] {
				t.Fatalf("row %d dim %d mismatch", i, j)
			}
		}
	}
}

// TestGenerateByName pins the generator table: Generate and GenerateSource
// equal each generator's own constructor bit for bit, for every name in
// any case, with FC and REC projected to d = 4, 5 and 7. Unknown names are
// rejected, and so are FC and REC streams at any d but 7 or d ≤ 0, and
// other generators at d < 1.
func TestGenerateByName(t *testing.T) {
	const n, seed = 300, 5
	fixed := map[string]func() *Dataset{
		"fc":  func() *Dataset { return SyntheticForestCover(n, seed) },
		"rec": func() *Dataset { return SyntheticRecipes(n, seed) },
	}
	free := map[string]func(d int) *Dataset{
		"ind":  func(d int) *Dataset { return Independent(n, d, seed) },
		"ant":  func(d int) *Dataset { return Anticorrelated(n, d, seed) },
		"corr": func(d int) *Dataset { return Correlated(n, d, seed) },
	}
	same := func(tag string, got, want *Dataset) {
		t.Helper()
		if got.Name() != want.Name() || got.Dims() != want.Dims() || fmt.Sprint(got.Values()) != fmt.Sprint(want.Values()) {
			t.Errorf("%s: %s %d-D differs from %s %d-D", tag, got.Name(), got.Dims(), want.Name(), want.Dims())
		}
	}
	generate := func(name string, d int) (*Dataset, *Dataset) {
		t.Helper()
		ds, err := Generate(name, n, d, seed)
		if err != nil {
			t.Fatalf("Generate(%q, d=%d): %v", name, d, err)
		}
		native := d
		if fixed[strings.ToLower(name)] != nil {
			native = 0
		}
		src, err := GenerateSource(name, n, native, seed)
		if err != nil {
			t.Fatalf("GenerateSource(%q, d=%d): %v", name, native, err)
		}
		streamed, err := New(src.Name(), src.Dims(), slices.Concat(drain(t, src)...))
		if err != nil {
			t.Fatal(err)
		}
		return ds, streamed
	}
	for base, build := range free {
		for _, name := range []string{base, strings.ToUpper(base), strings.ToUpper(base[:1]) + base[1:]} {
			for _, d := range []int{2, 4} {
				ds, streamed := generate(name, d)
				same(fmt.Sprintf("%s d=%d", name, d), ds, build(d))
				same(fmt.Sprintf("%s d=%d stream", name, d), streamed, build(d))
			}
		}
	}
	for base, build := range fixed {
		for _, name := range []string{base, strings.ToUpper(base), strings.ToUpper(base[:1]) + base[1:]} {
			for _, d := range []int{4, 5, 7} {
				ds, streamed := generate(name, d)
				want, err := build().Project(d)
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("%s d=%d", name, d), ds, want)
				same(name+" stream", streamed, build())
			}
			if _, err := GenerateSource(name, n, 7, seed); err != nil {
				t.Errorf("GenerateSource(%q, d=7): %v", name, err)
			}
			for _, d := range []int{4, 8} {
				if _, err := GenerateSource(name, n, d, seed); err == nil {
					t.Errorf("GenerateSource(%q, d=%d): no error", name, d)
				}
			}
		}
	}
	for _, name := range []string{"", "xyz", "clust", "ind "} {
		if _, err := Generate(name, n, 3, seed); err == nil {
			t.Errorf("Generate(%q): no error", name)
		}
		if _, err := GenerateSource(name, n, 3, seed); err == nil {
			t.Errorf("GenerateSource(%q): no error", name)
		}
	}
	for _, d := range []int{0, -1} {
		if _, err := Generate("ind", n, d, seed); err == nil {
			t.Errorf("Generate(ind, d=%d): no error", d)
		}
	}
	if !IsGenerator("Corr") || IsGenerator("clust") {
		t.Error("IsGenerator disagrees with the table")
	}
}
