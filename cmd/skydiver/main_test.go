package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"skydiver"
)

func TestParsePrefs(t *testing.T) {
	got, err := parsePrefs("min, MAX", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != skydiver.Min || got[1] != skydiver.Max {
		t.Errorf("parsePrefs = %v", got)
	}
	if p, err := parsePrefs("", 3); err != nil || p != nil {
		t.Error("empty prefs must be nil, nil")
	}
	if _, err := parsePrefs("min", 2); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := parsePrefs("min,up", 2); err == nil {
		t.Error("expected invalid keyword error")
	}
}

func TestReadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	content := "price,rating\n49,2.8\n\n# comment\n79,3.9\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := readCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][1] != 3.9 {
		t.Errorf("rows = %v", rows)
	}
	// Non-numeric row past the header is an error.
	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("1,2\nx,y\n"), 0o644)
	if _, err := readCSV(bad); err == nil {
		t.Error("expected error for non-numeric row")
	}
	if _, err := readCSV(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestLoadDataset(t *testing.T) {
	if _, err := loadDataset("", "", 10, 2, "", 1); err == nil {
		t.Error("expected error when neither -in nor -gen given")
	}
	if _, err := loadDataset("a.csv", "ind", 10, 2, "", 1); err == nil {
		t.Error("expected mutual-exclusion error")
	}
	ds, err := loadDataset("", "ind", 500, 3, "", 1)
	if err != nil || ds.Len() != 500 || ds.Dims() != 3 {
		t.Errorf("generator path broken: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "h.csv")
	os.WriteFile(path, []byte("49,2.8\n79,3.9\n"), 0o644)
	ds, err = loadDataset(path, "", 0, 0, "min,max", 1)
	if err != nil || ds.Len() != 2 {
		t.Errorf("csv path broken: %v", err)
	}
	if _, err := loadDataset(path, "", 0, 0, "min", 1); err == nil {
		t.Error("expected prefs mismatch error")
	}
}

func TestBinaryDatasetPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.sky")
	ds, err := skydiver.Generate(skydiver.Independent, 300, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveDataset(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !isBinaryDataset(path) {
		t.Fatal("magic sniffing failed")
	}
	got, err := loadDataset(path, "", 0, 0, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 300 || got.Dims() != 2 {
		t.Fatalf("binary load: n=%d d=%d", got.Len(), got.Dims())
	}
	// With explicit preferences the dataset is re-wrapped.
	got, err = loadDataset(path, "", 0, 0, "min,max", 1)
	if err != nil || got.Len() != 300 {
		t.Fatalf("binary load with prefs: %v", err)
	}
	// CSV files are not mistaken for binary.
	csv := filepath.Join(dir, "x.csv")
	os.WriteFile(csv, []byte("1,2\n"), 0o644)
	if isBinaryDataset(csv) {
		t.Error("CSV sniffed as binary")
	}
	if isBinaryDataset(filepath.Join(dir, "missing")) {
		t.Error("missing file sniffed as binary")
	}
}

func TestServeParallelAgrees(t *testing.T) {
	ds, err := skydiver.Generate(skydiver.Independent, 1000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := serve(context.Background(), ds, skydiver.Options{K: 3, Seed: 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) != 3 {
		t.Fatalf("serve returned %d indexes", len(res.Indexes))
	}
	// n = 1 takes the plain path.
	solo, err := serve(context.Background(), ds, skydiver.Options{K: 3, Seed: 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(res, solo) {
		t.Errorf("parallel result %v differs from solo %v", res.Indexes, solo.Indexes)
	}
}

func TestSameResult(t *testing.T) {
	a := &skydiver.Result{Indexes: []int{1, 2}, ObjectiveValue: 0.5}
	if !sameResult(a, &skydiver.Result{Indexes: []int{1, 2}, ObjectiveValue: 0.5}) {
		t.Error("equal results reported different")
	}
	if sameResult(a, &skydiver.Result{Indexes: []int{1, 3}, ObjectiveValue: 0.5}) {
		t.Error("different indexes reported equal")
	}
	if sameResult(a, &skydiver.Result{Indexes: []int{1, 2}, ObjectiveValue: 0.4}) {
		t.Error("different objectives reported equal")
	}
	if sameResult(a, &skydiver.Result{Indexes: []int{1}, ObjectiveValue: 0.5}) {
		t.Error("different lengths reported equal")
	}
}
