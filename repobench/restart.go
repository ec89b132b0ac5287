package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"skydiver"
)

// The restart workload reopens IND-100K-4D from its .skd file and a
// warm-start index snapshot into the file-backed page store, answers the
// first Skyline and closes: the storage tier the other workloads keep
// resident.

type restart struct {
	dataPath, snapPath string
	ref                []int // the skyline computed in set-up
	refDecodes         int64 // decodes of the first reopen
	decodes            []float64
}

// newRestart writes the dataset and its snapshot, taken after the first
// skyline so the snapshot's warm set covers what BBS reads. The dataset is
// the cold workload's IND-100K-4D for every workload seed: an operation has
// no other input, and the skyline size of IND-100K-4D swings from 216 to
// 360 across generator seeds, which would spread the runs by 20%.
func newRestart(_ int64, dir string) (instance, error) {
	r := &restart{
		dataPath:   filepath.Join(dir, "restart.skd"),
		snapPath:   filepath.Join(dir, "restart.snap"),
		refDecodes: -1,
	}
	ds, err := skydiver.Generate(skydiver.Independent, coldN, coldDims, coldDataSeed)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	if r.ref, err = ds.Skyline(); err != nil {
		return nil, err
	}
	if err := writeFile(r.dataPath, ds.SaveDataset); err != nil {
		return nil, err
	}
	if err := writeFile(r.snapPath, ds.SaveIndex); err != nil {
		return nil, err
	}
	return r, nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *restart) clients() int               { return 1 }
func (r *restart) prepareTrace(*tracer) error { return nil }
func (r *restart) check() []string            { return nil }
func (r *restart) close()                     {}

func (r *restart) op(p *phase, _, i int) {
	tr := p.tr
	opID := i + 1
	root := tr.begin("op", opID, 0)
	start := time.Now()
	sky, decodes, err := r.reopen(tr, opID, root)
	lat := time.Since(start)
	tr.end(root)
	o, msg := ok, ""
	switch {
	case err != nil:
		o, msg = errored, err.Error()
	case !slices.Equal(sky, r.ref):
		o, msg = mismatch, fmt.Sprintf("reopened skyline has %d points, set-up computed %d", len(sky), len(r.ref))
	case r.refDecodes >= 0 && decodes != r.refDecodes:
		o, msg = mismatch, fmt.Sprintf("first skyline decoded %d pages, the first reopen %d", decodes, r.refDecodes)
	}
	if r.refDecodes < 0 && o == ok {
		r.refDecodes = decodes
	}
	if tr != nil {
		r.decodes = append(r.decodes, float64(decodes))
	}
	p.record(0, lat, true, o, msg)
}

// reopen is one operation: load the data, load the index snapshot into the
// file-backed store, answer the first skyline, close. It returns the
// skyline and the pages the skyline decoded.
func (r *restart) reopen(tr *tracer, opID, root int) ([]int, int64, error) {
	var (
		ds  *skydiver.Dataset
		sky []int
		err error
	)
	tr.do("data.load", opID, root, func() {
		var f *os.File
		if f, err = os.Open(r.dataPath); err != nil {
			return
		}
		defer f.Close()
		ds, err = skydiver.LoadDataset(f, nil)
	})
	if err != nil {
		return nil, 0, err
	}
	tr.do("rtree.snapshot_load", opID, root, func() {
		if err = ds.SetStorage(skydiver.StorageFile); err != nil {
			return
		}
		var f *os.File
		if f, err = os.Open(r.snapPath); err != nil {
			return
		}
		defer f.Close()
		err = ds.LoadIndex(f)
	})
	if err != nil {
		ds.Close()
		return nil, 0, err
	}
	tr.do("skyline.bbs", opID, root, func() { sky, err = ds.Skyline() })
	decodes := ds.DecodeCacheStats().Decodes
	var cerr error
	tr.do("skydiver.close", opID, root, func() { cerr = ds.Close() })
	if err != nil {
		return nil, 0, err
	}
	return sky, decodes, cerr
}

func (r *restart) layers(plain, _ *phase, tr *tracer) map[string]float64 {
	out := runtimeLayers(plain)
	lt := layerTimes(tr.snapshot())
	out["data.load_ms"] = medianOps(lt["data.load"])
	out["rtree.snapshot_load_ms"] = medianOps(lt["rtree.snapshot_load"])
	out["skyline.bbs_ms"] = medianOps(lt["skyline.bbs"])
	out["skydiver.close_ms"] = medianOps(lt["skydiver.close"])
	out["rtree.decodes_per_open"] = median(r.decodes)
	return out
}
