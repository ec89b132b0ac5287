package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/lsh"
	"skydiver/internal/minhash"
	"skydiver/internal/rtree"
)

// This file implements write maintenance: incremental skyline maintenance,
// plus in-place repair of MinHash fingerprints. The invariant is the one
// the dynamic package's property tests pin: after an insert or delete, the
// skyline and every migrated fingerprint are bit-identical to what a
// from-scratch recompute would produce (min-folds are order-independent, so
// patching a column is equivalent to rebuilding it).
//
// A Dataset has one write path, ApplyInsertBatch and ApplyDeleteBatch; a
// single write is a batch of one. The maintenance reads rows through a
// rowSource. A Dataset's writes read its R*-tree with bounded dominance
// range queries; there row ids are dataset indexes, never reused: deletes
// tombstone the row in the dataset and remove it from the tree, so hash
// identities stay stable and resident signatures stay meaningful. A stream
// monitor's window (window.go) is the other source; its row ids are stream
// sequence numbers. Callers serialize mutations against queries; nothing
// here locks.

// rowSource is where write maintenance reads rows: a Dataset's live rows
// through its R*-tree (treeSource), or a stream monitor's sliding window
// (Window). The skyline halves of inserts and deletes and the fingerprint
// patches below read rows only through it, so both run one code path.
type rowSource interface {
	// point returns the coordinates of a live row.
	point(row int) []float64
	// region calls visit, in no particular order, for every live row q in
	// p's dominance region: every row p dominates or equals.
	region(p []float64, visit func(row int, q []float64)) error
	// repair recomputes, in the columns cols of mx (positions in the
	// skyline sky), the slots a departed row with hash values hv held,
	// from the rows each column still dominates, and calls changed for
	// each column whose slots it changed.
	repair(fam *minhash.Family, mx *minhash.Matrix, hv []uint32, sky, cols []int, changed func(c int)) error
}

// treeSource is a Dataset's live rows, found by bounded range queries over
// its R*-tree. The tree holds live rows only, so tombstones never appear.
// gammas memoizes Γ per skyline row for the repairs of one delete, shared
// by every fingerprint it migrates.
type treeSource struct {
	ds     *data.Dataset
	tr     *rtree.Tree
	gammas map[int][]int
}

func (s *treeSource) point(row int) []float64 { return s.ds.Point(row) }

// region is one range query over p's dominance region.
func (s *treeSource) region(p []float64, visit func(row int, q []float64)) error {
	return s.tr.RangeQuery(domRect(p), func(rowID uint32, q []float64) bool {
		visit(int(rowID), q)
		return true
	})
}

// repair refolds each column's held slots over the column's Γ, found by
// one range query per column (Matrix.RemoveRow).
func (s *treeSource) repair(fam *minhash.Family, mx *minhash.Matrix, hv []uint32, sky, cols []int, changed func(c int)) error {
	for _, c := range cols {
		gamma, ok := s.gammas[sky[c]]
		if !ok {
			var err error
			if gamma, err = gammaRows(s, s.ds.Point(sky[c])); err != nil {
				return err
			}
			if s.gammas == nil {
				s.gammas = map[int][]int{}
			}
			s.gammas[sky[c]] = gamma
		}
		if mx.RemoveRow(c, hv, fam, gamma) {
			changed(c)
		}
	}
	return nil
}

// domRect is the dominance region of p: every point with all coordinates
// ≥ p, i.e. exactly the points p dominates or equals.
func domRect(p []float64) geom.Rect {
	r := geom.Rect{Lo: append([]float64(nil), p...), Hi: make([]float64, len(p))}
	for d := range r.Hi {
		r.Hi[d] = math.Inf(1)
	}
	return r
}

// gammaRows returns Γ(p): the live rows of src strictly dominated by p.
func gammaRows(src rowSource, p []float64) ([]int, error) {
	var rows []int
	err := src.region(p, func(row int, q []float64) {
		if geom.Dominates(p, q) {
			rows = append(rows, row)
		}
	})
	return rows, err
}

// skyInsertion describes what an insert did to the skyline, in terms every
// resident fingerprint can be patched with.
type skyInsertion struct {
	row     int
	joined  bool
	domCols []int // excluded case: columns (old sky positions) dominating row
	demoted []int // joined case: old sky positions removed
	gamma   []int // joined case: Γ(row), the new column's fold set
}

// skyDeletion describes what a delete did to the skyline.
type skyDeletion struct {
	row     int
	wasSky  bool
	skyPos  int   // wasSky: the removed column's old position
	domCols []int // !wasSky: columns whose Γ lost the row
	// promoted lists, ascending, the rows that entered the skyline and their
	// positions in the NEW skyline, with their Γ fold sets.
	promoted []promotion
	// src and oldSky serve the repair of the !wasSky columns some
	// fingerprint's slots need.
	src    rowSource
	oldSky []int
}

type promotion struct {
	row   int
	at    int // position in the new skyline
	gamma []int
}

// ApplyInsertBatch appends pts in order to the dataset and the tree, updates
// the skyline incrementally (one dominance test per skyline member, plus one
// bounded range query for a point that joins), migrates every resident
// index-free fingerprint to newEpoch by patching — not rebuilding — its
// matrix in place, and returns the new skyline and the new points' row
// ids. The per-point patches are composed in order on each resident
// fingerprint, which is exactly equivalent to chaining per-point migrations
// (min-folds commute and every patch transforms the matrix from the state
// the previous one left), so a batch of one is a single insert.
//
// sky is the current skyline (ascending dataset indexes); nil reads as an
// empty one, which is what BBS returns for a tree with no live rows.
// Index-based fingerprints are dropped rather than migrated: their row ids
// are traversal-order, which a structural tree mutation invalidates
// wholesale.
//
// On a mid-batch failure the successfully applied prefix stays applied, the
// failing point is retired (tombstoned and removed from the tree) where the
// tree allows it, every resident fingerprint is dropped, and the applied
// rows so far are returned alongside the error; the caller invalidates its
// skyline and recomputes lazily.
func ApplyInsertBatch(ds *data.Dataset, tr *rtree.Tree, sky []int, cache *FingerprintCache, oldEpoch, newEpoch uint64, pts [][]float64) ([]int, []int, error) {
	if tr == nil {
		return nil, nil, fmt.Errorf("core: mutation requires the index")
	}
	cur := sky
	rows := make([]int, 0, len(pts))
	patches := make([]skyInsertion, 0, len(pts))
	for _, p := range pts {
		next, ins, row, err := applyInsertStorage(ds, tr, cur, p)
		if err != nil {
			if cache != nil {
				cache.Purge()
			}
			return nil, rows, err
		}
		cur = next
		rows = append(rows, row)
		patches = append(patches, ins)
	}
	migrateFingerprints(cache, oldEpoch, newEpoch, sky, cur, func(p *fpPatch) error {
		for _, ins := range patches {
			p.insert(ins)
		}
		return nil
	})
	return cur, rows, nil
}

// applyInsertStorage performs the storage and skyline half of one insert —
// append, tree insert, incremental skyline update, Γ fold set — and returns
// the new skyline plus the fingerprint patch describing what happened. It
// never touches the cache. On failure the dataset is left consistent: the
// row, if it became visible, is retired again where the tree allows it.
func applyInsertStorage(ds *data.Dataset, tr *rtree.Tree, sky []int, p []float64) ([]int, skyInsertion, int, error) {
	if len(p) != ds.Dims() {
		return nil, skyInsertion{}, -1, fmt.Errorf("core: point has %d dims, dataset has %d", len(p), ds.Dims())
	}
	row, err := ds.Append(p)
	if err != nil {
		return nil, skyInsertion{}, -1, err
	}
	if err := tr.Insert(ds.Point(row), uint32(row)); err != nil {
		// The append is already visible; tombstone it so dataset and tree
		// agree — the caller treats the failure as "recompute everything
		// lazily".
		ds.MarkDeleted(row)
		return nil, skyInsertion{}, row, err
	}
	newSky, ins, err := insertSkyline(&treeSource{ds: ds, tr: tr}, sky, row)
	if err != nil {
		// Maintenance failed mid-way (a range query fault): retire the new
		// row and let the caller fall back to a wholesale recompute. The
		// tombstone is applied only if the tree removal succeeds — tree and
		// tombstones must agree on which rows exist, or BBS could serve a
		// deleted row.
		if _, derr := tr.Delete(ds.Point(row), uint32(row)); derr == nil {
			ds.MarkDeleted(row)
		}
		return nil, skyInsertion{}, row, err
	}
	return newSky, ins, row, nil
}

// insertSkyline is the skyline half of an insert: row, already live in src
// and its largest row id, is tested against every skyline member; when it
// joins, the members it dominates are demoted and its Γ fold set is read
// from src. It returns the new skyline and the fingerprint patch.
func insertSkyline(src rowSource, sky []int, row int) ([]int, skyInsertion, error) {
	ins := skyInsertion{row: row}
	pt := src.point(row)
	excluded := false
	for c, s := range sky {
		sp := src.point(s)
		if geom.Dominates(sp, pt) {
			ins.domCols = append(ins.domCols, c)
			excluded = true
		} else if geom.Equal(sp, pt) {
			// The older twin keeps the membership; under strict dominance
			// neither twin enters the other's Γ.
			excluded = true
		}
	}
	if excluded {
		return sky, ins, nil
	}
	ins.joined = true
	for c, s := range sky {
		if geom.Dominates(pt, src.point(s)) {
			ins.demoted = append(ins.demoted, c)
		}
	}
	newSky := make([]int, 0, len(sky)+1)
	d := 0
	for c, s := range sky {
		if d < len(ins.demoted) && ins.demoted[d] == c {
			d++
			continue
		}
		newSky = append(newSky, s)
	}
	newSky = append(newSky, row) // largest row id ⇒ last
	// Γ(row) holds row itself only if an equal twin existed, which the join
	// case excludes; strict dominance already filtered it.
	var err error
	if ins.gamma, err = gammaRows(src, pt); err != nil {
		return nil, skyInsertion{}, err
	}
	return newSky, ins, nil
}

// ApplyDeleteBatch tombstones the given rows in order, removes them from the
// tree, updates the skyline incrementally (a departed member's replacements
// are found by one bounded dominance range query; a non-member's departure
// touches only the columns where its hashes achieved a slot minimum), and
// migrates resident index-free fingerprints to newEpoch, composing the
// per-row patches exactly as ApplyInsertBatch does. It returns the new
// skyline. The rows must be distinct and live; sky is the current skyline,
// nil reading as an empty one. On a mid-batch failure the applied prefix
// stays applied, every resident fingerprint is dropped and the caller
// invalidates its skyline.
func ApplyDeleteBatch(ds *data.Dataset, tr *rtree.Tree, sky []int, cache *FingerprintCache, oldEpoch, newEpoch uint64, rows []int) ([]int, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: mutation requires the index")
	}
	cur := sky
	patches := make([]*skyDeletion, 0, len(rows))
	for _, row := range rows {
		next, del, err := applyDeleteStorage(ds, tr, cur, row)
		if err != nil {
			if cache != nil {
				cache.Purge()
			}
			return nil, err
		}
		cur = next
		patches = append(patches, del)
	}
	migrateFingerprints(cache, oldEpoch, newEpoch, sky, cur, func(p *fpPatch) error {
		for _, del := range patches {
			if err := p.delete(del); err != nil {
				return err
			}
		}
		return nil
	})
	return cur, nil
}

// applyDeleteStorage performs the storage and skyline half of one delete
// and returns the new skyline plus the fingerprint patch. It never touches
// the cache. The lazy Γ refolds recorded in the patch run against the tree
// as it stands at patch time — later deletes in a batch only shrink Γ
// toward the state a from-scratch rebuild at the new epoch would see, so
// composing patches stays exact.
func applyDeleteStorage(ds *data.Dataset, tr *rtree.Tree, sky []int, row int) ([]int, *skyDeletion, error) {
	if row < 0 || row >= ds.Len() || ds.Deleted(row) {
		return nil, nil, fmt.Errorf("core: row %d does not exist", row)
	}
	pt := append([]float64(nil), ds.Point(row)...)
	found, err := tr.Delete(ds.Point(row), uint32(row))
	if err != nil {
		// The delete did not apply (the row keeps serving); the caller purges
		// resident fingerprints anyway in case the failed traversal left
		// partially rewritten pages, and invalidates its skyline.
		return nil, nil, err
	}
	if !found {
		return nil, nil, fmt.Errorf("core: row %d missing from the index", row)
	}
	ds.MarkDeleted(row)
	return deleteSkyline(&treeSource{ds: ds, tr: tr}, sky, row, pt)
}

// deleteSkyline is the skyline half of a delete: row, whose point was pt,
// has left src. A departed member's replacements are the rows of its
// dominance region that no surviving member excludes, reduced to their own
// skyline, each with its Γ fold set; a non-member's departure only lists
// the columns that dominated it, to be repaired per fingerprint.
func deleteSkyline(src rowSource, sky []int, row int, pt []float64) ([]int, *skyDeletion, error) {
	del := &skyDeletion{row: row, src: src, oldSky: sky}
	pos := sort.SearchInts(sky, row)
	del.wasSky = pos < len(sky) && sky[pos] == row
	if !del.wasSky {
		for c, s := range sky {
			if geom.Dominates(src.point(s), pt) {
				del.domCols = append(del.domCols, c)
			}
		}
		return sky, del, nil
	}
	del.skyPos = pos
	rest := make([]int, 0, len(sky)-1)
	rest = append(rest, sky[:pos]...)
	rest = append(rest, sky[pos+1:]...)
	// Candidates: the rows only this member excluded. Its dominance region
	// holds exactly the rows it dominated or equalled; among them, keep
	// those no surviving member excludes.
	var cands []int
	err := src.region(pt, func(r int, q []float64) {
		for _, s := range rest {
			sp := src.point(s)
			if geom.Dominates(sp, q) || (geom.Equal(sp, q) && s < r) {
				return
			}
		}
		cands = append(cands, r)
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Ints(cands)
	for _, q := range miniSkylineRows(src, cands) {
		gamma, err := gammaRows(src, src.point(q))
		if err != nil {
			return nil, nil, err
		}
		at := sort.SearchInts(rest, q)
		rest = append(rest, 0)
		copy(rest[at+1:], rest[at:])
		rest[at] = q
		del.promoted = append(del.promoted, promotion{row: q, at: at, gamma: gamma})
	}
	return rest, del, nil
}

// miniSkylineRows computes the skyline among the promotion candidates
// (ascending row ids) with the first-of-duplicates tie-break — candidates
// may dominate each other even though none is dominated by the surviving
// skyline.
func miniSkylineRows(src rowSource, cands []int) []int {
	var keep []int
	for _, x := range cands {
		p := src.point(x)
		excluded := false
		for _, y := range keep {
			q := src.point(y)
			if geom.Dominates(q, p) || geom.Equal(q, p) {
				excluded = true
				break
			}
		}
		if excluded {
			continue
		}
		out := keep[:0]
		for _, y := range keep {
			if !geom.Dominates(p, src.point(y)) {
				out = append(out, y)
			}
		}
		keep = append(out, x)
	}
	sort.Ints(keep)
	return keep
}

// migrateFingerprints walks the resident cache entries: completed index-free
// fingerprints from oldEpoch are patched in place and re-keyed to newEpoch;
// everything else from oldEpoch (index-based entries, whose traversal-order
// row ids a structural mutation invalidates, and any in-flight build) is
// dropped. Entries from other epochs are already unreachable and are
// dropped too. A patch that fails (a refold's range query hit a storage
// fault) just drops its entry — a cache miss is safe, a half-patched
// matrix would not be. Patching in place needs no copy: every query holds
// the dataset's read lock for its whole run and a write holds the write
// lock, so no query sees an entry while it is patched.
//
// An entry's memoized LSH bit-vectors and its pick orders' distance rows
// follow its columns (fpPatch): the bit-vectors of changed and joined
// columns are hashed again, and the rows keep every count between two
// columns the write left unchanged. The orders are emptied: the greedy's
// order depends on every domination score and column, which a write moves.
func migrateFingerprints(cache *FingerprintCache, oldEpoch, newEpoch uint64, oldSky, newSky []int, patch func(p *fpPatch) error) {
	if cache == nil {
		return
	}
	var runs []colRun // the columns the write kept, computed for the first entry
	for _, key := range cache.CompletedEntries() {
		if key.Epoch != oldEpoch || key.Mode != IndexFree {
			cache.Drop(key)
			continue
		}
		fp, ok := cache.Peek(key)
		if !ok {
			continue
		}
		cache.Drop(key)
		if fp.fam == nil {
			fam, err := minhash.NewFamily(key.T, key.Seed)
			if err != nil {
				continue
			}
			fp.fam = fam
		}
		p := newFPPatch(fp)
		if err := patch(p); err != nil {
			continue
		}
		if runs == nil {
			runs = columnRuns(oldSky, newSky)
		}
		p.finish(runs)
		newKey := key
		newKey.Epoch = newEpoch
		cache.Install(newKey, fp)
	}
	// In-flight builds at the old epoch publish to their waiters and age out
	// of the LRU; they can never be hit again because Get keys on the epoch.
}

// colRun is a run of n consecutive skyline columns a write kept, in order:
// old columns src.. are new columns dst...
type colRun struct{ src, dst, n int }

// columnRuns lists the maximal runs of consecutive columns of newSky that
// hold the same rows as consecutive columns of oldSky; a column outside
// every run joined the skyline or left it. Both lists are ascending row
// ids, so one merge covers single writes and batches, demotions and
// promotions alike, and the runs are ascending in both positions.
func columnRuns(oldSky, newSky []int) []colRun {
	runs := []colRun{}
	i := 0
	for j, row := range newSky {
		for i < len(oldSky) && oldSky[i] < row {
			i++
		}
		if i == len(oldSky) || oldSky[i] != row {
			continue
		}
		if k := len(runs) - 1; k >= 0 && runs[k].src+runs[k].n == i && runs[k].dst+runs[k].n == j {
			runs[k].n++
		} else {
			runs = append(runs, colRun{src: i, dst: j, n: 1})
		}
	}
	return runs
}

// fpPatch is one fingerprint under a write's patches, which change its
// matrix and scores in place. For a cache entry it also moves what the
// entry keeps beside the matrix in step with the columns: changed records,
// per current column, whether a patch changed its slots or it joined, and
// the entry's LSH bit-vectors gain and lose columns with the matrix; finish
// then rehashes the changed columns' vectors and carries the pick orders.
// A stream monitor's fingerprint keeps nothing beside its matrix, and its
// changed is nil.
type fpPatch struct {
	fp      *Fingerprint
	fam     *minhash.Family
	hv      []uint32 // the hash values of the row being folded
	changed []bool
	vectors *lsh.BitVectors
}

// newFPPatch readies a cache entry for a write's patches.
func newFPPatch(fp *Fingerprint) *fpPatch {
	if fp.lsh == nil {
		fp.lsh = new(atomic.Pointer[lshVectors])
	}
	if fp.picks == nil {
		fp.picks = new(pickOrder)
	}
	p := &fpPatch{fp: fp, fam: fp.fam, hv: make([]uint32, fp.fam.Size()), changed: make([]bool, fp.Matrix.Cols())}
	if v := fp.lshMemo(); v != nil {
		p.vectors = v.vectors
	}
	return p
}

// finish ends a cache entry's patches: runs are the columns the write
// kept (columnRuns).
func (p *fpPatch) finish(runs []colRun) {
	var fresh []int // the columns whose signatures changed or that joined
	for c, ch := range p.changed {
		if ch {
			fresh = append(fresh, c)
		}
	}
	if v := p.fp.lshMemo(); v != nil {
		for _, c := range fresh {
			v.vectors.Rehash(c, p.fp.Matrix.Column(c))
		}
		v.picks.carry(runs, fresh, len(p.changed))
	}
	p.fp.picks.carry(runs, fresh, len(p.changed))
}

// mark records that column c's slots changed.
func (p *fpPatch) mark(c int) {
	if p.changed != nil {
		p.changed[c] = true
	}
}

// fold folds the hash values in hv, whose minimum is minHv, into column c.
func (p *fpPatch) fold(c int, minHv uint32) {
	if p.fp.Matrix.UpdateColumnBounded(c, p.hv, minHv) {
		p.mark(c)
	}
}

// insertColumn adds an empty column of score score at position at.
func (p *fpPatch) insertColumn(at int, score float64) {
	p.fp.Matrix.InsertColumn(at)
	p.fp.DomScore = slices.Insert(p.fp.DomScore, at, score)
	if p.changed != nil {
		p.changed = slices.Insert(p.changed, at, true)
	}
	if p.vectors != nil {
		p.vectors.InsertColumn(at)
	}
}

// removeColumns drops the columns at the ascending positions at.
func (p *fpPatch) removeColumns(at []int) {
	p.fp.Matrix.RemoveColumns(at)
	p.fp.DomScore = removePositions(p.fp.DomScore, at)
	if p.changed != nil {
		p.changed = removePositions(p.changed, at)
	}
	if p.vectors != nil {
		p.vectors.RemoveColumns(at)
	}
}

// insert repairs the fingerprint for an insert: an excluded point folds
// into its dominators' columns; a joining point drops the demoted columns
// and gains a column built from its Γ fold set.
func (p *fpPatch) insert(ins skyInsertion) {
	fam, fp := p.fam, p.fp
	if !ins.joined {
		if len(ins.domCols) == 0 {
			return
		}
		minHv := fam.HashAllMin(p.hv, uint64(ins.row))
		for _, c := range ins.domCols {
			p.fold(c, minHv)
			fp.DomScore[c]++
		}
		return
	}
	if len(ins.demoted) > 0 {
		p.removeColumns(ins.demoted)
	}
	at := fp.Matrix.Cols() // largest row id ⇒ last column
	p.insertColumn(at, float64(len(ins.gamma)))
	for _, r := range ins.gamma {
		p.fold(at, fam.HashAllMin(p.hv, uint64(r)))
	}
}

// delete repairs the fingerprint for a delete. A departed non-member
// decrements its dominators' scores and, in every column where its hashes
// held a slot minimum, recomputes just those slots over the column's
// remaining rows; a departed member's column is removed and each promoted
// row gains a freshly folded column at its skyline position.
func (p *fpPatch) delete(del *skyDeletion) error {
	fam, fp := p.fam, p.fp
	if !del.wasSky {
		if len(del.domCols) == 0 {
			return nil
		}
		fam.HashAll(p.hv, uint64(del.row))
		var held []int
		for _, c := range del.domCols {
			fp.DomScore[c]--
			if fp.Matrix.ColumnMatchesAny(c, p.hv) {
				held = append(held, c)
			}
		}
		if len(held) == 0 {
			return nil
		}
		return del.src.repair(fam, fp.Matrix, p.hv, del.oldSky, held, p.mark)
	}
	p.removeColumns([]int{del.skyPos})
	for _, pr := range del.promoted {
		p.insertColumn(pr.at, float64(len(pr.gamma)))
		for _, r := range pr.gamma {
			p.fold(pr.at, fam.HashAllMin(p.hv, uint64(r)))
		}
	}
	return nil
}

// removePositions drops the given ascending positions from s.
func removePositions[T any](s []T, at []int) []T {
	w, r := at[0], 0
	for c := at[0]; c < len(s); c++ {
		if r < len(at) && at[r] == c {
			r++
			continue
		}
		s[w] = s[c]
		w++
	}
	return s[:w]
}
