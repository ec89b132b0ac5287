package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"skydiver/internal/data"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
)

// SigGenIBParallel is the subtree-sharded variant of SigGen-IB: the top of
// the R*-tree is expanded by a sequential planner until enough partially
// dominated subtrees exist, then workers traverse those subtrees
// concurrently. The output is bit-for-bit identical to the sequential
// SigGenIB for any worker count.
//
// Why that holds: the sequential traversal assigns row ids with a running
// counter, and its stack discipline makes every partially dominated entry's
// subtree consume exactly Entry.Count consecutive ids. Within one node at
// counter value B, immediately consumed entries (leaf points, and non-leaf
// entries no skyline point partially dominates) take their ids in entry
// order; the partial children are then popped last-pushed-first, so in
// reverse entry order, each receiving the next Count-sized contiguous block.
// The planner replays exactly that arithmetic to give every subtree task its
// absolute starting id, after which subtrees are order-independent: min-fold
// per slot is commutative and associative, and domination scores are integer
// counts whose float64 sums are exact. workers <= 0 uses GOMAXPROCS.
//
// The prepared skyline (see skyPrep) is built once and shared read-only by
// the planner and every worker; each worker folds through its own row
// folder into a private matrix, exactly like the sequential pass. Row ids
// within a task are consecutive, so the hashes step from row to row.
//
// Concurrent node reads go through the reader's internally locked pool, so
// sharing one per-query session across the subtree workers is race-free; the
// total page reads and the resulting fingerprint are schedule-independent,
// but the hit/fault split can vary run to run because workers interleave
// differently in the shared LRU. Callers that pin fault counts (the golden
// harness) should use the sequential SigGenIB.
func SigGenIBParallel(tr rtree.Reader, ds *data.Dataset, sky []int, fam *minhash.Family, workers int) (*Fingerprint, error) {
	return SigGenIBParallelCtx(context.Background(), tr, ds, sky, fam, workers)
}

// ibTask is one independent unit of traversal: the subtree rooted at page,
// whose rows occupy the id range [base, base+count).
type ibTask struct {
	page  pager.PageID
	base  uint64
	count uint64
}

// ibScanner bundles the per-goroutine state of an index-based signature
// pass: a probe of the shared prepared skyline, and a row folder into a
// private fingerprint.
type ibScanner struct {
	probe *skyProbe
	fold  *rowFolder
	fp    *Fingerprint
	rows  uint64   // running row-id counter (absolute)
	stack []ibTask // traversal stack, reused across tasks
}

// newIBScanner returns a scanner folding into a fresh fingerprint; rows, the
// tree's row count, bounds the rows it counts one at a time.
func newIBScanner(prep *skyPrep, fam *minhash.Family, rows int) *ibScanner {
	fp := &Fingerprint{Matrix: minhash.NewMatrix(fam.Size(), prep.m), DomScore: make([]float64, prep.m)}
	return &ibScanner{probe: prep.probe(), fold: newRowFolder(fam, fp, rows), fp: fp}
}

// release returns the scanner's pooled scratch; the fingerprint stays valid.
func (sc *ibScanner) release() { sc.fold.release() }

// consume folds the next count row ids into the fully dominating columns
// full (Figure 4, UpdateFullDominance) and advances the counter past them.
func (sc *ibScanner) consume(full []uint64, count int) {
	sc.fold.foldRun(full, sc.rows, count)
	sc.rows += uint64(count)
}

// scanNode consumes one node's immediately processable entries in entry
// order and appends the partially dominated children to pending in entry
// order (page and count; the base is left to the caller), leaving sc.rows
// advanced past every consumed row.
func (sc *ibScanner) scanNode(node *rtree.Node, pending []ibTask) []ibTask {
	for i := range node.Entries {
		e := &node.Entries[i]
		if node.Leaf {
			// A point entry is either fully dominated by a column or not
			// dominated at all; partial dominance cannot occur.
			if sc.probe.dominatorSet(sc.probe.set, e.Point()) {
				sc.fold.fold(sc.probe.set, sc.rows)
			}
			sc.rows++
			continue
		}
		full, anyPartial := sc.probe.classifyRect(e.Rect)
		if anyPartial {
			pending = append(pending, ibTask{page: e.Child, count: uint64(e.Count)})
			continue
		}
		sc.consume(full, int(e.Count))
	}
	return pending
}

// runSubtree traverses one task's subtree with the sequential stack
// discipline, consuming exactly task.count row ids starting at task.base.
func (sc *ibScanner) runSubtree(ctx context.Context, tr rtree.Reader, task ibTask) error {
	sc.rows = task.base
	stack := append(sc.stack[:0], task)
	defer func() { sc.stack = stack[:0] }()
	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, err := tr.ReadNode(cur.page)
		if err != nil {
			return err
		}
		// Partial children are pushed in entry order and popped in reverse,
		// matching the sequential traversal; bases stay implicit because the
		// scanner's counter advances through them in exactly that order.
		stack = sc.scanNode(node, stack)
	}
	if got := sc.rows - task.base; got != task.count {
		return fmt.Errorf("core: SigGen-IB subtree at page %d consumed %d rows of %d", task.page, got, task.count)
	}
	return nil
}

// SigGenIBParallelCtx is SigGenIBParallel with cancellation (checked before
// every node read) and worker panic containment; error selection is
// deterministic (first failed task by task index). An aborted or failed run
// discards all partial signatures. The planner and every worker fold into
// private fingerprints, so the worker count is capped to keep them together
// within minhash.MaxFingerprintBytes, like the index-free fold's.
func SigGenIBParallelCtx(ctx context.Context, tr rtree.Reader, ds *data.Dataset, sky []int, fam *minhash.Family, workers int) (*Fingerprint, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := len(sky)
	if m == 0 {
		return nil, fmt.Errorf("core: empty skyline")
	}
	if workers = min(workers, privateFingerprints(fam.Size(), m)-1); workers <= 1 {
		return SigGenIBCtx(ctx, tr, ds, sky, fam)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tr.Dims() != ds.Dims() {
		return nil, fmt.Errorf("core: tree dims %d != dataset dims %d", tr.Dims(), ds.Dims())
	}
	prep := prepareSkyline(ds, sky)
	before := tr.Stats()

	// Planner: expand the largest remaining subtree until there are enough
	// tasks to keep the workers busy. Immediate entries met on the way are
	// consumed by the planner itself at their sequential row ids; every
	// emitted task gets the absolute base the sequential counter would have
	// reached it with.
	planner := newIBScanner(prep, fam, tr.Len())
	defer planner.release()
	tasks := []ibTask{{page: tr.Root(), base: 0, count: uint64(tr.Len())}}
	target := 2 * workers
	expansions := 0
	for len(tasks) > 0 && len(tasks) < target && expansions < 4*target {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Split the biggest task; ties go to the lowest index so planning is
		// deterministic.
		bi := 0
		for i := 1; i < len(tasks); i++ {
			if tasks[i].count > tasks[bi].count {
				bi = i
			}
		}
		tk := tasks[bi]
		tasks = append(tasks[:bi], tasks[bi+1:]...)
		node, err := tr.ReadNode(tk.page)
		if err != nil {
			return nil, err
		}
		expansions++
		planner.rows = tk.base
		children := planner.scanNode(node, nil)
		consumed := planner.rows - tk.base
		// The sequential stack pops the partial children in reverse entry
		// order, so the LAST child starts right after the node's immediate
		// consumptions and each earlier child follows its successor's block.
		base := tk.base + consumed
		for i := len(children) - 1; i >= 0; i-- {
			children[i].base = base
			base += children[i].count
		}
		if base != tk.base+tk.count {
			return nil, fmt.Errorf("core: SigGen-IB planner at page %d accounted %d rows of %d", tk.page, base-tk.base, tk.count)
		}
		tasks = append(tasks, children...)
	}

	// Workers drain the task list through an atomic cursor; each folds its
	// subtrees into a private fingerprint. Assignment order is irrelevant —
	// every task's row ids are absolute. A worker beyond the task count would
	// only allocate its private t×m matrix, so none is started.
	workers = min(workers, len(tasks))
	shards := make([]*Fingerprint, workers)
	taskErrs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if workerTestHook != nil {
				workerTestHook(w)
			}
			sc := newIBScanner(prep, fam, tr.Len())
			defer sc.release()
			shards[w] = sc.fp
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					sc.fold.flush()
					return
				}
				func() {
					// Contain panics, as the IF workers do: a bad subtree
					// surfaces as its task's error, not a process crash.
					defer func() {
						if r := recover(); r != nil {
							taskErrs[i] = fmt.Errorf("core: SigGen-IB worker panicked on page %d: %v", tasks[i].page, r)
						}
					}()
					taskErrs[i] = sc.runSubtree(ctx, tr, tasks[i])
				}()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range taskErrs {
		if err != nil {
			return nil, err
		}
	}

	// Merge planner + shards: per-slot minima and score sums, both
	// order-insensitive.
	planner.fold.flush()
	out := planner.fp
	for _, fp := range shards {
		if fp == nil {
			continue
		}
		for c := 0; c < m; c++ {
			out.Matrix.UpdateColumn(c, fp.Matrix.Column(c))
			out.DomScore[c] += fp.DomScore[c]
		}
	}
	// Row accounting: the root task covers [0, Len) exactly; every planner
	// expansion was verified to repartition its range into the consumed
	// prefix plus the children's blocks, and every executed task was
	// verified to consume exactly its block — so all Len() rows were
	// consumed exactly once, the sequential invariant.
	out.IO = tr.Stats().Sub(before)
	return out, nil
}
