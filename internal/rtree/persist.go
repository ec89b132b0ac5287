package rtree

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"skydiver/internal/pager"
)

// Persistence format.
//
// Snapshot ("SKSN"): an 8-byte snapshot header, then a complete index image,
// then the warm set — the page ids resident in the decoded-node cache at
// save time. The index image ("SKTR") is a fixed 32-byte header followed by
// the raw page file; it exists only inside a snapshot. Loading a snapshot
// re-attaches a cold buffer pool, so a reloaded index pays the same
// simulated I/O a freshly opened one would, and pre-decodes the warm set
// into the decoded-node cache so the first queries skip the decode storm,
// without touching any simulated counter (the warm install bypasses the
// buffer pools entirely).
const (
	treeMagic   = 0x534b5452 // "SKTR"
	treeVersion = 1
	snapMagic   = 0x534b534e // "SKSN"
	snapVersion = 1

	treeHeaderSize = 32
	// maxTreeHeight bounds the height field during validation: with a
	// minimum fanout of 2 a height beyond 64 cannot index anything real.
	maxTreeHeight = 64
)

// ErrCorruptIndex is wrapped by every load-path validation failure —
// truncated files, wrong magic or version, and header fields that are
// internally inconsistent. errors.Is(err, ErrCorruptIndex) distinguishes a
// damaged file from an I/O error on the reader.
var ErrCorruptIndex = errors.New("rtree: corrupt or invalid index file")

// treeHeader is the decoded fixed header of an index image.
type treeHeader struct {
	dims     int
	root     pager.PageID
	height   int
	size     int
	numPages int
}

func (t *Tree) encodeHeader() []byte {
	hdr := make([]byte, treeHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:], treeMagic)
	binary.LittleEndian.PutUint32(hdr[4:], treeVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(t.dims))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(t.root))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(t.height))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(t.size))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(t.store.NumPages()))
	return hdr
}

// decodeTreeHeader validates a raw index header. Every reject path wraps
// ErrCorruptIndex; the checks are deliberately exhaustive because this is
// the one place untrusted bytes decide allocation sizes and traversal
// bounds. Exercised directly by FuzzTreeHeader.
func decodeTreeHeader(hdr []byte) (treeHeader, error) {
	var h treeHeader
	if len(hdr) < treeHeaderSize {
		return h, fmt.Errorf("%w: truncated header (%d of %d bytes)", ErrCorruptIndex, len(hdr), treeHeaderSize)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != treeMagic {
		return h, fmt.Errorf("%w: bad magic %#x (not a skydiver index)", ErrCorruptIndex, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != treeVersion {
		return h, fmt.Errorf("%w: unsupported index version %d", ErrCorruptIndex, v)
	}
	h.dims = int(binary.LittleEndian.Uint32(hdr[8:]))
	h.root = pager.PageID(binary.LittleEndian.Uint32(hdr[12:]))
	h.height = int(binary.LittleEndian.Uint32(hdr[16:]))
	size := binary.LittleEndian.Uint64(hdr[20:])
	h.numPages = int(binary.LittleEndian.Uint32(hdr[28:]))
	if h.dims <= 0 {
		return h, fmt.Errorf("%w: non-positive dimensionality %d", ErrCorruptIndex, h.dims)
	}
	maxL, maxI := LeafCapacity(h.dims), InternalCapacity(h.dims)
	if maxL < 4 || maxI < 4 {
		return h, fmt.Errorf("%w: dimensionality %d too large for the page size", ErrCorruptIndex, h.dims)
	}
	if h.height < 1 || h.height > maxTreeHeight {
		return h, fmt.Errorf("%w: implausible height %d", ErrCorruptIndex, h.height)
	}
	if h.numPages < 1 {
		return h, fmt.Errorf("%w: page count %d", ErrCorruptIndex, h.numPages)
	}
	if int(h.root) >= h.numPages {
		return h, fmt.Errorf("%w: root page %d out of range (have %d pages)", ErrCorruptIndex, h.root, h.numPages)
	}
	// A tree of height h has at least one node per level, and a leaf holds
	// at most maxL points, so size is bounded by pages × leaf capacity.
	if h.numPages < h.height {
		return h, fmt.Errorf("%w: %d pages cannot hold a tree of height %d", ErrCorruptIndex, h.numPages, h.height)
	}
	if size > uint64(h.numPages)*uint64(maxL) {
		return h, fmt.Errorf("%w: size %d exceeds capacity of %d pages", ErrCorruptIndex, size, h.numPages)
	}
	h.size = int(size)
	return h, nil
}

// writeTo writes the tree's index image: the header and every page.
func (t *Tree) writeTo(w io.Writer) (int64, error) {
	var written int64
	n, err := w.Write(t.encodeHeader())
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("rtree: write header: %w", err)
	}
	for id := 0; id < t.store.NumPages(); id++ {
		raw, err := t.store.ReadPage(pager.PageID(id))
		if err != nil {
			return written, err
		}
		n, err := w.Write(raw)
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("rtree: write page %d: %w", id, err)
		}
	}
	return written, nil
}

// readTree reads one index image (header + pages) from br into store.
func readTree(br *bufio.Reader, store pager.Store) (*Tree, error) {
	hdr := make([]byte, treeHeaderSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%w: read header: %v", ErrCorruptIndex, err)
	}
	h, err := decodeTreeHeader(hdr)
	if err != nil {
		return nil, err
	}
	if store.NumPages() != 0 {
		return nil, fmt.Errorf("rtree: load into non-empty store (%d pages)", store.NumPages())
	}
	maxL, maxI := LeafCapacity(h.dims), InternalCapacity(h.dims)
	t := &Tree{
		store:       store,
		dims:        h.dims,
		root:        h.root,
		height:      h.height,
		size:        h.size,
		maxInternal: maxI,
		minInternal: max(2, int(minFillRatio*float64(maxI))),
		maxLeaf:     maxL,
		minLeaf:     max(2, int(minFillRatio*float64(maxL))),
	}
	t.decoded.Store(newNodeCache())
	buf := make([]byte, pager.PageSize)
	for id := 0; id < h.numPages; id++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("%w: read page %d: %v", ErrCorruptIndex, id, err)
		}
		pid := store.Allocate()
		if err := store.WritePage(pid, buf); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// WriteSnapshot serializes the tree plus a warm-start section: the ids of
// every page currently resident in the decoded-node cache. A snapshot loads
// into a tree whose decode cache is already populated for those pages, so
// warm-start open skips both the bulk load and the first-query decode storm.
func (t *Tree) WriteSnapshot(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapVersion)
	n, err := bw.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("rtree: write snapshot header: %w", err)
	}
	nn, err := t.writeTo(bw)
	written += nn
	if err != nil {
		return written, err
	}
	warm := t.warmPageIDs()
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(warm)))
	n, err = bw.Write(cnt[:])
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("rtree: write warm set: %w", err)
	}
	var idb [4]byte
	for _, id := range warm {
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		n, err = bw.Write(idb[:])
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("rtree: write warm set: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	return written, nil
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot onto the
// simulated in-memory store, pre-decoding the warm set.
func ReadSnapshot(r io.Reader) (*Tree, error) {
	return ReadSnapshotStore(r, pager.NewPageStore())
}

// ReadSnapshotStore is ReadSnapshot onto a caller-provided (empty) store.
func ReadSnapshotStore(r io.Reader, store pager.Store) (*Tree, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%w: read snapshot header: %v", ErrCorruptIndex, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic %#x", ErrCorruptIndex, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != snapVersion {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrCorruptIndex, v)
	}
	t, err := readTree(br, store)
	if err != nil {
		return nil, err
	}
	var cnt [4]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("%w: read warm set: %v", ErrCorruptIndex, err)
	}
	warm := int(binary.LittleEndian.Uint32(cnt[:]))
	if warm > store.NumPages() {
		return nil, fmt.Errorf("%w: warm set of %d pages exceeds the %d-page tree", ErrCorruptIndex, warm, store.NumPages())
	}
	ids := make([]pager.PageID, warm)
	var idb [4]byte
	for i := range ids {
		if _, err := io.ReadFull(br, idb[:]); err != nil {
			return nil, fmt.Errorf("%w: read warm set: %v", ErrCorruptIndex, err)
		}
		id := pager.PageID(binary.LittleEndian.Uint32(idb[:]))
		if int(id) >= store.NumPages() {
			return nil, fmt.Errorf("%w: warm page %d out of range", ErrCorruptIndex, id)
		}
		ids[i] = id
	}
	if err := t.warmDecode(ids); err != nil {
		return nil, err
	}
	t.Reopen(pager.DefaultCacheFraction)
	return t, nil
}

// warmPageIDs returns the sorted ids of every page resident in the decoded-
// node cache (nil when the cache is disabled).
func (t *Tree) warmPageIDs() []pager.PageID {
	dc := t.decoded.Load()
	if dc == nil {
		return nil
	}
	ids := dc.pageIDs()
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// warmDecode decodes the given pages straight into the decoded-node cache,
// bypassing every buffer pool: no simulated read, hit or fault is charged,
// and the cache's own hit/decode counters stay untouched — warm pages look
// exactly as if this process had already decoded them once.
func (t *Tree) warmDecode(ids []pager.PageID) error {
	dc := t.decoded.Load()
	if dc == nil {
		return nil
	}
	for _, id := range ids {
		raw, err := t.store.ReadPage(id)
		if err != nil {
			return fmt.Errorf("rtree: warm load page %d: %w", id, err)
		}
		n, err := decodeNode(id, raw, t.dims)
		if err != nil {
			return fmt.Errorf("%w: warm page %d: %v", ErrCorruptIndex, id, err)
		}
		dc.put(id, n)
	}
	return nil
}
