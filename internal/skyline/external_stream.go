package skyline

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/pager"
)

// ExternalStreamResult is the output of the streaming bounded-memory BNL run. Unlike
// ExternalResult it carries the skyline coordinates too: the input was never
// materialized, so the skyline points buffered during the passes are the
// only copy the caller can hand to downstream phases.
type ExternalStreamResult struct {
	// Sky holds the skyline row ids (source positions), ascending.
	Sky []int
	// SkyPoints[i] is the coordinates of row Sky[i].
	SkyPoints [][]float64
	// Passes is the number of passes, including the first over the input.
	Passes int
	// IO charges the input scan plus every overflow write and re-read.
	IO pager.Stats
}

// carryRow is a window survivor carried into the next pass in memory (there
// are at most windowCap of them, so this never breaks the memory bound).
type carryRow struct {
	id int
	p  []float64
}

// ComputeBNLExternalSource is ComputeBNLExternal over a streaming row
// source: the same block-nested-loops algorithm, window discipline,
// timestamp emission rule and sequential I/O accounting, but the unresolved
// overflow between passes lives in a real temporary spill file instead of an
// in-memory index list. Memory is bounded by the window plus the skyline
// itself — an IND-10M input never resides in RAM.
//
// Row ids are source positions. The source must be tombstone-free (streams
// come from generators or on-disk files, which have no deletions); for an
// in-memory mutable dataset use ComputeBNLExternal. Counters are
// bit-identical to the in-memory run on the same rows, which the tests pin.
// Cancellation is polled once per input page.
func ComputeBNLExternalSource(ctx context.Context, src data.Source, windowCap int) (*ExternalStreamResult, error) {
	if windowCap < 1 {
		windowCap = 1
	}
	d := src.Dims()
	counter := pager.NewScanCounter(d)
	pageQuantum := counter.RecordsPerPage()
	res := &ExternalStreamResult{}
	if err := src.Reset(); err != nil {
		return nil, err
	}

	type winEntry struct {
		id int
		p  []float64
		ts int // overflow size when the point entered the window
	}

	var skyIDs []int
	var skyPts [][]float64
	var carry []carryRow // window leftovers of the previous pass
	var spill *spillFile // overflow records of the previous pass
	defer func() {
		if spill != nil {
			spill.discard()
		}
	}()

	recBuf := make([]byte, 8+8*d)
	row := make([]float64, d)
	for pass := 0; ; pass++ {
		spilled := 0
		if spill != nil {
			spilled = spill.count
		}
		var inputTotal int
		if pass == 0 {
			inputTotal = src.Len()
		} else {
			inputTotal = spilled + len(carry)
		}
		if inputTotal == 0 {
			break
		}
		res.Passes++
		window := make([]winEntry, 0, windowCap)
		var next *spillFile // overflow being written this pass
		var spillRd *bufio.Reader
		if spill != nil {
			rd, err := spill.reader()
			if err != nil {
				return nil, err
			}
			spillRd = rd
		}
		for pos := 0; pos < inputTotal; pos++ {
			if pos%pageQuantum == 0 && pos > 0 {
				if err := ctx.Err(); err != nil {
					if next != nil {
						next.discard()
					}
					return nil, err
				}
			}
			counter.Touch(pos)
			// Fetch the pos-th input row: the source on the first pass;
			// afterwards the spill file, then the in-memory carries.
			var id int
			var p []float64
			switch {
			case pass == 0:
				r, err := src.Next()
				if err != nil {
					if next != nil {
						next.discard()
					}
					return nil, fmt.Errorf("skyline: stream row %d: %w", pos, err)
				}
				id, p = pos, r
			case pos < spilled:
				if _, err := io.ReadFull(spillRd, recBuf); err != nil {
					if next != nil {
						next.discard()
					}
					return nil, fmt.Errorf("skyline: read overflow row %d: %w", pos, err)
				}
				id = int(binary.LittleEndian.Uint64(recBuf))
				for j := 0; j < d; j++ {
					row[j] = math.Float64frombits(binary.LittleEndian.Uint64(recBuf[8+8*j:]))
				}
				p = row
			default:
				c := carry[pos-spilled]
				id, p = c.id, c.p
			}

			dominated := false
			for _, w := range window {
				if geom.Dominates(w.p, p) || (geom.Equal(w.p, p) && w.id < id) {
					dominated = true
					break
				}
			}
			// Emitted skyline points are final; checking against them keeps
			// correctness across passes without consuming window budget.
			if !dominated {
				for si, q := range skyPts {
					if geom.Dominates(q, p) || (geom.Equal(q, p) && skyIDs[si] < id) {
						dominated = true
						break
					}
				}
			}
			if dominated {
				continue
			}
			keep := window[:0]
			for _, w := range window {
				if !geom.Dominates(p, w.p) {
					keep = append(keep, w)
				}
			}
			window = keep
			if len(window) < windowCap {
				cp := append([]float64(nil), p...)
				ts := 0
				if next != nil {
					ts = next.count
				}
				window = append(window, winEntry{id: id, p: cp, ts: ts})
			} else {
				// Window full: spill to the overflow file (one write).
				if next == nil {
					nf, err := newSpillFile()
					if err != nil {
						return nil, err
					}
					next = nf
				}
				counter.Touch(next.count)
				if err := next.write(recBuf, id, p); err != nil {
					next.discard()
					return nil, err
				}
			}
		}
		if spill != nil {
			spill.discard()
			spill = nil
		}
		// Emit window points inserted before any spill (they met every
		// unresolved point); carry the rest into the next pass's input.
		carry = carry[:0]
		for _, w := range window {
			if w.ts == 0 {
				skyIDs = append(skyIDs, w.id)
				skyPts = append(skyPts, w.p)
			} else {
				carry = append(carry, carryRow{id: w.id, p: w.p})
			}
		}
		if next != nil {
			if err := next.finish(); err != nil {
				return nil, err
			}
		}
		spill = next
		if spill == nil && len(carry) == 0 {
			break
		}
	}

	// Sort skyline ids ascending, keeping points aligned.
	ord := make([]int, len(skyIDs))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return skyIDs[ord[a]] < skyIDs[ord[b]] })
	res.Sky = make([]int, len(ord))
	res.SkyPoints = make([][]float64, len(ord))
	for i, j := range ord {
		res.Sky[i] = skyIDs[j]
		res.SkyPoints[i] = skyPts[j]
	}
	res.IO = counter.Stats()
	return res, nil
}

// spillFile is one pass's overflow: fixed-size records of row id plus
// coordinates in an unlinked-on-discard temporary file.
type spillFile struct {
	f     *os.File
	bw    *bufio.Writer
	count int
}

func newSpillFile() (*spillFile, error) {
	f, err := os.CreateTemp("", "skydiver-bnl-*.ovf")
	if err != nil {
		return nil, fmt.Errorf("skyline: create overflow file: %w", err)
	}
	return &spillFile{f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (s *spillFile) write(recBuf []byte, id int, p []float64) error {
	binary.LittleEndian.PutUint64(recBuf, uint64(id))
	for j, v := range p {
		binary.LittleEndian.PutUint64(recBuf[8+8*j:], math.Float64bits(v))
	}
	if _, err := s.bw.Write(recBuf); err != nil {
		return fmt.Errorf("skyline: write overflow: %w", err)
	}
	s.count++
	return nil
}

// finish flushes the writer, sealing the file for reading next pass.
func (s *spillFile) finish() error {
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("skyline: flush overflow: %w", err)
	}
	return nil
}

// reader rewinds the file and returns a buffered reader over its records.
func (s *spillFile) reader() (*bufio.Reader, error) {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("skyline: rewind overflow: %w", err)
	}
	return bufio.NewReaderSize(s.f, 1<<16), nil
}

// discard closes and removes the file.
func (s *spillFile) discard() {
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
}
