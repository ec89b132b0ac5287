package cluster

import (
	"errors"
	"testing"

	"skydiver/internal/minhash"
)

// FuzzWireFaultPolicy: every string ParseWireFaultPolicy accepts formats to
// a string that parses back to the identical policy, and an injector built
// from it draws without panicking.
func FuzzWireFaultPolicy(f *testing.F) {
	for _, s := range []string{
		"", "seed=7", "drop=0.1", "drop=0.1,fail=0.2,corrupt=0.05,delay=20ms,seed=7",
		"delay=1s,delayrate=0.5", "delayrate=1", "delay=2ms,delayrate=0",
		"drop=0.7,fail=0.3", "drop=NaN", "DELAY = 1h , Seed = -3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseWireFaultPolicy(s)
		if err != nil {
			return
		}
		back, err := ParseWireFaultPolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip of %+v via %q = %+v, %v", p, p.String(), back, err)
		}
		in := newWireInjector(p)
		for i := 0; i < 16; i++ {
			if o := in.draw(); o < faultNone || o > faultDelay {
				t.Fatalf("draw %d = %d, not a fault kind", i, o)
			}
		}
	})
}

// FuzzDecodeMatrix: the coordinator's decoder of worker replies never
// panics, fails only with the dimension check or an error wrapping
// ErrChecksum, and an accepted matrix re-encodes to the checksum it was
// accepted under.
func FuzzDecodeMatrix(f *testing.F) {
	m := minhash.NewMatrix(3, 2)
	m.UpdateColumn(0, []uint32{1, 2, 3})
	m.UpdateColumn(1, []uint32{4, 5, 6})
	sig, crc := EncodeMatrix(m)
	f.Add(sig, 3, 2, crc)
	f.Add(sig, 3, 2, crc+1)
	f.Add(sig, 2, 3, crc)
	f.Add("", 1, 0, uint32(0))
	f.Add("!!!", 3, 2, crc)
	f.Add(sig, 0, 2, crc)
	f.Fuzz(func(t *testing.T, payload string, rows, cols int, crc uint32) {
		// The coordinator decodes against its own query's t and plan's
		// skyline size; keep the fuzzed shape small so the allocation is.
		if rows > 64 || cols > 64 {
			return
		}
		got, err := DecodeMatrix(payload, rows, cols, crc)
		if err != nil {
			if rows >= 1 && cols >= 0 && !errors.Is(err, ErrChecksum) {
				t.Fatalf("DecodeMatrix(%d×%d): %v does not wrap ErrChecksum", rows, cols, err)
			}
			return
		}
		if got.T() != rows || got.Cols() != cols {
			t.Fatalf("decoded %d×%d, want %d×%d", got.T(), got.Cols(), rows, cols)
		}
		if _, again := EncodeMatrix(got); again != crc {
			t.Fatalf("re-encoded checksum %08x, accepted under %08x", again, crc)
		}
	})
}
