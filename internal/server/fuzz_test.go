package server

import (
	"errors"
	"net/url"
	"testing"

	"skydiver"
)

// FuzzParseQueryOptions hardens the /query parser against arbitrary query
// strings: no input may panic it, every rejection must wrap
// skydiver.ErrInvalidOptions (the 400 class), and accepted options must be
// in range (K ≥ 1, t ≥ 0, shards ≥ 0).
func FuzzParseQueryOptions(f *testing.F) {
	for _, seed := range []string{
		"",
		"k=10&t=100&seed=7&algo=lsh",
		"k=4&algo=mh&index=1&workers=-1&shards=2",
		"k=3&algo=sg&nocache=1&degraded=1&budget=pages=100,est=50,wall=20ms",
		"k=0",
		"k=-3&t=abc",
		"algo=quantum",
		"t=2000000000&shards=9999999999999999999999",
		"budget=wall=-1s",
		"k=%zz&k=5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		// A malformed escape still leaves the well-formed pairs parsed, as
		// net/http's Request.URL.Query does.
		q, _ := url.ParseQuery(raw)
		opts, err := parseQueryOptions(q, skydiver.Budget{})
		if err != nil {
			if !errors.Is(err, skydiver.ErrInvalidOptions) {
				t.Fatalf("%q: error %v does not wrap ErrInvalidOptions", raw, err)
			}
			return
		}
		if opts.K < 1 || opts.SignatureSize < 0 || opts.Shards < 0 {
			t.Fatalf("%q: accepted K=%d t=%d shards=%d", raw, opts.K, opts.SignatureSize, opts.Shards)
		}
	})
}
