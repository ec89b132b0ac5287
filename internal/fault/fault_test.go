package fault

import (
	"testing"
	"time"
)

type policy struct {
	P    float64
	D    time.Duration
	N    int64
	Seed int64
}

func (p *policy) fields() []Field {
	return []Field{Prob("p", &p.P), Duration("d", &p.D), Count("n", &p.N), Int("seed", &p.Seed)}
}

func parse(s string) (policy, error) {
	var p policy
	err := Parse(s, p.fields()...)
	return p, err
}

// TestParseRules pins the grammar every policy string shares.
func TestParseRules(t *testing.T) {
	accepted := map[string]policy{
		"":                            {},
		"  ":                          {},
		"p=0.5":                       {P: 0.5},
		" P = 1 , D=2ms ,N=3,SEED=-4": {P: 1, D: 2 * time.Millisecond, N: 3, Seed: -4},
		"p=0,d=0s,n=0,seed=0":         {},
	}
	for in, want := range accepted {
		got, err := parse(in)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %+v, %v, want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{
		"p", "=1", "p=0.1,", ",p=0.1", "p=0.1,,n=1", "q=1",
		"p=0.1,p=0.2", "p=0.1,P=0.2",
		"p=NaN", "p=nan", "p=-0.1", "p=1.5", "p=Inf", "p=x", "p=",
		"d=-1ms", "d=fast", "n=-1", "n=1.5", "n=1e6", "seed=1.5",
	} {
		if _, err := parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

// TestFormatRoundTrip: Format prints every field, or only the non-zero
// ones, in declaration order, and Parse reads either form back exactly.
func TestFormatRoundTrip(t *testing.T) {
	p := policy{P: 1.0 / 3, D: time.Hour + time.Nanosecond, N: 1 << 62, Seed: -9}
	cases := []struct {
		p        policy
		omitZero bool
		want     string
	}{
		{policy{}, false, "p=0,d=0s,n=0,seed=0"},
		{policy{}, true, ""},
		{policy{N: 7}, true, "n=7"},
		{p, true, "p=0.3333333333333333,d=1h0m0.000000001s,n=4611686018427387904,seed=-9"},
	}
	for _, tc := range cases {
		if got := Format(tc.omitZero, tc.p.fields()...); got != tc.want {
			t.Errorf("Format(%+v, %v) = %q, want %q", tc.p, tc.omitZero, got, tc.want)
		}
		if back, err := parse(tc.want); err != nil || back != tc.p {
			t.Errorf("Parse(%q) = %+v, %v, want %+v", tc.want, back, err, tc.p)
		}
	}
}
