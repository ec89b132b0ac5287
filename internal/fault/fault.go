// Package fault is the one key=value grammar of the repository's policy
// strings: storage faults (rate, permanent, latency, seed), wire faults
// (drop, fail, corrupt, delay, delayrate, seed) and query budgets (pages,
// wall, est). Each owner binds its keys to its struct's fields and parses
// and formats through Parse and Format, so all three share one set of rules:
// terms are comma-separated key=value pairs with trimmed, case-insensitive
// keys; unknown keys, duplicate keys and malformed terms are rejected;
// probabilities must lie in [0, 1] (NaN is rejected), durations and counts
// must be non-negative; and Parse reads what Format prints back exactly.
// Policy-level rules (defaults, fields that constrain each other, whether an
// empty string is an error) stay with the owner.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Field binds one key of a policy string to the field it sets.
type Field struct {
	key    string
	parse  func(v string) error
	format func() (v string, zero bool)
}

// Prob binds key to a probability in [0, 1].
func Prob(key string, dst *float64) Field {
	return Field{key, func(v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		// Written so that NaN, which fails every comparison, is out of range.
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("probability %v out of [0, 1]", f)
		}
		*dst = f
		return nil
	}, func() (string, bool) { return strconv.FormatFloat(*dst, 'g', -1, 64), *dst == 0 }}
}

// Duration binds key to a non-negative Go duration.
func Duration(key string, dst *time.Duration) Field {
	return Field{key, func(v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		if d < 0 {
			return fmt.Errorf("negative duration %v", d)
		}
		*dst = d
		return nil
	}, func() (string, bool) { return dst.String(), *dst == 0 }}
}

// Count binds key to a non-negative integer.
func Count(key string, dst *int64) Field { return integer(key, dst, 0) }

// Int binds key to any integer (a seed).
func Int(key string, dst *int64) Field { return integer(key, dst, -1<<63) }

func integer(key string, dst *int64, min int64) Field {
	return Field{key, func(v string) error {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return err
		}
		if n < min {
			return fmt.Errorf("negative count %d", n)
		}
		*dst = n
		return nil
	}, func() (string, bool) { return strconv.FormatInt(*dst, 10), *dst == 0 }}
}

// Parse applies the terms of s to the bound fields. A blank s sets nothing
// and is not an error.
func Parse(s string, fields ...Field) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	seen := make([]bool, len(fields))
	for _, term := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(term, "=")
		k = strings.TrimSpace(k)
		if !ok || k == "" {
			return fmt.Errorf("term %q is not key=value", strings.TrimSpace(term))
		}
		i := 0
		for i < len(fields) && !strings.EqualFold(fields[i].key, k) {
			i++
		}
		switch {
		case i == len(fields):
			return fmt.Errorf("unknown key %q", k)
		case seen[i]:
			return fmt.Errorf("duplicate key %q", fields[i].key)
		}
		seen[i] = true
		if err := fields[i].parse(strings.TrimSpace(v)); err != nil {
			return fmt.Errorf("%s: %w", fields[i].key, err)
		}
	}
	return nil
}

// Format renders the bound fields as key=value terms in binding order,
// leaving out zero-valued fields when omitZero is set.
func Format(omitZero bool, fields ...Field) string {
	var terms []string
	for _, f := range fields {
		if v, zero := f.format(); !omitZero || !zero {
			terms = append(terms, f.key+"="+v)
		}
	}
	return strings.Join(terms, ",")
}
