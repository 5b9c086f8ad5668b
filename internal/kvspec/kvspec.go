// Package kvspec is the one parser behind muaa-serve's "k=v,..." flag
// values (-pacing-controller, -slo). A package describes its spec once, as a
// table of keys bound to the float64 fields of one config value, and gets
// parsing, range validation and the round-tripping String from that table.
package kvspec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Key is one settable value of a spec: its name, the field it sets and the
// closed range Check holds it to.
type Key struct {
	Name   string
	Value  *float64
	Lo, Hi float64
}

// Parse applies spec s to the fields the keys point at: "on" (or "default")
// changes nothing; otherwise a comma-separated k=v list overrides individual
// fields. Errors are prefixed with pkg; what names the spec in the
// empty-string error ("pacing: empty controller spec") — callers treat the
// empty string as "disabled" before calling. Parsing never panics on any
// input. The caller validates the result.
func Parse(pkg, what string, keys []Key, s string) error {
	s = strings.TrimSpace(s)
	if s == "" {
		return fmt.Errorf("%s: empty %s spec", pkg, what)
	}
	if strings.EqualFold(s, "on") || strings.EqualFold(s, "default") {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("%s: %q is not key=value", pkg, part)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return fmt.Errorf("%s: %s: %v", pkg, key, err)
		}
		k := find(keys, strings.ToLower(strings.TrimSpace(key)))
		if k == nil {
			return fmt.Errorf("%s: unknown key %q", pkg, key)
		}
		*k.Value = f
	}
	return nil
}

func find(keys []Key, name string) *Key {
	for i := range keys {
		if keys[i].Name == name {
			return &keys[i]
		}
	}
	return nil
}

// Check reports the first key, in table order, whose value is NaN or outside
// its range.
func Check(pkg string, keys []Key) error {
	for _, k := range keys {
		if v := *k.Value; math.IsNaN(v) || v < k.Lo || v > k.Hi {
			return fmt.Errorf("%s: %s = %g outside [%g, %g]", pkg, k.Name, v, k.Lo, k.Hi)
		}
	}
	return nil
}

// String renders the keys in Parse's own syntax, sorted by name, so parsing
// the result reproduces every value.
func String(keys []Key) string {
	keys = append([]Key(nil), keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i].Name < keys[j].Name })
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.Name + "=" + strconv.FormatFloat(*k.Value, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}
