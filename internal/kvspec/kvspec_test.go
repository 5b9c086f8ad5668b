package kvspec

import "testing"

// TestMessagesAndRoundTrip pins the exact error texts -pacing-controller and
// -slo have always answered with, and that String reparses to the same
// values.
func TestMessagesAndRoundTrip(t *testing.T) {
	var a, ab float64
	keys := []Key{
		{Name: "b", Value: &ab, Lo: -1, Hi: 1},
		{Name: "a", Value: &a, Lo: 0, Hi: 10},
	}
	for _, tc := range []struct{ in, want string }{
		{"  ", "pkg: empty thing spec"},
		{"a", `pkg: "a" is not key=value`},
		{" a =x", `pkg: a : strconv.ParseFloat: parsing "x": invalid syntax`},
		{"c=1", `pkg: unknown key "c"`},
		{"c=x", `pkg: c: strconv.ParseFloat: parsing "x": invalid syntax`},
	} {
		if err := Parse("pkg", "thing", keys, tc.in); err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) = %v, want %q", tc.in, err, tc.want)
		}
	}
	for _, s := range []string{"on", "DEFAULT", ",,"} {
		if err := Parse("pkg", "thing", keys, s); err != nil || a != 0 || ab != 0 {
			t.Errorf("Parse(%q) = %v with a=%g b=%g, want no change", s, err, a, ab)
		}
	}
	if err := Parse("pkg", "thing", keys, " A = 2.5 ,, b=-3"); err != nil || a != 2.5 || ab != -3 {
		t.Fatalf("Parse = %v with a=%g b=%g", err, a, ab)
	}
	if err := Check("pkg", keys); err == nil || err.Error() != "pkg: b = -3 outside [-1, 1]" {
		t.Errorf("Check = %v", err)
	}
	s := String(keys)
	if s != "a=2.5,b=-3" {
		t.Errorf("String = %q, want keys sorted by name", s)
	}
	a, ab = 0, 0
	if err := Parse("pkg", "thing", keys, s); err != nil || a != 2.5 || ab != -3 {
		t.Errorf("reparse of %q = %v with a=%g b=%g", s, err, a, ab)
	}
}
