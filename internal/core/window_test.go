package core

import (
	"reflect"
	"testing"
)

// TestWindowOracleMatchesGreedy: across repeated solves over different
// synthetic problems, the oracle's reused scratch gives the sort-all
// reference's assignments — same instances, same utility.
func TestWindowOracleMatchesGreedy(t *testing.T) {
	o := &WindowOracle{}
	for seed := int64(1); seed <= 8; seed++ {
		p := smallProblem(t, seed, 20+int(seed)*5, 8+int(seed))
		want, err := sortAllGreedy(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Utility != want.Utility || !reflect.DeepEqual(got.Instances, want.Instances) {
			t.Fatalf("seed %d: window oracle diverged from the reference (%.6f vs %.6f, %d vs %d instances)",
				seed, got.Utility, want.Utility, len(got.Instances), len(want.Instances))
		}
	}
	// Shrinking problems must not read stale scratch from larger ones.
	p := smallProblem(t, 99, 5, 3)
	want, _ := sortAllGreedy(p)
	got, err := o.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Utility != want.Utility || !reflect.DeepEqual(got.Instances, want.Instances) {
		t.Fatal("window oracle diverged after shrinking the problem")
	}
}
