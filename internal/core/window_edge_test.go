package core

// WindowOracle edge cases: the live audit loop hands the oracle whatever the
// window holds — including nothing at all — so degenerate problems must
// solve cleanly, and a reused oracle must not carry scratch from a real
// problem into an empty one (or back).

import (
	"reflect"
	"testing"

	"muaa/internal/model"
)

func emptyAdTypes() []model.AdType {
	return []model.AdType{{Name: "TL", Cost: 1, Effect: 0.1}}
}

func TestWindowOracleEmptyProblem(t *testing.T) {
	o := &WindowOracle{}
	cases := map[string]*model.Problem{
		"no customers, no vendors": {AdTypes: emptyAdTypes()},
		"no customers":             smallProblemNoCustomers(t),
		"no vendors":               {Customers: smallProblem(t, 1, 3, 2).Customers, AdTypes: emptyAdTypes()},
	}
	for name, p := range cases {
		a, err := o.Solve(p)
		if err != nil {
			t.Fatalf("%s: Solve = %v", name, err)
		}
		if a.Utility != 0 || len(a.Instances) != 0 {
			t.Fatalf("%s: want empty assignment, got utility %g with %d instances",
				name, a.Utility, len(a.Instances))
		}
	}
}

func smallProblemNoCustomers(t *testing.T) *model.Problem {
	t.Helper()
	p := smallProblem(t, 2, 3, 2)
	p.Customers = nil
	return p
}

// TestWindowOracleEmptyBetweenSolves: a real solve, then an empty one, then
// the same real problem again — the scratch reuse must not leak state in
// either direction.
func TestWindowOracleEmptyBetweenSolves(t *testing.T) {
	o := &WindowOracle{}
	p := smallProblem(t, 3, 15, 6)
	want, err := sortAllGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := o.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Utility != want.Utility || !reflect.DeepEqual(got.Instances, want.Instances) {
			t.Fatalf("round %d: oracle diverged from the reference after empty solve", round)
		}
		empty, err := o.Solve(&model.Problem{AdTypes: emptyAdTypes()})
		if err != nil {
			t.Fatal(err)
		}
		if empty.Utility != 0 || len(empty.Instances) != 0 {
			t.Fatalf("round %d: empty problem yielded utility %g", round, empty.Utility)
		}
	}
}

// TestWindowOracleSingleCustomer: the smallest non-empty window — one
// arrival — must solve without touching paths sized for full windows.
func TestWindowOracleSingleCustomer(t *testing.T) {
	o := &WindowOracle{}
	p := smallProblem(t, 4, 1, 4)
	want, err := sortAllGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Utility != want.Utility || !reflect.DeepEqual(got.Instances, want.Instances) {
		t.Fatalf("single-customer window diverged from the reference (%g vs %g)", got.Utility, want.Utility)
	}
}
