package pacing_test

// Deterministic pacing scenario suite: every test replays a seeded broker op
// stream through internal/simulate.PacingRun, so a behavior change in the
// controller, the audit window, or the admission path shows up as a golden
// trace diff or a ratio-pin failure — not as flake. Regenerate goldens with
//
//	go test ./internal/pacing -run TestScenarioGoldenTraces -update

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muaa/internal/pacing"
	"muaa/internal/simulate"
)

var updateGolden = flag.Bool("update", false, "rewrite golden controller traces")

// traceText renders a run's controller trace in the golden-file format: one
// step per line, fixed formatting so the files diff cleanly.
func traceText(res simulate.PacingResult) string {
	var sb strings.Builder
	for _, pt := range res.Trace {
		fmt.Fprintf(&sb, "arrivals=%d ratio=%.6f boost=%.6g capped=%d\n",
			pt.Arrivals, pt.Ratio, pt.Boost, pt.Capped)
	}
	fmt.Fprintf(&sb, "final ratio=%.6f boost=%.6g epochs=%d\n",
		res.Ratio, res.FinalBoost, res.Epochs)
	return sb.String()
}

// TestScenarioGoldenTraces pins the controller-on step trace of every ramp:
// the per-step window ratio, the boost the pace law applied, and the number
// of rate-capped campaigns. Any control-law or harness change must re-bless
// these files consciously.
func TestScenarioGoldenTraces(t *testing.T) {
	for _, ramp := range simulate.Ramps() {
		ramp := ramp
		t.Run(string(ramp), func(t *testing.T) {
			cfg := pacing.Default()
			res, err := simulate.PacingRun(simulate.PacingConfig{
				Ops:             2000,
				Ramp:            ramp,
				Controller:      &cfg,
				GuaranteedEvery: 4,
				Seed:            42,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := traceText(res)
			path := filepath.Join("testdata", fmt.Sprintf("trace_%s.golden", ramp))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to bless): %v", err)
			}
			if got != string(want) {
				t.Fatalf("trace diverged from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestScenarioDeterminism: same config, same seed, same bits — twice.
func TestScenarioDeterminism(t *testing.T) {
	cfg := pacing.Default()
	run := func() string {
		res, err := simulate.PacingRun(simulate.PacingConfig{
			Ops: 1500, Ramp: simulate.RampDiurnal, Controller: &cfg,
			GuaranteedEvery: 4, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return traceText(res)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs diverged:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestScenarioControllerLift is the headline pin: on the diurnal day at 9k
// ops — the regime where the uncontrolled broker's ratio collapses — the
// controller must lift the full-stream empirical ratio to at least 0.70 and
// strictly above the controller-off baseline. The offline WAL-replay audit
// (greedy oracle over the retained journal) must agree with the live window.
func TestScenarioControllerLift(t *testing.T) {
	if testing.Short() {
		t.Skip("9k-op scenario runs")
	}
	base := simulate.PacingConfig{
		Ops: 9000, Ramp: simulate.RampDiurnal, GuaranteedEvery: 4, Seed: 42,
	}
	off, err := simulate.PacingRun(base)
	if err != nil {
		t.Fatal(err)
	}
	on := base
	cfg := pacing.Default()
	on.Controller = &cfg
	on.DataDir = t.TempDir()
	onRes, err := simulate.PacingRun(on)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("diurnal@9k: off ratio %.4f, on ratio %.4f (boost %.3g, epochs %d)",
		off.Ratio, onRes.Ratio, onRes.FinalBoost, onRes.Epochs)
	if onRes.Ratio < 0.70 {
		t.Errorf("controller-on ratio %.4f below the 0.70 pin", onRes.Ratio)
	}
	if onRes.Ratio <= off.Ratio {
		t.Errorf("controller-on ratio %.4f did not beat off baseline %.4f", onRes.Ratio, off.Ratio)
	}
	if onRes.Epochs == 0 {
		t.Errorf("controller never stepped (epochs = 0)")
	}
	if d := onRes.ReplayRatio - onRes.Ratio; d > 1e-9 || d < -1e-9 {
		t.Errorf("offline replay ratio %.6f disagrees with live window %.6f", onRes.ReplayRatio, onRes.Ratio)
	}
}

// TestScenarioOnNeverWorse: at the 9k scale the controller must not lose to
// the baseline on any ramp (and, as in every PacingRun, no run may break the
// broker's contract).
func TestScenarioOnNeverWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("9k-op scenario runs")
	}
	for _, ramp := range simulate.Ramps() {
		ramp := ramp
		t.Run(string(ramp), func(t *testing.T) {
			base := simulate.PacingConfig{
				Ops: 9000, Ramp: ramp, GuaranteedEvery: 4, Seed: 42,
			}
			off, err := simulate.PacingRun(base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := pacing.Default()
			on := base
			on.Controller = &cfg
			onRes, err := simulate.PacingRun(on)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s@9k: off %.4f, on %.4f", ramp, off.Ratio, onRes.Ratio)
			if onRes.Ratio < off.Ratio {
				t.Errorf("controller-on ratio %.4f below off baseline %.4f", onRes.Ratio, off.Ratio)
			}
		})
	}
}

// TestScenarioSpendNeverExceedsBudget is the safety property: under ANY valid
// controller configuration — including adversarially tight and loose ones
// drawn at random — no campaign ever spends past its budget: PacingRun fails
// any run that ends breaking the broker's contract.
func TestScenarioSpendNeverExceedsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randCfg := func() pacing.Config {
		for {
			c := pacing.Config{
				TargetRatio: rng.Float64(),
				Gain:        0.05 + 0.95*rng.Float64(),
				Deadband:    0.2 * rng.Float64(),
				PaceGain:    0.1 + 3*rng.Float64(),
				PaceBias:    0.4*rng.Float64() - 0.2,
				BoostMin:    math.Pow(10, -4*rng.Float64()),
				BoostMax:    math.Pow(10, 4*rng.Float64()),
				TightenAt:   0.02 + 0.5*rng.Float64(),
				LoosenAt:    0.01 * rng.Float64(),
				RateTight:   0.01 + 0.5*rng.Float64(),
			}
			if c.Validate() == nil {
				return c
			}
		}
	}
	ramps := simulate.Ramps()
	for i := 0; i < 6; i++ {
		cfg := randCfg()
		ramp := ramps[i%len(ramps)]
		res, err := simulate.PacingRun(simulate.PacingConfig{
			Ops: 1500, Ramp: ramp, Controller: &cfg,
			GuaranteedEvery: 3, Seed: int64(100 + i),
		})
		if err != nil {
			t.Fatalf("config %d (%s) %v: %v", i, ramp, cfg, err)
		}
		if res.FinalBoost < cfg.BoostMin || res.FinalBoost > cfg.BoostMax {
			t.Errorf("config %d (%s): final boost %g escaped [%g, %g]",
				i, ramp, res.FinalBoost, cfg.BoostMin, cfg.BoostMax)
		}
	}
}

// TestScenarioUnknownRamp: the harness rejects a ramp it does not know.
func TestScenarioUnknownRamp(t *testing.T) {
	_, err := simulate.PacingRun(simulate.PacingConfig{Ramp: "sideways", Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown ramp") {
		t.Fatalf("want unknown-ramp error, got %v", err)
	}
}
