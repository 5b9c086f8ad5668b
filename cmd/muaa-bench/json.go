package main

// The -json flag: machine-readable results for the two quality studies
// (-exp audit, -exp pacing), so a run can be committed (BENCH_audit.json,
// BENCH_pacing.json) and held to the code by a test instead of by eye.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// benchDoc is the stable top-level schema written by -json. Fields are
// only ever added, never renamed: consumers key on "schema".
type benchDoc struct {
	Schema     string       `json:"schema"` // always "muaa-bench/1"
	Experiment string       `json:"experiment"`
	Timestamp  string       `json:"timestamp"` // RFC3339 UTC
	GitSHA     string       `json:"git_sha,omitempty"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Scale      float64      `json:"scale"`
	Seed       int64        `json:"seed"`
	Points     []benchPoint `json:"points"`
}

// benchPoint is one row of a sweep. ns_per_op, greedy_ms and recon_ms are
// wall-clock; every other field is a pure function of (scale, seed).
type benchPoint struct {
	Series  string  `json:"series"` // "audit_replay" | "pacing_off" | "pacing_on"
	Label   string  `json:"label"`
	Ops     int     `json:"ops"`
	NsPerOp float64 `json:"ns_per_op"`

	// The audit replay sweep (-exp audit) fills these.
	WALBytes       int64   `json:"wal_bytes,omitempty"`
	Arrivals       int     `json:"arrivals,omitempty"`
	GreedyMs       float64 `json:"greedy_ms,omitempty"`
	ReconMs        float64 `json:"recon_ms,omitempty"`
	EmpiricalRatio float64 `json:"empirical_ratio,omitempty"`

	// The pacing controller sweep (-exp pacing) additionally fills these.
	FinalBoost float64 `json:"final_boost,omitempty"`
	Epochs     int64   `json:"epochs,omitempty"`
}

func newBenchDoc(exp string, scale float64, seed int64) *benchDoc {
	return &benchDoc{
		Schema:     "muaa-bench/1",
		Experiment: exp,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
		Seed:       seed,
	}
}

// gitSHA best-effort resolves the current commit; empty when not in a git
// checkout (or git is absent) — the field is omitempty for that case.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// writeJSON renders the document (indented, trailing newline) to path.
func (d *benchDoc) writeJSON(path string) error {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding bench JSON: %w", err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
