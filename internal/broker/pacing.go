package broker

// The pacing-controller integration: one controller epoch (PacingStep) reads
// the latest audit-window report plus live campaign state, runs the pure
// control law in internal/pacing, and applies the decision — the threshold
// boost and per-campaign rate/allowance bits — under full shard quiescence,
// WAL-logging the applied bits so crash recovery restores controller state
// bit-exactly without re-running any control law. The background audit
// ticker funnels through auditTick (recompute, then step); debug-initiated
// refreshes (AuditNow) recompute the report only and never step the
// controller, so external clients cannot accelerate the control loop.

import (
	"errors"
	"math"

	"muaa/internal/obs"
	"muaa/internal/pacing"
)

// ErrControllerDisabled is returned by PacingStep on a broker built without
// a pacing controller (Config.Controller = nil).
var ErrControllerDisabled = errors.New("broker: pacing controller disabled (Controller = nil)")

// PacingStep runs one controller epoch synchronously: decide from the latest
// stored audit report (AuditReport — nil before the first recompute, in which
// case only utilization-based rate caps apply) and the live campaign
// directory, then apply and WAL-log the decision. The background audit loop
// calls this after every window recompute; simulations and tests drive it
// directly for deterministic epochs. Returns the applied decision, with
// ErrUnavailable if its record was refused.
func (b *Broker) PacingStep() (pacing.Decision, error) {
	if err := b.Err(); err != nil {
		return pacing.Decision{}, err
	}
	if b.controller == nil {
		return pacing.Decision{}, ErrControllerDisabled
	}
	fl := b.dir.Load()
	snap := pacing.Snapshot{
		Report:    b.AuditReport(),
		Boost:     b.phiBoost.Load(),
		Campaigns: make([]pacing.CampaignView, len(fl.campaigns)),
	}
	for i, c := range fl.campaigns {
		h := fl.row(c.id)
		snap.Campaigns[i] = pacing.CampaignView{
			ID:         c.id,
			Budget:     h.budget.Load(),
			Spent:      h.spent.Load(),
			Rate:       c.rate.Load(),
			Guaranteed: h.guaranteed,
			Floor:      h.floor,
			Paused:     h.paused.Load(),
		}
	}
	dec := pacing.Decide(*b.controller, snap)
	return dec, b.applyDecision(dec)
}

// applyDecision installs one controller decision. It quiesces every mutator,
// so in-flight arrivals never observe a half-applied epoch and the WAL record
// is atomic with the memory effects it describes. The record carries the
// applied bits read back from the atomics — exactly what memory holds — so
// replay storing them reproduces the post-epoch state without re-running the
// control law.
func (b *Broker) applyDecision(dec pacing.Decision) error {
	defer b.quiesce()()
	b.phiBoost.Store(dec.Boost)
	rec := DecodedRecord{
		Kind: RecordController, Epoch: b.pacingEpoch.Add(1), BoostBits: b.phiBoost.bits.Load(),
		Controller: make([]ControllerEntry, 0, len(dec.Rates)),
	}
	fl := b.dir.Load()
	for _, r := range dec.Rates {
		if r.ID < 0 || int(r.ID) >= len(fl.campaigns) {
			continue // registered after the snapshot; stays uncapped this epoch
		}
		c, h := fl.campaigns[r.ID], fl.row(r.ID)
		c.rate.Store(r.Rate)
		h.allowance.Store(pacing.Allowance(h.budget.Load(), h.spent.Load(), h.allowance.Load(), r.Rate))
		rec.Controller = append(rec.Controller, ControllerEntry{
			Campaign: c.id, RateBits: c.rate.bits.Load(), AllowanceBits: h.allowance.bits.Load()})
	}
	if b.wal != nil {
		return b.logRecord(&rec)
	}
	return nil
}

// registerPacingMetrics publishes the muaa_pacing_* instrument family; every
// gauge samples lock-free atomics at scrape time.
func registerPacingMetrics(reg *obs.Registry, b *Broker) {
	reg.NewGaugeFunc("muaa_pacing_boost",
		"Pacing controller's multiplicative boost on the admission threshold φ (1 = no intervention).",
		func() float64 { return b.phiBoost.Load() })
	reg.NewCounterFunc("muaa_pacing_epochs_total",
		"Controller epochs applied since boot (recovered across restarts).",
		func() float64 { return float64(b.pacingEpoch.Load()) })
	reg.NewGaugeFunc("muaa_pacing_capped_campaigns",
		"Campaigns currently under a controller spend-rate cap (rate < 1).",
		func() float64 {
			n := 0
			for _, c := range b.dir.Load().campaigns {
				if c.rate.Load() < 1 {
					n++
				}
			}
			return float64(n)
		})
	reg.NewGaugeFunc("muaa_pacing_guaranteed_campaigns",
		"Registered guaranteed-delivery campaigns.",
		func() float64 {
			n, fl := 0, b.dir.Load()
			for _, c := range fl.campaigns {
				if fl.row(c.id).guaranteed {
					n++
				}
			}
			return float64(n)
		})
	reg.NewGaugeFunc("muaa_pacing_floor_shortfall",
		"Budget units guaranteed campaigns still owe their end-of-day delivery floors (Σ max(0, floor·budget − spent)).",
		func() float64 {
			var s float64
			fl := b.dir.Load()
			for _, c := range fl.campaigns {
				if h := fl.row(c.id); h.guaranteed {
					if gap := h.floor*h.budget.Load() - h.spent.Load(); gap > 0 {
						s += gap
					}
				}
			}
			return s
		})
	reg.NewGaugeFunc("muaa_pacing_penalty_exposure",
		"Penalty owed if every guaranteed campaign's current floor shortfall stood at end-of-day (Σ penalty · shortfall).",
		func() float64 {
			var s float64
			fl := b.dir.Load()
			for _, c := range fl.campaigns {
				if h := fl.row(c.id); h.guaranteed && c.penalty > 0 {
					if gap := h.floor*h.budget.Load() - h.spent.Load(); gap > 0 {
						s += c.penalty * gap
					}
				}
			}
			return s
		})
	reg.NewGaugeFunc("muaa_pacing_allowance_headroom",
		"Spend headroom the current epoch's allowances leave across capped campaigns (Σ allowance − spent over rate < 1).",
		func() float64 {
			var s float64
			fl := b.dir.Load()
			for _, c := range fl.campaigns {
				if c.rate.Load() < 1 {
					h := fl.row(c.id)
					if room := h.allowance.Load() - h.spent.Load(); room > 0 && !math.IsInf(room, 1) {
						s += room
					}
				}
			}
			return s
		})
}
