package checkin

import (
	"fmt"
	"sort"

	"muaa/internal/model"
	"muaa/internal/stats"
	"muaa/internal/taxonomy"
	"muaa/internal/workload"
)

// ProblemConfig controls the dataset → MUAA problem conversion, carrying the
// paper's per-entity ranges (Table IV knobs) and optional sampling caps for
// experiment speed.
type ProblemConfig struct {
	Budget   stats.Range // vendor budgets [B−, B+]
	Radius   stats.Range // vendor radii [r−, r+]
	Capacity stats.Range // customer capacities [a−, a+]
	ViewProb stats.Range // viewing probabilities [p−, p+]
	// MaxCustomers / MaxVendors cap the converted problem by uniform
	// sampling (0 = no cap). The paper runs 441,060 customers × 7,222
	// vendors on a 32 GB Xeon; the caps let the same pipeline run in a unit
	// test.
	MaxCustomers int
	MaxVendors   int
	// Kappa is the taxonomy propagation factor for interest vectors; zero
	// selects the taxonomy default.
	Kappa float64
	Seed  int64
}

// ToProblem applies the paper's preprocessing to a (filtered) dataset:
//
//   - every check-in becomes one customer located at the check-in venue with
//     the check-in hour as arrival time (same user at different timestamps =
//     different customers, exactly as Section V-A states);
//   - the customer's interest vector is the taxonomy-driven profile of the
//     *user's* complete check-in history (Eqs. 1–3);
//   - every venue becomes one vendor whose tag vector marks its category;
//   - budgets, radii, capacities and view probabilities are drawn from the
//     configured truncated-Gaussian ranges.
//
// Customers are ordered by arrival hour — the stream order of the online
// experiments.
func ToProblem(ds *Dataset, cfg ProblemConfig) (*model.Problem, error) {
	for name, r := range map[string]stats.Range{
		"budget": cfg.Budget, "radius": cfg.Radius, "capacity": cfg.Capacity, "view probability": cfg.ViewProb,
	} {
		if !r.Valid() || r.Lo < 0 {
			return nil, fmt.Errorf("checkin: invalid %s range %v", name, r)
		}
	}
	if cfg.ViewProb.Hi > 1 {
		return nil, fmt.Errorf("checkin: view probability range %v exceeds 1", cfg.ViewProb)
	}
	rng := stats.NewRand(cfg.Seed)

	// User profiles from full histories (Eqs. 1–3).
	histories := make([]map[taxonomy.TagID]int, ds.Users)
	for _, r := range ds.Records {
		if histories[r.User] == nil {
			histories[r.User] = map[taxonomy.TagID]int{}
		}
		histories[r.User][ds.Venues[r.Venue].Category]++
	}
	profileCfg := taxonomy.ProfileConfig{Kappa: cfg.Kappa, Normalize: true}
	profiles := make([][]float64, ds.Users)
	for u := range profiles {
		if histories[u] == nil {
			profiles[u] = make([]float64, ds.Taxonomy.NumTags())
			continue
		}
		profiles[u] = ds.Taxonomy.InterestVector(histories[u], profileCfg)
	}

	// Sample records and venues under the caps.
	records := ds.Records
	if cfg.MaxCustomers > 0 && len(records) > cfg.MaxCustomers {
		records = sampleRecords(rng, records, cfg.MaxCustomers)
	}
	venues := ds.Venues
	venueRemap := make([]int32, len(ds.Venues))
	if cfg.MaxVendors > 0 && len(venues) > cfg.MaxVendors {
		picked := rng.Perm(len(venues))[:cfg.MaxVendors]
		sort.Ints(picked)
		for i := range venueRemap {
			venueRemap[i] = -1
		}
		kept := make([]Venue, 0, cfg.MaxVendors)
		for newID, old := range picked {
			venueRemap[old] = int32(newID)
			v := venues[old]
			v.ID = int32(newID)
			kept = append(kept, v)
		}
		venues = kept
	} else {
		for i := range venueRemap {
			venueRemap[i] = int32(i)
		}
	}

	p := &model.Problem{AdTypes: workload.DefaultAdTypes()}
	p.Vendors = make([]model.Vendor, len(venues))
	for j, v := range venues {
		p.Vendors[j] = model.Vendor{
			ID:     int32(j),
			Loc:    v.Loc,
			Radius: stats.TruncGaussian(rng, cfg.Radius),
			Budget: stats.TruncGaussian(rng, cfg.Budget),
			Tags:   ds.Taxonomy.VendorVector([]taxonomy.TagID{v.Category}, 0.5),
		}
	}
	// Customers sorted by arrival hour (paper: arrival times modulo 24 h).
	sort.SliceStable(records, func(a, b int) bool { return records[a].Hour < records[b].Hour })
	for _, r := range records {
		p.Customers = append(p.Customers, model.Customer{
			ID:        int32(len(p.Customers)),
			Loc:       ds.Venues[r.Venue].Loc,
			Capacity:  stats.TruncGaussianInt(rng, cfg.Capacity),
			ViewProb:  stats.TruncGaussian(rng, cfg.ViewProb),
			Interests: profiles[r.User],
			Arrival:   r.Hour,
		})
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("checkin: conversion produced invalid problem: %w", err)
	}
	return p, nil
}

func sampleRecords(rng *stats.Rand, records []Record, n int) []Record {
	idx := rng.Perm(len(records))[:n]
	sort.Ints(idx)
	out := make([]Record, n)
	for i, j := range idx {
		out[i] = records[j]
	}
	return out
}
