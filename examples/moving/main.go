// Moving: customers walk through the city while the broker serves them,
// showing the safe-region optimization the paper imports from the continuous
// vendor-selection literature (Xu et al. [26]) working together with the
// O-AFA admission rule.
//
//	go run ./examples/moving
//
// Fifty pedestrians follow random-waypoint walks past 300 vendor campaigns.
// Every few simulated minutes each pedestrian's position is sampled; a
// safe-region tracker tells us whether their covering-vendor set could have
// changed — only then is the (O(n)) vendor scan paid and only then do we ask
// the broker whether any vendor wants to push an ad at the new spot.
package main

import (
	"fmt"
	"log"

	"muaa/internal/broker"
	"muaa/internal/geo"
	"muaa/internal/mobility"
	"muaa/internal/stats"
	"muaa/internal/workload"
)

func main() {
	rng := stats.NewRand(99)

	// Vendor campaigns via the synthetic generator, registered with a live
	// broker.
	problem, err := workload.Synthetic(workload.Config{
		Customers: 1, // only vendors are used
		Vendors:   300,
		Budget:    stats.Range{Lo: 10, Hi: 20},
		Radius:    stats.Range{Lo: 0.03, Hi: 0.06},
		Capacity:  stats.Range{Lo: 1, Hi: 2},
		ViewProb:  stats.Range{Lo: 0.5, Hi: 0.9},
		Seed:      99,
	})
	if err != nil {
		log.Fatal(err)
	}
	b, err := broker.New(broker.Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range problem.Vendors {
		if _, err := b.RegisterCampaignSpec(broker.CampaignSpec{Loc: v.Loc, Radius: v.Radius, Budget: v.Budget, Tags: v.Tags}); err != nil {
			log.Fatal(err)
		}
	}

	// Pedestrians: random-waypoint walks at ~4 km/h across the unit city,
	// with their own taste vectors.
	const pedestrians = 50
	type walker struct {
		tr        *mobility.Trajectory
		tk        *mobility.Tracker
		interests []float64
		offers    int
	}
	walkers := make([]*walker, pedestrians)
	for i := range walkers {
		tr, err := mobility.RandomWaypoint(rng, geo.UnitSquare, 5, 0.3, 0)
		if err != nil {
			log.Fatal(err)
		}
		interests := make([]float64, 16)
		for k := range interests {
			interests[k] = rng.Float64()
		}
		walkers[i] = &walker{tr: tr, tk: mobility.NewTracker(problem.Vendors), interests: interests}
	}

	// Simulate: sample every ~2 simulated minutes; contact the broker only
	// when the walker's covering-vendor set may have changed.
	const dt = 1.0 / 30 // hours
	totalSamples, vendorScans, brokerCalls, offers := 0, 0, 0, 0
	for _, w := range walkers {
		for at := w.tr.Start(); at <= w.tr.End(); at += dt {
			p := w.tr.At(at)
			totalSamples++
			_, recomputed := w.tk.Update(p)
			if !recomputed {
				continue // same vendors as before: nothing new to offer
			}
			vendorScans++
			brokerCalls++
			pushed, err := b.Arrive(broker.Arrival{
				Loc: p, Capacity: 1, ViewProb: 0.7,
				Interests: w.interests, Hour: at,
			})
			if err != nil {
				log.Fatal(err)
			}
			w.offers += len(pushed)
			offers += len(pushed)
		}
	}

	fmt.Printf("%d pedestrians, %d position samples\n", pedestrians, totalSamples)
	fmt.Printf("vendor-set scans paid: %d (%.1f%% of samples — the safe-region saving)\n",
		vendorScans, 100*float64(vendorScans)/float64(totalSamples))
	fmt.Printf("broker contacted %d times, %d ads pushed\n", brokerCalls, offers)
	st := b.Stats()
	fmt.Printf("broker: utility served %.2f, budget spent %.2f, derived g = %.1f\n",
		st.UtilityServed, st.BudgetSpent, st.G)

	// Show one walker's journey.
	w := walkers[0]
	_, re := w.tk.Counters()
	fmt.Printf("\nwalker 0: %d region recomputations on a %.1f-hour walk, %d ads received\n",
		re, w.tr.End()-w.tr.Start(), w.offers)
}
