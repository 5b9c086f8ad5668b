// Streaming: drive the online adaptive factor-aware algorithm (O-AFA) over
// a live arrival stream and watch the adaptive threshold at work.
//
//	go run ./examples/streaming
//
// A synthetic evening crowd of 2,000 customers flows past 100 vendors. The
// example prints a running commentary: per-1000-arrival latency, how vendor
// budgets drain, and how the admission threshold climbs as they do — then
// compares the final utility against the offline solvers that saw the whole
// evening in advance.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"muaa/internal/core"
	"muaa/internal/stats"
	"muaa/internal/workload"
)

func main() {
	problem, err := workload.Synthetic(workload.Config{
		Customers: 2000,
		Vendors:   100,
		Budget:    stats.Range{Lo: 10, Hi: 20},
		Radius:    stats.Range{Lo: 0.04, Hi: 0.08},
		Capacity:  stats.Range{Lo: 1, Hi: 4},
		ViewProb:  stats.Range{Lo: 0.1, Hi: 0.6},
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}

	gamma := core.EstimateGammaMin(problem, 1024, 7)
	fmt.Printf("estimated γ_min = %.5f (efficiency floor for the adaptive threshold)\n", gamma)

	session, err := core.NewSession(problem, core.OnlineAFA{GammaMin: gamma, G: 2 * math.E, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	var pushed int
	progress := func(done int) {
		// Peek at the busiest vendor's budget ratio to show the threshold
		// climbing.
		maxDelta := 0.0
		for j := range problem.Vendors {
			if b := problem.Vendors[j].Budget; b > 0 {
				if d := session.Spent(int32(j)) / b; d > maxDelta {
					maxDelta = d
				}
			}
		}
		th := core.AdaptiveThreshold{GammaMin: gamma, G: 2 * math.E}
		fmt.Printf("after %4d arrivals: %4d ads pushed, max δ=%.2f, φ(δ)=%.5f\n",
			done, pushed, maxDelta, th.Value(maxDelta))
	}
	// Customers arrive in slice order (the generator emits them sorted by
	// arrival hour); each is answered before the next is seen.
	var total, slowest time.Duration
	for c := range problem.Customers {
		start := time.Now()
		ins := session.Arrive(int32(c))
		took := time.Since(start)
		total += took
		if took > slowest {
			slowest = took
		}
		pushed += len(ins)
		if n := c + 1; n%500 == 0 {
			progress(n)
		}
	}
	online, err := session.Finish()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstream done: %d ads, mean response %v per customer (max %v)\n",
		len(online.Instances), total/time.Duration(len(problem.Customers)), slowest)

	// Hindsight comparison: what could offline algorithms have done?
	for _, s := range []core.Solver{core.Recon{Seed: 7}, core.Greedy{}, core.Random{Seed: 7}} {
		a, err := s.Solve(problem)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s utility %10.2f (ONLINE reached %.0f%%)\n",
			s.Name(), a.Utility, 100*online.Utility/a.Utility)
	}
	fmt.Printf("ONLINE  utility %10.2f — with no future knowledge, one customer at a time\n", online.Utility)
}
