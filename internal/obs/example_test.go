package obs_test

import (
	"os"

	"muaa/internal/obs"
)

// Example registers one of each instrument, records some activity, and
// scrapes the registry — the same text a Prometheus server would ingest
// from GET /metrics.
func Example() {
	reg := obs.NewRegistry()

	served := reg.NewCounter("ads_served_total", "Ads pushed to arriving customers.")
	reg.NewGaugeFunc("campaigns_live", "Campaigns currently registered.",
		func() float64 { return 2 })
	latency := reg.NewHistogram("arrival_seconds", "Arrival handling latency.",
		[]float64{0.25, 0.5, 1})

	served.Add(3)
	latency.Observe(0.125)
	latency.Observe(0.5)

	reg.WriteTextFiltered(os.Stdout, "")
	// Output:
	// # HELP ads_served_total Ads pushed to arriving customers.
	// # TYPE ads_served_total counter
	// ads_served_total 3
	// # HELP arrival_seconds Arrival handling latency.
	// # TYPE arrival_seconds histogram
	// arrival_seconds_bucket{le="0.25"} 1
	// arrival_seconds_bucket{le="0.5"} 2
	// arrival_seconds_bucket{le="1"} 2
	// arrival_seconds_bucket{le="+Inf"} 2
	// arrival_seconds_sum 0.625
	// arrival_seconds_count 2
	// # HELP campaigns_live Campaigns currently registered.
	// # TYPE campaigns_live gauge
	// campaigns_live 2
}
