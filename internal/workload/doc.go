// Package workload generates MUAA problem instances and traffic streams.
//
// For the batch solvers it produces the paper's synthetic data (Section
// V-A: Gaussian customer locations, uniform vendor locations,
// truncated-Gaussian budgets/radii/capacities/probabilities) and the
// worked Example 1 of the introduction. The Foursquare-style check-in data
// lives in package checkin; it converts its simulated check-ins into the
// same model.Problem form.
//
// For the live broker it produces BrokerLoad (brokerload.go): a seeded,
// replay-stable stream of mixed operations — campaign registrations
// followed by arrivals, top-ups, pauses, and stats reads — that drives the
// golden determinism transcripts, the race soaks and the benchmarks, all
// from the same deterministic generator. DefaultAdTypes is the shared ad
// catalog: a cost-monotone table whose 2-type prefix is Table I of the
// paper.
//
// Everything here is deterministic under a fixed seed; generators never
// read global randomness.
package workload
