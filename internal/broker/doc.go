// Package broker is the running system around the algorithms: the
// location-based advertising broker the paper describes in its introduction
// ("vendors create campaigns on the broker system with the specified
// information of ads and budgets ... the broker system sends LBA ads to
// potential customers based on their current locations, profiles and
// preferences").
//
// Unlike the batch solvers in package core, a Broker is long-lived: vendors
// register and top up campaigns at any time, customers arrive continuously,
// and each arrival is answered at once by the O-AFA admission rule over the
// live campaign state, with γ_min estimated from the efficiencies the broker
// observes. DESIGN.md states the design once: the shard map, lock order and
// visibility argument (§8), the instruments (§9), the write-ahead log (§10),
// the one arrival pipeline (§14), the billing contract (§15) and the
// decision kernel (§17). http.go is the HTTP front end; cmd/muaa-serve wires
// it to a port with GET /metrics and /healthz.
package broker
