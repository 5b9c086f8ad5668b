package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// The reference server is the benchmark's yardstick for the machine's speed.
// This box is a shared host: with nothing else running in the VM, a fixed
// loop of loopback round trips, allocations and encoding/json runs 30–40 %
// slower for seconds or minutes at a time, so a time measured on muaa-serve
// alone says as much about the neighbours as about the program. What does
// repeat is the RATIO between two programs doing the same kind of work a
// fraction of a second apart (README.md, "Measured spread"). So every
// untraced window alternates short slices of load on muaa-serve with short
// slices of the same requests on this server, and the time-based end-to-end
// metrics are muaa-serve's numbers over this server's.
//
// It is a plain net/http server that decodes every arrival with
// encoding/json and encodes a canned reply of the real reply's shape: the
// socket, net/http, JSON and allocator work of a request with no broker
// behind it. It is built from this directory with the benchmark, so a change
// to the repo leaves it as it was.

// referenceArg makes the benchmark binary the reference server:
// `bench -addr host:port -reference`, the argument order spawn produces.
const referenceArg = "-reference"

// referenceMode reports whether args (os.Args) ask for the reference
// server, and on which address.
func referenceMode(args []string) (addr string, ok bool) {
	if len(args) == 4 && args[1] == "-addr" && args[3] == referenceArg {
		return args[2], true
	}
	return "", false
}

// refMaxOffers is how many canned offers an arrival with room for them is
// answered with; the fixed-cost fleets answer 1.5 on average.
const refMaxOffers = 2

var refOffer = offerJSON{Campaign: 0, AdType: 1, Utility: 5.921753275843312, Efficiency: 1.4804383189608280, Cost: 4, Model: "fixed"}

type refResult struct {
	Offers []offerJSON `json:"offers"`
}

func refAnswer(a *arrivalJSON) refResult {
	res := refResult{Offers: make([]offerJSON, 0, refMaxOffers)}
	for i := 0; i < min(a.Capacity, refMaxOffers); i++ {
		res.Offers = append(res.Offers, refOffer)
	}
	return res
}

func referenceHandler(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var out any
	switch {
	case strings.HasSuffix(r.URL.Path, "/arrivals:batch"):
		var as []arrivalJSON
		if err = json.Unmarshal(body, &as); err == nil {
			results := make([]refResult, len(as))
			for i := range as {
				results[i] = refAnswer(&as[i])
			}
			out = struct {
				Results []refResult `json:"results"`
			}{results}
		}
	case strings.HasSuffix(r.URL.Path, "/arrivals"):
		var a arrivalJSON
		if err = json.Unmarshal(body, &a); err == nil {
			out = refAnswer(&a)
		}
	default: // top-ups, pauses, reads, /healthz
		out = struct {
			OK bool `json:"ok"`
		}{true}
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// serveReference runs the reference server on addr until SIGTERM.
func serveReference(addr string) int {
	srv := &http.Server{Addr: addr, Handler: http.HandlerFunc(referenceHandler), ReadHeaderTimeout: 10 * time.Second}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		srv.Close()
	}()
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "bench: reference server:", err)
		return 1
	}
	return 0
}
