package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"muaa/internal/broker"
)

// testLoad is a small instance of a workload's shape.
func testLoad(t *testing.T, name string, campaigns, requests int) *load {
	t.Helper()
	s, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	s.campaigns, s.requests = campaigns, requests
	l, err := generate(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// serveInProcess answers r the way muaa-serve would, without a socket.
func serveInProcess(t *testing.T, api http.Handler, r *request) (int, []byte) {
	t.Helper()
	hr := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	if r.method == "POST" {
		hr.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes()
}

// The verify pass in miniature: a second broker behind the real JSON API
// plays the server; the twin must agree with every reply, and must object
// the moment one number in one offer is changed.
func TestTwinAgreesWithServerAndCatchesACorruptedOffer(t *testing.T) {
	for _, name := range []string{"single", "dense", "durable"} {
		t.Run(name, func(t *testing.T) {
			l := testLoad(t, name, 256, map[string]int{"single": 2100, "dense": 40, "durable": 2400}[name])
			served, err := newTwin(l.fleet) // same construction, used as the server
			if err != nil {
				t.Fatal(err)
			}
			api := broker.NewAPI(served.b)
			tw, err := newTwin(l.fleet)
			if err != nil {
				t.Fatal(err)
			}
			offers := 0
			var corruptible *request
			var corruptibleBody []byte
			for i := range l.requests[:l.verifyN] {
				r := &l.requests[i]
				status, body := serveInProcess(t, api, r)
				var p reply
				if err := check(r, status, body, len(l.fleet), &p); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if _, err := tw.expect(r, &p, body); err != nil {
					t.Fatalf("request %d: server and twin disagree: %v", i, err)
				}
				var a answered
				a.note(r, &p)
				offers += a.offers
				if corruptible == nil && a.offers > 0 {
					corruptible, corruptibleBody = r, append([]byte(nil), body...)
				}
			}
			if offers == 0 || corruptible == nil {
				t.Fatal("the stream produced no offers; the test proves nothing")
			}

			// Replay the first offer-bearing request against fresh brokers
			// with one utility nudged in the reply.
			fresh, _ := newTwin(l.fleet)
			replay, _ := newTwin(l.fleet)
			apiR := broker.NewAPI(replay.b)
			for i := range l.requests[:l.verifyN] {
				r := &l.requests[i]
				status, body := serveInProcess(t, apiR, r)
				var p reply
				if err := check(r, status, body, len(l.fleet), &p); err != nil {
					t.Fatal(err)
				}
				if r != corruptible {
					if _, err := fresh.expect(r, &p, body); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if !bytes.Equal(body, corruptibleBody) {
					t.Fatal("replay is not deterministic")
				}
				for j := range r.arrivals {
					if os := p.offersOf(r.kind, j); len(os) > 0 {
						os[0].Utility += 1e-9
						break
					}
				}
				_, err := fresh.expect(r, &p, body)
				if err == nil || !strings.Contains(err.Error(), "differs") {
					t.Fatalf("a corrupted utility went unnoticed (err = %v)", err)
				}
				return
			}
		})
	}
}

func TestSameOffersNamesWhatDiffers(t *testing.T) {
	want := []broker.Offer{{Campaign: 3, AdType: 1, Utility: 2, Efficiency: 1, Cost: 1.5}, {Campaign: 9, AdType: 0, Utility: 1, Efficiency: 1, Cost: 1}}
	got := []offerJSON{{Campaign: 3, AdType: 1, Utility: 2, Efficiency: 1, Cost: 1.5}, {Campaign: 9, AdType: 0, Utility: 1, Efficiency: 1, Cost: 1}}
	if err := sameOffers(got, want); err != nil {
		t.Fatal(err)
	}
	if err := sameOffers(got[:1], want); err == nil {
		t.Error("a missing offer passed")
	}
	swapped := []offerJSON{got[1], got[0]}
	if err := sameOffers(swapped, want); err == nil {
		t.Error("a reordered slate passed")
	}
	charged := append([]offerJSON(nil), got...)
	charged[1].ChargeECPM = 0.5
	if err := sameOffers(charged, want); err == nil {
		t.Error("a different charge passed")
	}
}

// The window's byte scanner must accept exactly what the full decode
// accepts, count the same offers and find the same offer ids.
func TestScanArrivalsAgreesWithFullDecode(t *testing.T) {
	for _, name := range []string{"single", "batch", "dense"} {
		l := testLoad(t, name, 256, map[string]int{"single": 2100, "batch": 8, "dense": 32}[name])
		tw, err := newTwin(l.fleet)
		if err != nil {
			t.Fatal(err)
		}
		api := broker.NewAPI(tw.b)
		total, ids := 0, 0
		for i := range l.requests {
			r := &l.requests[i]
			status, body := serveInProcess(t, api, r)
			var p reply
			if err := check(r, status, body, len(l.fleet), &p); err != nil {
				t.Fatal(err)
			}
			var full, fast answered
			full.note(r, &p)
			if err := scanArrivals(r, status, body, len(l.fleet), &fast); err != nil {
				t.Fatalf("%s request %d: scan rejects what the decoder accepts: %v", name, i, err)
			}
			if fast.offers != full.offers || len(fast.ids) != len(full.ids) {
				t.Fatalf("%s request %d: scan found %d offers and %d ids, decode %d and %d", name, i, fast.offers, len(fast.ids), full.offers, len(full.ids))
			}
			for j := range full.ids {
				if fast.ids[j] != full.ids[j] {
					t.Fatalf("%s request %d: offer id %d is %d, decode says %d", name, i, j, fast.ids[j], full.ids[j])
				}
			}
			total += full.offers
			ids += len(full.ids)
		}
		if total == 0 || (name == "dense" && ids == 0) {
			t.Fatalf("%s: %d offers, %d ids — the stream proves nothing", name, total, ids)
		}
	}
}

func TestScanArrivalsRejections(t *testing.T) {
	one := &request{kind: opArrival, arrivals: []broker.Arrival{{Capacity: 1}}}
	two := &request{kind: opBatch, arrivals: []broker.Arrival{{Capacity: 2}, {Capacity: 2}}}
	for _, c := range []struct {
		name   string
		r      *request
		status int
		body   string
		ok     bool
	}{
		{"plain", one, 200, `{"offers":[{"campaign":3,"adType":1}],"slate":[{"vendor":3,"offer_id":9}]}`, true},
		{"spaced and reordered", one, 200, `{ "offers" : [ { "adType":1, "adTypeName":"a } ] \" b", "offer_id": 12, "campaign" : 3 } ] }`, true},
		{"empty", one, 200, `{"offers":[],"slate":[]}`, true},
		{"status", one, 503, `{"error":{"code":"unavailable","message":"x"}}`, false},
		{"truncated", one, 200, `{"offers":[{"campaign":3`, false},
		{"over capacity", one, 200, `{"offers":[{"campaign":3},{"campaign":4}]}`, false},
		{"campaign out of range", one, 200, `{"offers":[{"campaign":64}]}`, false},
		{"campaign missing", one, 200, `{"offers":[{"adType":1}]}`, false},
		{"campaign negative", one, 200, `{"offers":[{"campaign":-1}]}`, false},
		{"no offers key", one, 200, `{"slate":[]}`, false},
		{"batch", two, 200, `{"results":[{"offers":[{"campaign":1},{"campaign":2}]},{"offers":[]}]}`, true},
		{"batch short", two, 200, `{"results":[{"offers":[]}]}`, false},
		{"batch long", two, 200, `{"results":[{"offers":[]},{"offers":[]},{"offers":[]}]}`, false},
		{"batch element rejected", two, 200, `{"results":[{"offers":[]},{"error":{"code":"bad_request","message":"no \"offers\" here"}}]}`, false},
	} {
		var a answered
		err := scanArrivals(c.r, c.status, []byte(c.body), 64, &a)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
		if c.name == "spaced and reordered" && (a.offers != 1 || len(a.ids) != 1 || a.ids[0] != 12) {
			t.Errorf("%s: found %+v, want one offer with id 12", c.name, a)
		}
	}
}
