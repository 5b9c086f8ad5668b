package main

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// harness starts its reference server from os.Executable.
func TestMain(m *testing.M) {
	if addr, ok := referenceMode(os.Args); ok {
		os.Exit(serveReference(addr))
	}
	os.Exit(m.Run())
}

func TestReferenceMode(t *testing.T) {
	if addr, ok := referenceMode([]string{"bench", "-addr", "127.0.0.1:9", referenceArg}); !ok || addr != "127.0.0.1:9" {
		t.Errorf("spawn's argument order not recognised: %q %v", addr, ok)
	}
	for _, args := range [][]string{{"bench"}, {"bench", "-workload", "single", "-trace"}, {"bench", "-addr", "x"}} {
		if _, ok := referenceMode(args); ok {
			t.Errorf("%v taken for the reference server", args)
		}
	}
}

// The reference server's replies must pass the checks the timed window makes
// on muaa-serve's, or a slice on it would count failures.
func TestReferenceRepliesPassTheWindowCheck(t *testing.T) {
	for _, name := range []string{"single", "batch", "durable"} {
		s, _ := specByName(name)
		s.campaigns = 16
		if s.batch <= 1 {
			s.requests = 2400 // generate wants 2 048 arrivals for the verify pass
		}
		l, err := generate(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		offers := 0
		for i := range l.requests {
			r := &l.requests[i]
			rec := httptest.NewRecorder()
			referenceHandler(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(string(r.body))))
			if rec.Code != 200 {
				t.Fatalf("%s %s: status %d: %s", name, r.path, rec.Code, rec.Body)
			}
			if r.kind != opArrival && r.kind != opBatch {
				continue
			}
			var a answered
			if err := scanArrivals(r, rec.Code, rec.Body.Bytes(), len(l.fleet), &a); err != nil {
				t.Fatalf("%s %s: %v", name, r.path, err)
			}
			if len(a.ids) != 0 {
				t.Errorf("%s: the reference handed out offer ids %v; the client would try to convert them", name, a.ids)
			}
			offers += a.offers
		}
		if offers == 0 {
			t.Errorf("%s: the reference answered no offers at all", name)
		}
	}
	rec := httptest.NewRecorder()
	referenceHandler(rec, httptest.NewRequest("POST", "/v1/arrivals", strings.NewReader("{")))
	if rec.Code != 400 {
		t.Errorf("malformed arrival: status %d, want 400", rec.Code)
	}
}
