package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"muaa/internal/broker"
)

// metric is one named number with its unit; N is the sample count behind it
// where there is one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// harness is what every workload run shares.
type harness struct {
	bin, outDir string
	self        string // this binary, which is also the reference server
	plan        cpuPlan
	conns       int
}

// result is everything one run of one workload produced; it is what
// results.json stores and what -compare reads.
type result struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     int      `json:"window_seconds"`
	Traced      bool     `json:"traced"`
	ServerFlags []string `json:"server_flags"`
	GenerateS   float64  `json:"generate_s"`
	// SetupS holds every rehearsal's set-up time in seconds of a machine at
	// the workload's nominal speed (see setup); setup_s is their median.
	// SetupRawS are the same rehearsals by the wall clock.
	SetupS    []float64             `json:"setup_s_each"`
	SetupRawS []float64             `json:"setup_raw_s_each"`
	Phases    map[string]*phase     `json:"phases"`
	Pairs     []pair                `json:"pairs,omitempty"`
	Metrics   map[string]metric     `json:"metrics"`
	Ladder    *ladderReport         `json:"ladder,omitempty"`
	Open      []openStep            `json:"open_loop,omitempty"`
	Spans     map[string]spanTotals `json:"span_totals,omitempty"`
	Restart   []float64             `json:"restart_ms,omitempty"`
	Correct   bool                  `json:"correct"`
	Error     string                `json:"error,omitempty"`
}

func (r *result) phase(name string) *phase {
	if r.Phases[name] == nil {
		r.Phases[name] = &phase{}
	}
	return r.Phases[name]
}

// set records a declared metric; the unit comes from its declaration.
func (r *result) set(name string, v float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// attempted and failed are the run's operation counts over every phase.
func (r *result) attempted() (sent, failed int) {
	for _, p := range r.Phases {
		sent += p.Sent
		failed += p.Failed
	}
	return sent, failed
}

// run is one workload run in progress.
type run struct {
	h     *harness
	load  *load
	res   *result
	spans *spanLog // nil when untraced
	root  uint64   // the bench.run span
	nonce uint64
	dirs  int
}

// live is a server that has been set up: fleet registered, verified and
// warmed, with the connections the timed window will use.
type live struct {
	srv      *server
	flags    []string
	dataDir  string
	senders  []*sender
	cur      *cursor
	arrivals int64 // answered before the window, all connections
	offers   int64
}

func (l *live) close() {
	for _, s := range l.senders {
		s.c.close()
	}
	l.srv.stop()
	if l.dataDir != "" {
		os.RemoveAll(l.dataDir)
	}
}

// counts sums what the server has answered on every connection so far.
func (l *live) counts() (arrivals, offers int64) {
	arrivals, offers = l.arrivals, l.offers
	for _, s := range l.senders {
		arrivals += s.arrivals
		offers += s.offers
	}
	return
}

// serverFlags are the workload's additions to production defaults.
func (r *run) serverFlags(traced bool) (flags []string, dataDir string) {
	if r.load.spec.durable {
		r.dirs++
		dataDir = filepath.Join(r.h.outDir, "tmp", fmt.Sprintf("%s-%d-%d", r.load.spec.name, os.Getpid(), r.dirs))
		// No fsync: on a shared host it times the neighbours' disk traffic.
		// With -wal-sync flush the same binary answered 0.55 of the
		// reference's arrivals in one half hour and 0.39–0.46 in the next,
		// with none 0.59 in both. Appends, encoding, the flusher's writes
		// and recovery after kill -9 are all still exercised, and the ladder
		// prices the fsync itself (wal.fsync_ns).
		flags = append(flags, "-data-dir", dataDir, "-wal-sync", "none", "-snapshot-every", "-1")
	}
	flags = append(flags, r.load.spec.flags...)
	if traced {
		flags = append(flags, "-trace-capacity", "8192")
	}
	return flags, dataDir
}

func (r *run) logPath() string {
	return filepath.Join(r.h.outDir, r.load.spec.name+".server.log")
}

// setupSlice is the length of the reference slices that gauge the machine's
// speed during a set-up.
const setupSlice = 100 * time.Millisecond

// setup brings a fresh server to the state the window starts from: spawn →
// /healthz 200 → fleet registered over HTTP → verify pass against the twin
// → warm-up. It returns the time that took, which is the setup_s metric.
//
// With a reference server, the clock stops after each of the four stages for
// a short slice of load on it, and the elapsed time is scaled by how fast the
// reference ran compared with the workload's nominal refArrivalsPS: set-up is
// request handling like the window, and moves with the host's load as much
// (README.md, "Measured spread"). Without one the time is the wall clock's.
func (r *run) setup(traced bool, ref *live) (lv *live, took float64, err error) {
	start := time.Now()
	var gauging time.Duration
	var refRates []float64
	gauge := func() error {
		if ref == nil {
			return nil
		}
		t := time.Now()
		sl, _, err := runSlice(ref, r.load.requests, t, setupSlice)
		gauging += time.Since(t)
		refRates = append(refRates, sl.ArrivalsPS)
		return err
	}
	flags, dataDir := r.serverFlags(traced)
	srv, err := spawn(r.h.bin, r.h.plan, r.logPath(), traced, flags...)
	if err != nil {
		return nil, 0, err
	}
	lv = &live{srv: srv, flags: flags, dataDir: dataDir, cur: &cursor{}}
	defer func(lv *live) { // the failing returns have set the result to nil
		if err != nil {
			lv.close()
		}
	}(lv)
	polls, err := srv.waitHealthy(10 * time.Second)
	r.res.phase("setup").add(phase{Sent: polls, Succeeded: 1}) // polls before readiness are not failures
	if err == nil {
		err = gauge()
	}
	if err != nil {
		return nil, 0, err
	}

	// Registration and verification go down one connection, serially.
	first, err := newSender(srv.addr, r.load, r.res.Seed)
	if err != nil {
		return nil, 0, err
	}
	defer first.c.close()
	for i := range r.load.register {
		if _, err := first.roundTrip(&r.load.register[i], 0); err != nil {
			return nil, 0, err
		}
		if id := *first.reply.ID; int(id) != i {
			return nil, 0, fmt.Errorf("bench: campaign %d registered as id %d", i, id)
		}
	}
	r.res.phase("setup").add(first.ops)
	first.ops = phase{}
	if err := gauge(); err != nil {
		return nil, 0, err
	}

	if first.twin, err = newTwin(r.load.fleet); err != nil {
		return nil, 0, err
	}
	first.spans, first.nonce = r.spans.buf(r.load.verifyN), r.nonce
	var verr error
	r.spans.do("loadgen.verify", r.root, func(id uint64) {
		first.parent = id
		for i := 0; i < r.load.verifyN && verr == nil; i++ {
			_, verr = first.one(&r.load.requests[lv.cur.take()], uint64(i))
		}
	})
	first.spans.flush()
	first.twin.b.Close()
	r.res.phase("verify").add(first.ops)
	if verr != nil {
		return nil, 0, fmt.Errorf("verify pass: %w", verr)
	}
	lv.arrivals, lv.offers = first.arrivals, first.offers
	if err := gauge(); err != nil {
		return nil, 0, err
	}
	// Every rehearsal replays the same prefix on a fresh fleet, so this is
	// the same number each time — and the same on every run of this seed.
	r.res.set("utility_per_arrival", first.utility/float64(first.arrivals), int(first.arrivals))

	for i := 0; i < r.h.conns; i++ {
		s, err := newSender(srv.addr, r.load, r.res.Seed+int64(i)+1)
		if err != nil {
			return nil, 0, err
		}
		s.nonce = r.nonce
		lv.senders = append(lv.senders, s)
	}
	end := uint64(r.load.verifyN + r.load.spec.warmup)
	closedLoop(lv.senders, r.load.requests, lv.cur, time.Now(), func(seq uint64) bool { return seq >= end })
	if err := r.drain(lv, "warmup"); err != nil {
		return nil, 0, err
	}
	if err := gauge(); err != nil {
		return nil, 0, err
	}
	took = time.Since(start).Seconds()
	if ref != nil {
		if err := r.drain(ref, "reference"); err != nil {
			return nil, 0, err
		}
		took -= gauging.Seconds()
		r.res.SetupRawS = append(r.res.SetupRawS, took)
		took *= mean(refRates) / r.load.spec.refArrivalsPS
	}
	return lv, took, nil
}

// refWarmup is how long the reference server is driven before the window.
const refWarmup = 300 * time.Millisecond

// startReference brings up the reference server (reference.go) with as many
// connections as the server under test has, and warms it.
func (r *run) startReference() (*live, error) {
	srv, err := spawn(r.h.self, r.h.plan, filepath.Join(r.h.outDir, r.load.spec.name+".reference.log"), false, referenceArg)
	if err != nil {
		return nil, err
	}
	ref := &live{srv: srv, cur: &cursor{}}
	if _, err := srv.waitHealthy(10 * time.Second); err != nil {
		ref.close()
		return nil, err
	}
	for i := 0; i < r.h.conns; i++ {
		s, err := newSender(srv.addr, r.load, 0)
		if err != nil {
			ref.close()
			return nil, err
		}
		s.ref = true
		ref.senders = append(ref.senders, s)
	}
	end := time.Now().Add(refWarmup)
	closedLoop(ref.senders, r.load.requests, ref.cur, time.Now(), func(uint64) bool { return !time.Now().Before(end) })
	if err := r.drain(ref, "reference"); err != nil {
		ref.close()
		return nil, err
	}
	return ref, nil
}

// drain moves the senders' operation counts into the named phase and
// returns the first failure any of them saw.
func (r *run) drain(lv *live, name string) error {
	var first error
	for _, s := range lv.senders {
		r.res.phase(name).add(s.ops)
		s.ops = phase{}
		if first == nil {
			first = s.firstErr
		}
	}
	if first != nil {
		return fmt.Errorf("%s: %w", name, first)
	}
	return nil
}

// slice is one uninterrupted stretch of closed-loop load on one server.
type slice struct {
	Requests   int     `json:"requests"`
	Arrivals   int     `json:"arrivals"`
	Offers     int     `json:"offers"`
	Seconds    float64 `json:"seconds"`
	ArrivalsPS float64 `json:"arrivals_per_s"`
	P50us      float64 `json:"p50_us"`
	// CPUus is the serving process's user+system time over the slice, which
	// /proc counts in ticks of 10 ms: only sums over many slices mean much.
	CPUus float64 `json:"cpu_us"`
}

// pair is a slice of load on muaa-serve and the slice of the same kind of
// load on the reference server that followed it.
type pair struct {
	Serve slice `json:"serve"`
	Ref   slice `json:"ref"`
}

// The untraced window alternates these two. The machine's speed wanders on
// every time scale from 100 ms up, so the shorter the slices the better a
// pair shares its weather; 300 ms still holds some 25 requests of the
// slowest workload.
const (
	serveSlice = 300 * time.Millisecond
	refSlice   = 200 * time.Millisecond
)

// runSlice drives lv flat out for d. Completion times in the samples are
// offsets from origin.
func runSlice(lv *live, reqs []request, origin time.Time, d time.Duration) (slice, []sample, error) {
	cpu0, err := cpuTime(lv.srv.pid())
	if err != nil {
		return slice{}, nil, err
	}
	start := time.Now()
	end := start.Add(d)
	samples := closedLoop(lv.senders, reqs, lv.cur, origin, func(uint64) bool { return !time.Now().Before(end) })
	elapsed := time.Since(start)
	cpu1, err := cpuTime(lv.srv.pid())
	if err != nil {
		return slice{}, nil, err
	}
	sl := slice{Requests: len(samples), Seconds: elapsed.Seconds(), CPUus: float64((cpu1 - cpu0).Microseconds())}
	for _, sm := range samples {
		sl.Arrivals += int(sm.arrivals)
		sl.Offers += int(sm.offers)
	}
	sl.ArrivalsPS = float64(sl.Arrivals) / sl.Seconds
	sl.P50us = tailOf(samples, 0.50).Us
	return sl, samples, nil
}

// paired is the untraced window: for d it alternates a slice of load on the
// server under test with a slice on the reference server. m.samples are the
// server's only.
func (r *run) paired(lv, ref *live, d time.Duration) (*measured, error) {
	m := &measured{}
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); {
		var p pair
		var samples []sample
		var err error
		if p.Serve, samples, err = runSlice(lv, r.load.requests, start, serveSlice); err != nil {
			return nil, err
		}
		if p.Ref, _, err = runSlice(ref, r.load.requests, start, refSlice); err != nil {
			return nil, err
		}
		m.samples = append(m.samples, samples...)
		m.arrivals += int64(p.Serve.Arrivals)
		m.pairs = append(m.pairs, p)
	}
	m.elapsed = time.Since(start)
	err := r.drain(lv, "window")
	if rerr := r.drain(ref, "reference"); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	for _, p := range m.pairs {
		if p.Serve.Arrivals == 0 || p.Ref.Arrivals == 0 {
			return nil, errors.New("window: a slice answered no arrival")
		}
	}
	usage, err := readUsage(lv.srv.pid())
	m.after = usage
	return m, err
}

// measured is one timed closed-loop window and what was read around it.
type measured struct {
	pairs            []pair // untraced windows only
	samples          []sample
	elapsed          time.Duration
	before, after    procUsage
	genCPU           time.Duration
	arrivals         int64
	scrape0, scrape1 scrape
}

// window runs the closed loop for d and reads the server's /proc usage (and,
// when scraping, /metrics) on both sides of it.
func (r *run) window(lv *live, d time.Duration, traced, scraping bool) (*measured, error) {
	m := &measured{}
	var err error
	if scraping {
		if m.scrape0, err = scrapeMetrics(lv.srv.addr); err != nil {
			return nil, err
		}
	}
	var spanID uint64
	if traced {
		spanID = r.spans.id()
		for _, s := range lv.senders {
			s.spans, s.parent = r.spans.buf(1<<16), spanID
		}
	}
	a0, _ := lv.counts()
	if m.before, err = readUsage(lv.srv.pid()); err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	start := time.Now()
	deadline := start.Add(d)
	m.samples = closedLoop(lv.senders, r.load.requests, lv.cur, start, func(uint64) bool { return !time.Now().Before(deadline) })
	m.elapsed = time.Since(start)
	m.genCPU = selfCPU() - gen0
	if m.after, err = readUsage(lv.srv.pid()); err != nil {
		return nil, err
	}
	a1, _ := lv.counts()
	m.arrivals = a1 - a0
	if traced {
		r.spans.add(span{ID: spanID, Parent: r.root, Name: "bench.window", Start: start.UnixNano(), End: start.Add(m.elapsed).UnixNano()})
		for _, s := range lv.senders {
			s.spans.flush()
			s.spans = nil
		}
	}
	if err := r.drain(lv, "window"); err != nil {
		return nil, err
	}
	if m.arrivals == 0 {
		return nil, errors.New("window: no arrival was answered")
	}
	if scraping {
		if m.scrape1, err = scrapeMetrics(lv.srv.addr); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func scrapeMetrics(addr string) (scrape, error) {
	status, body, err := get(addr, "/metrics")
	if err != nil || status != 200 {
		return nil, fmt.Errorf("scrape /metrics: status %d, %v", status, err)
	}
	return parseScrape(body)
}

// rate is the arrivals per second of a plain window: the median of its
// one-second windows.
func rate(m *measured, seconds int) float64 {
	var vs []float64
	for _, w := range windows(m.samples, time.Second, time.Duration(seconds)*time.Second) {
		vs = append(vs, w.ArrivalsPS)
	}
	return median(vs)
}

// endToEnd reduces an untraced window to the end-to-end metrics. The
// time-based ones are ratios to the reference server: per pair for rate and
// latency, then the median over pairs; over the whole window for CPU, whose
// clock is too coarse for one slice.
func (r *run) endToEnd(m *measured) {
	r.res.Pairs = m.pairs
	var thr, p50, sRate, sP50, rRate, rP50 []float64
	var serve, ref slice
	for _, p := range m.pairs {
		thr = append(thr, p.Serve.ArrivalsPS/p.Ref.ArrivalsPS)
		p50 = append(p50, p.Serve.P50us/p.Ref.P50us)
		sRate, sP50 = append(sRate, p.Serve.ArrivalsPS), append(sP50, p.Serve.P50us)
		rRate, rP50 = append(rRate, p.Ref.ArrivalsPS), append(rP50, p.Ref.P50us)
		serve.Requests, ref.Requests = serve.Requests+p.Serve.Requests, ref.Requests+p.Ref.Requests
		serve.Arrivals, ref.Arrivals = serve.Arrivals+p.Serve.Arrivals, ref.Arrivals+p.Ref.Arrivals
		serve.CPUus, ref.CPUus = serve.CPUus+p.Serve.CPUus, ref.CPUus+p.Ref.CPUus
	}
	serveCPU, refCPU := serve.CPUus/float64(serve.Arrivals), ref.CPUus/float64(ref.Arrivals)
	set := r.res.set
	set("throughput_vs_ref", median(thr), len(thr))
	set("p50_vs_ref", median(p50), serve.Requests)
	set("server_cpu_vs_ref", serveCPU/refCPU, serve.Arrivals)
	set("server_rss_mb", m.after.hwmMB, 1)
	// What the ratios are made of, for the reader: this hour's weather is in them.
	set("arrivals_per_s", median(sRate), len(sRate))
	set("p50_us", median(sP50), serve.Requests)
	set("server_cpu_us_per_arrival", serveCPU, serve.Arrivals)
	set("ref.arrivals_per_s", median(rRate), len(rRate))
	set("ref.p50_us", median(rP50), ref.Requests)
	set("ref.cpu_us_per_arrival", refCPU, ref.Arrivals)
	set("serve.p90_us", tailOf(m.samples, 0.90).Us, len(m.samples))
}

// steady fails the run when offers per arrival drifted between the first
// and the last slice on the server: the numbers would describe a transient.
func steady(ps []pair) error {
	if len(ps) < 2 {
		return nil
	}
	f, l := ps[0].Serve, ps[len(ps)-1].Serve
	a, b := float64(f.Offers)/float64(f.Arrivals), float64(l.Offers)/float64(l.Arrivals)
	if hi, lo := max(a, b), min(a, b); hi > 0 && (hi-lo)/hi > 0.15 {
		return fmt.Errorf("workload not steady: %.3f offers per arrival in the first slice, %.3f in the last", a, b)
	}
	return nil
}

// after checks the server's own account of the run against the client's.
func (r *run) after(lv *live) error {
	status, body, err := get(lv.srv.addr, "/v1/stats")
	r.res.phase("window").add(phase{Sent: 1})
	if err != nil || status != 200 {
		r.res.phase("window").Failed++
		return fmt.Errorf("GET /v1/stats: status %d, %v", status, err)
	}
	r.res.phase("window").Succeeded++
	var st broker.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("GET /v1/stats: %v", err)
	}
	arrivals, offers := lv.counts()
	if st.Arrivals != arrivals || st.OffersPushed != offers {
		return fmt.Errorf("server counted %d arrivals and %d offers, the client %d and %d", st.Arrivals, st.OffersPushed, arrivals, offers)
	}
	sc, err := scrapeMetrics(lv.srv.addr)
	if err != nil {
		return err
	}
	r.res.set("serve.gomaxprocs", sc["go_gomaxprocs"], 1) // results.json records it for both processes
	if n := sc.sum("muaa_broker_campaign_exhausted_total"); n != 0 && r.load.spec.budgetRich() {
		return fmt.Errorf("%v campaigns exhausted on a budget-rich workload", n)
	}
	return nil
}

// restarts is how many times the durable workload recovers its log.
const restarts = 5

// recovery is the durable workload's second half: quiesce, snapshot the
// counters, kill -9, then restart several times on the directory as the
// crash left it. Every recovered /v1/stats must equal the snapshot byte for
// byte. It consumes lv.
func (r *run) recovery(lv *live, traced bool) error {
	ph := r.res.phase("recovery")
	stats := func(s *server) ([]byte, error) {
		ph.Sent++
		status, body, err := get(s.addr, "/v1/stats")
		if err != nil || status != 200 {
			ph.Failed++
			return nil, fmt.Errorf("recovery: GET /v1/stats: status %d, %v", status, err)
		}
		ph.Succeeded++
		return body, nil
	}
	for _, s := range lv.senders {
		s.c.close()
	}
	time.Sleep(200 * time.Millisecond) // let the last group commit reach the file
	want, err := stats(lv.srv)
	if err != nil {
		return err
	}
	lv.srv.kill()
	// Recovery compacts as soon as it has replayed (the next boot would read
	// a snapshot and no log), so every restart gets its own copy of the
	// directory exactly as the crash left it.
	crashed := lv.dataDir + ".crashed"
	if err := os.Rename(lv.dataDir, crashed); err != nil {
		return err
	}
	defer os.RemoveAll(crashed)
	defer os.RemoveAll(lv.dataDir)

	restart := func(fromCrash bool) (*server, float64, error) {
		if fromCrash {
			os.RemoveAll(lv.dataDir)
			if err := copyDir(crashed, lv.dataDir); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		s, err := spawn(r.h.bin, r.h.plan, r.logPath(), false, lv.flags...)
		if err != nil {
			return nil, 0, err
		}
		if _, err := s.waitHealthy(10 * time.Second); err != nil {
			s.kill()
			return nil, 0, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1e3
		got, err := stats(s)
		if err == nil && !bytes.Equal(got, want) {
			ph.Failed++
			err = fmt.Errorf("recovered /v1/stats differs from the pre-kill snapshot:\n before %s after  %s", want, got)
		}
		if err != nil {
			s.kill()
			return nil, 0, err
		}
		return s, ms, nil
	}
	var records float64
	for i := 0; i < restarts; i++ {
		s, ms, err := restart(true)
		if err != nil {
			return fmt.Errorf("restart %d: %w", i+1, err)
		}
		r.res.Restart = append(r.res.Restart, ms)
		sc, err := scrapeMetrics(s.addr)
		if err != nil {
			s.kill()
			return err
		}
		records = sc["muaa_broker_recovery_records"]
		if i < restarts-1 || !traced {
			s.kill()
			continue
		}
		// One graceful stop: the final snapshot makes the next boot replay
		// nothing, which prices the snapshot path against the log path.
		s.stop()
		s2, ms, err := restart(false)
		if err != nil {
			return fmt.Errorf("restart from snapshot: %w", err)
		}
		s2.kill()
		r.res.set("recover.snapshot_boot_ms", ms, 1)
	}
	if records == 0 {
		return errors.New("recovery replayed no records")
	}
	r.res.set("recover.us_per_record", median(r.res.Restart)*1e3/records, int(records))
	r.res.set("recover.records", records, 1)
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runWorkload is one whole run: generate, set up (setups times, keeping the
// last), measure, check, and for the traced run everything per-layer.
func (h *harness) runWorkload(s spec, seed int64, seconds int, traced bool, setups int) *result {
	res := &result{Workload: s.name, Seed: seed, Seconds: seconds, Traced: traced,
		Phases: map[string]*phase{}, Metrics: map[string]metric{}}
	r := &run{h: h, res: res, nonce: uint64(time.Now().UnixNano()) | 1}
	if traced {
		r.spans = &spanLog{}
		r.root = r.spans.id()
	}
	os.Remove(filepath.Join(h.outDir, s.name+".server.log"))
	begin := time.Now()
	err := r.measure(s, seed, seconds, traced, setups)
	if traced {
		r.spans.add(span{ID: r.root, Name: "bench.run", Start: begin.UnixNano(), End: time.Now().UnixNano()})
		res.Spans = totalsByName(r.spans.spans)
		if werr := writeSpans(filepath.Join(h.outDir, s.name+".spans.jsonl"), r.spans.spans); err == nil {
			err = werr
		}
	}
	_, failed := res.attempted()
	res.Correct = err == nil && failed == 0
	if err != nil {
		res.Error = err.Error()
	} else if failed > 0 {
		res.Error = fmt.Sprintf("%d operations failed", failed)
	}
	return res
}

func (r *run) measure(s spec, seed int64, seconds int, traced bool, setups int) error {
	var err error
	genStart := time.Now()
	r.spans.do("loadgen.encode", r.root, func(uint64) { r.load, err = generate(s, seed) })
	if err != nil {
		return err
	}
	r.res.GenerateS = time.Since(genStart).Seconds()
	// Data directories of the durable servers and of the ladder's WAL arms.
	tmp := filepath.Join(r.h.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Untraced runs measure against the reference server (reference.go).
	var ref *live
	if !traced {
		if ref, err = r.startReference(); err != nil {
			return err
		}
		defer ref.close()
	}
	// The first server runs production defaults. Untraced runs rehearse the
	// set-up several times so setup_s is a median, and measure on the last;
	// the traced run needs it only for the overhead comparison.
	var lv *live // the server in use; nil once something else has taken it down
	closeLive := func() {
		if lv != nil {
			lv.close()
			lv = nil
		}
	}
	defer closeLive()
	for i := 0; i < setups; i++ {
		closeLive()
		var took float64
		if lv, took, err = r.setup(false, ref); err != nil {
			return err
		}
		r.res.SetupS = append(r.res.SetupS, took)
	}
	r.res.ServerFlags = lv.flags
	r.res.set("setup_s", median(r.res.SetupS), len(r.res.SetupS))
	if !traced {
		r.res.set("setup_raw_s", median(r.res.SetupRawS), len(r.res.SetupRawS))
		m, err := r.paired(lv, ref, time.Duration(seconds)*time.Second)
		if err != nil {
			return err
		}
		r.endToEnd(m)
		if err := r.after(lv); err != nil {
			return err
		}
		if s.budgetRich() {
			if err := steady(r.res.Pairs); err != nil {
				return err
			}
		}
		if s.durable {
			err = r.recovery(lv, false)
			lv = nil
			return err
		}
		return nil
	}

	// Every traced run prints every per-layer metric; a layer this workload
	// does not exercise stays at 0.
	for _, d := range perLayer {
		r.res.set(d.name, 0, 0)
	}
	// Traced run. First a short untraced window on the default server, so
	// the cost of tracing can be stated; then everything again with spans,
	// traceparent headers, a debug listener and a deeper flight recorder.
	refSeconds := max(2, seconds/3)
	plain, err := r.window(lv, time.Duration(refSeconds)*time.Second, false, false)
	closeLive()
	if err != nil {
		return err
	}
	refRate := rate(plain, refSeconds)

	if lv, _, err = r.setup(true, nil); err != nil {
		return err
	}
	r.res.ServerFlags = lv.flags
	m, err := r.window(lv, time.Duration(seconds)*time.Second, true, true)
	if err != nil {
		return err
	}
	tracedRate := rate(m, seconds)
	r.res.set("bench.trace_overhead_pct", 100*(refRate-tracedRate)/refRate, 1)
	r.perLayer(m, lv)
	if err := r.pullTraces(lv); err != nil {
		return err
	}
	if err := r.openLoop(lv, seconds); err != nil {
		return err
	}
	if err := r.after(lv); err != nil {
		return err
	}
	if s.durable {
		err = r.recovery(lv, true)
		lv = nil
		if err != nil {
			return err
		}
	}
	closeLive() // the ladder runs with the core to itself
	var rungs map[string]float64
	r.spans.do("bench.ladder", r.root, func(id uint64) {
		rungs, r.res.Ladder, err = runLadder(r.load, tmp, time.Duration(seconds)*time.Second/3, r.spans, id)
	})
	if err != nil {
		return err
	}
	for name, v := range rungs {
		r.res.set(name, v, r.res.Ladder.Rounds)
	}
	// The chain telescopes, so sum − top is exactly the negative differences
	// that were clamped: the ladder's own noise. It is a reason to distrust
	// this run's rungs, not its end-to-end checks, so it warns and goes on.
	if sum, top := rungs["ladder.sum_ns"], rungs["ladder.top_ns"]; sum > 1.15*top {
		fmt.Fprintf(os.Stderr, "bench: %s: ladder does not reconcile: rungs sum to %.0f ns, the top arm measures %.0f ns\n", s.name, sum, top)
	}
	return nil
}

// perLayer derives the server-scrape and client-side per-layer metrics of
// the traced window.
func (r *run) perLayer(m *measured, lv *live) {
	set := r.res.set
	b, a := m.scrape0, m.scrape1
	for _, st := range []string{"lock_wait", "gather", "scan", "commit"} {
		l := `{stage="` + st + `"}`
		sum := a["muaa_broker_arrival_stage_seconds_sum"+l] - b["muaa_broker_arrival_stage_seconds_sum"+l]
		cnt := a["muaa_broker_arrival_stage_seconds_count"+l] - b["muaa_broker_arrival_stage_seconds_count"+l]
		v := 0.0
		if cnt > 0 {
			v = sum / cnt * 1e6
		}
		set("broker.stage."+st+"_us", v, int(cnt))
	}
	arr := delta(b, a, "muaa_broker_arrivals_total")
	set("broker.offers_per_arrival", ratio(b, a, "muaa_broker_offers_pushed_total", "muaa_broker_arrivals_total"), int(arr))
	set("broker.gathered_per_arrival", ratio(b, a, "muaa_funnel_gathered_total", "muaa_broker_arrivals_total"), int(arr))
	set("broker.stripe_contended_ratio", ratio(b, a, "muaa_broker_stripe_lock_contended_total", "muaa_broker_stripe_lock_total"), int(delta(b, a, "muaa_broker_stripe_lock_total")))
	set("broker.batch_size_mean", ratio(b, a, "muaa_broker_batch_size_sum", "muaa_broker_batch_size_count"), int(delta(b, a, "muaa_broker_batch_size_count")))
	set("wal.appends", delta(b, a, "muaa_wal_appends_total"), 1)
	set("wal.fsyncs", delta(b, a, "muaa_wal_fsyncs_total"), 1)
	set("wal.records_per_fsync", ratio(b, a, "muaa_wal_appends_total", "muaa_wal_fsyncs_total"), int(delta(b, a, "muaa_wal_fsyncs_total")))
	set("wal.flush_p99_ms", histQuantile(b, a, "muaa_wal_flush_seconds", 0.99)*1e3, int(delta(b, a, "muaa_wal_flush_seconds_count")))
	set("runtime.gc_cycles", delta(b, a, "go_gc_cycles_total"), 1)
	set("runtime.heap_mb", a["go_heap_alloc_bytes"]/(1<<20), 1)
	set("runtime.gc_last_pause_us", a["go_gc_last_pause_seconds"]*1e6, 1)
	n := float64(m.arrivals)
	set("serve.cpu_user_us_per_arrival", float64((m.after.user-m.before.user).Microseconds())/n, int(n))
	set("serve.cpu_sys_us_per_arrival", float64((m.after.sys-m.before.sys).Microseconds())/n, int(n))
	set("serve.p90_us", tailOf(m.samples, 0.90).Us, len(m.samples))
	p99, p999 := tailOf(m.samples, 0.99), tailOf(m.samples, 0.999)
	set("serve.p99_us", p99.Us, p99.N)
	set("serve.p99_beyond", float64(p99.Beyond), p99.N)
	set("serve.p999_us", p999.Us, p999.N)
	set("serve.p999_beyond", float64(p999.Beyond), p999.N)
	set("loadgen.cpu_us_per_req", float64(m.genCPU.Microseconds())/float64(len(m.samples)), len(m.samples))
	set("serve.gomaxprocs", a["go_gomaxprocs"], 1)
}

// pullTraces fetches the server's retained arrival traces from the debug
// listener and hangs each under the client.roundtrip span whose id the
// traceparent header carried. Done from outside: no source change.
func (r *run) pullTraces(lv *live) error {
	status, body, err := get(lv.srv.debug, "/v1/debug/traces?limit=8192")
	if err != nil || status != 200 {
		return fmt.Errorf("GET /v1/debug/traces: status %d, %v", status, err)
	}
	var doc struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Parent  string `json:"parent_span_id"`
			Name    string `json:"name"`
			Start   int64  `json:"start_unix_nano"`
			Dur     int64  `json:"duration_ns"`
			Spans   []struct {
				Name  string `json:"name"`
				Start int64  `json:"start_unix_nano"`
				Dur   int64  `json:"duration_ns"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("GET /v1/debug/traces: %v", err)
	}
	mine := fmt.Sprintf("%016x", r.nonce)
	byID := map[uint64]*span{}
	for i := range r.spans.spans {
		if s := &r.spans.spans[i]; s.Name == "client.roundtrip" {
			byID[s.ID] = s
		}
	}
	var joined int
	var serverNs, selfNs float64
	for _, t := range doc.Traces {
		if len(t.TraceID) != 32 || t.TraceID[:16] != mine {
			continue
		}
		parent, err := strconv.ParseUint(t.Parent, 16, 64)
		rt := byID[parent]
		if err != nil || rt == nil {
			continue
		}
		id := r.spans.id()
		r.spans.add(span{ID: id, Parent: parent, Name: "server." + t.Name, Start: t.Start, End: t.Start + t.Dur, Req: rt.Req})
		for _, st := range t.Spans {
			r.spans.add(span{ID: r.spans.id(), Parent: id, Name: "server." + st.Name, Start: st.Start, End: st.Start + st.Dur, Req: rt.Req})
		}
		joined++
		serverNs += float64(t.Dur)
		selfNs += float64(rt.End-rt.Start) - float64(t.Dur)
	}
	if joined == 0 {
		return errors.New("no retained server trace matched a client span: traceparent was not honoured")
	}
	r.res.set("trace.joined", float64(joined), len(doc.Traces))
	r.res.set("trace.server_arrival_us", serverNs/float64(joined)/1e3, joined)
	r.res.set("trace.roundtrip_self_us", selfNs/float64(joined)/1e3, joined)
	return nil
}

// openRates are the fixed arrival rates of the open-loop steps (req/s).
var openRates = []int{2000, 4000, 8000}

// openLoop runs the fixed-rate steps on the single-arrival workload; the
// other workloads keep the zeros, a batch having no arrival rate to fix.
func (r *run) openLoop(lv *live, seconds int) error {
	if r.load.spec.batch != 1 {
		return nil
	}
	maxOK, lateUs := 0.0, 0.0
	for _, rate := range openRates {
		base := lv.cur.take()
		lat, late, err := openLoop(rate, rate*max(1, seconds/5), len(lv.senders), func(worker, i int) error {
			seq := base + uint64(i)
			_, err := lv.senders[worker].one(&r.load.requests[seq%uint64(len(r.load.requests))], seq)
			return err
		})
		lv.cur.next.Add(uint64(len(lat)))
		if derr := r.drain(lv, "open_loop"); err == nil {
			err = derr
		}
		if err != nil {
			return err
		}
		st := reduceOpen(rate, lat, late)
		suffix := ".r" + strconv.Itoa(rate)
		r.res.set("serve.open.p50_us"+suffix, st.P50us, st.Sent)
		r.res.set("serve.open.p99_us"+suffix, st.P99us, st.Sent)
		if st.P99us <= 5000 && !st.Growing {
			maxOK = float64(rate)
		}
		lateUs = max(lateUs, st.LateUs)
		r.res.Open = append(r.res.Open, st)
	}
	r.res.set("serve.open.max_rate_ok", maxOK, len(openRates))
	r.res.set("loadgen.open.late_us", lateUs, len(openRates))
	return nil
}
