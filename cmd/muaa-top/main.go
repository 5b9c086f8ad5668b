// Command muaa-top is a live terminal dashboard for a running muaa-serve:
// the operator's one-screen view of throughput, latency by pipeline stage,
// the paper's competitive-ratio health, the decision funnel, billing, the
// runtime, and the SLO watchdog.
//
//	muaa-top -addr http://127.0.0.1:8080 -debug-addr http://127.0.0.1:6060
//
// It is a renderer of what the server already derived. Every -every it makes
// three requests — GET /v1/debug/timeseries?series=…&range=2m and GET
// /v1/debug/slo on the debug port, GET /v1/stats on the serving port — and
// redraws an ANSI frame in which every value is the newest point of a named
// retention-ring series (muaa_broker_arrivals_total:rate,
// muaa_broker_arrival_seconds:p99, …) and every sparkline is that ring's
// points: rates and quantiles are over the server's sample window
// (muaa-serve -sample-every), history survives a dashboard restart, and the
// LATENCY row reads the same series the arrival_p99 SLO rule trips on. It
// never scrapes the Prometheus exposition. docs/OPERATIONS.md § The retention
// ring has the series naming.
//
//	-once      print a single plain-text frame (no ANSI) and exit — for
//	           scripts and the CI smoke test
//	-every     poll and redraw cadence (default 2s; must be positive)
//	-no-color  disable ANSI colors (also implied by -once)
//
// Without the rings — debug port unreachable, or muaa-serve started with a
// negative -sample-every — the frame is the /v1/stats lines plus one line
// saying why, in the server's own words where it gave any. -once exits 1 only
// when it got neither the stats nor the rings, 2 on a bad flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"muaa/internal/buildinfo"
)

// errEvery refuses a cadence time.NewTicker would panic on.
var errEvery = errors.New("-every must be positive")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("muaa-top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "muaa-serve base URL (serving port)")
	debugAddr := fs.String("debug-addr", "http://127.0.0.1:6060", "muaa-serve debug base URL (retention rings and SLO table)")
	every := fs.Duration("every", 2*time.Second, "poll and redraw cadence")
	once := fs.Bool("once", false, "print one plain-text frame and exit")
	noColor := fs.Bool("no-color", false, "disable ANSI colors")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("muaa-top"))
		return 0
	}
	if *every <= 0 {
		fmt.Fprintf(stderr, "muaa-top: %v, got %s\n", errEvery, *every)
		return 2
	}

	c := &client{
		base:      *addr,
		debugBase: *debugAddr,
		hc:        &http.Client{Timeout: 5 * time.Second},
	}
	if *once {
		if err := runOnce(c, stdout); err != nil {
			fmt.Fprintln(stderr, "muaa-top:", err)
			return 1
		}
		return 0
	}

	color := !*noColor
	// Alternate screen + hidden cursor, restored on exit however we leave.
	if color {
		fmt.Fprint(stdout, "\x1b[?1049h\x1b[?25l")
		defer fmt.Fprint(stdout, "\x1b[?25h\x1b[?1049l")
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*every)
	defer tick.Stop()
	for {
		f := c.poll()
		if color {
			fmt.Fprint(stdout, "\x1b[H\x1b[2J")
		}
		f.render(stdout, c.base, color)
		select {
		case <-sigs:
			return 0
		case <-tick.C:
		}
	}
}

// runOnce writes a single plain frame; an error when neither port had
// anything to render.
func runOnce(c *client, w io.Writer) error {
	f := c.poll()
	if f.stats == nil && f.rings == nil {
		return fmt.Errorf("cannot reach %s or %s: %s", c.base, c.debugBase, strings.Join(f.notes, "; "))
	}
	f.render(w, c.base, false)
	return nil
}
