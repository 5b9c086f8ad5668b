package obs

import (
	"runtime"
	"sync"
	"time"
)

// memSampler caches runtime.ReadMemStats results so that a burst of gauge
// reads within one scrape (heap alloc, GC cycles and GC pause all sample it)
// costs one stop-the-world-free ReadMemStats call, and an aggressive
// scraper cannot hammer the runtime.
type memSampler struct {
	mu   sync.Mutex
	at   time.Time
	stat runtime.MemStats
}

const memSampleTTL = 250 * time.Millisecond

func (s *memSampler) get() runtime.MemStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); now.Sub(s.at) > memSampleTTL {
		runtime.ReadMemStats(&s.stat)
		s.at = now
	}
	return s.stat
}

// RegisterRuntimeMetrics registers Go runtime health gauges on reg:
// goroutine count, GOMAXPROCS, heap alloc bytes, GC cycle count, the last GC
// pause, and process uptime (so the dashboard can spot restarts). All values
// are sampled at scrape time — the serving path pays nothing — and memory
// stats are cached for a short TTL so scrapes stay cheap.
func RegisterRuntimeMetrics(reg *Registry) {
	var mem memSampler
	reg.NewGaugeFunc("go_goroutines",
		"Goroutines currently live in this process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.NewGaugeFunc("go_gomaxprocs",
		"GOMAXPROCS: OS threads simultaneously executing Go code.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	reg.NewGaugeFunc("go_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(mem.get().HeapAlloc) })
	reg.NewCounterFunc("go_gc_cycles_total",
		"Completed garbage-collection cycles.",
		func() float64 { return float64(mem.get().NumGC) })
	reg.NewGaugeFunc("go_gc_last_pause_seconds",
		"Duration of the most recent GC stop-the-world pause.",
		func() float64 {
			m := mem.get()
			if m.NumGC == 0 {
				return 0
			}
			return float64(m.PauseNs[(m.NumGC+255)%256]) / 1e9
		})
	start := time.Now()
	reg.NewGaugeFunc("muaa_process_uptime_seconds",
		"Seconds since this process registered its runtime metrics. A reset "+
			"to near zero between samples means the process restarted.",
		func() float64 { return time.Since(start).Seconds() })
}
