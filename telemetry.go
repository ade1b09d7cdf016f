package eil

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/runtimetel"
	"repro/internal/slo"
)

// HealthOptions tunes the component checks NewHealth registers.
type HealthOptions struct {
	// Collector, when set, supplies the runtime watermark readings
	// (goroutines, heap); without one the goroutine check falls back to
	// runtime.NumGoroutine and the heap check is skipped.
	Collector *runtimetel.Collector
	// SnapshotInterval is the expected checkpoint cadence; the freshness
	// check degrades when the last checkpoint is older than three times it.
	// Zero disables the freshness check (manual-save deployments).
	SnapshotInterval time.Duration
	// MaxGoroutines is the goroutine watermark (0 = 10000).
	MaxGoroutines int
	// MaxHeapBytes is the heap-live watermark (0 disables the heap check).
	MaxHeapBytes uint64
}

// NewHealth builds the system's readiness registry: the component checks
// /readyz evaluates on every poll. Criticality mirrors what each failure
// means for traffic — a missing index or dead journal makes answers wrong
// or lossy (critical, "unready"), while an open breaker or stale snapshot
// means the resilience envelope is already serving reduced answers
// (non-critical, "degraded" — still a 503 so load balancers drain the
// instance, but the verdict names the softer state).
func (s *System) NewHealth(opts HealthOptions) *health.Registry {
	reg := health.NewRegistry(s.Metrics)
	if opts.MaxGoroutines <= 0 {
		opts.MaxGoroutines = 10000
	}

	reg.Register("index", true, func() health.Result {
		if s.Index == nil {
			return health.Failedf("no index attached")
		}
		return health.OKf("%d docs, epoch %d", s.Index.DocCount(), s.Index.Generation())
	})

	registerBreakerChecks(reg, s.Engine)

	reg.Register("wal", true, func() health.Result {
		enabled, err := s.WALProbe()
		if !enabled {
			return health.OKf("journal not configured")
		}
		if err != nil {
			return health.Failedf("journal not appendable: %v", err)
		}
		return health.OKf("appendable")
	})

	reg.Register("snapshots", false, func() health.Result {
		gen, at := s.LastCheckpoint()
		if opts.SnapshotInterval <= 0 || at.IsZero() {
			return health.OKf("gen %d; periodic checkpointing not configured", gen)
		}
		age := time.Since(at)
		if age > 3*opts.SnapshotInterval {
			return health.Degradedf("gen %d is %s old (expected every %s)", gen, age.Round(time.Second), opts.SnapshotInterval)
		}
		return health.OKf("gen %d, %s old", gen, age.Round(time.Second))
	})

	reg.Register("goroutines", false, func() health.Result {
		n := runtime.NumGoroutine()
		if opts.Collector != nil {
			if smp, ok := opts.Collector.Latest(); ok {
				n = smp.Goroutines
			}
		}
		if n > opts.MaxGoroutines {
			return health.Degradedf("%d goroutines (watermark %d); likely a leak", n, opts.MaxGoroutines)
		}
		return health.OKf("%d goroutines", n)
	})

	if opts.MaxHeapBytes > 0 && opts.Collector != nil {
		reg.Register("heap", false, func() health.Result {
			smp, ok := opts.Collector.Latest()
			if !ok {
				return health.OKf("no sample yet")
			}
			if smp.HeapLiveBytes > opts.MaxHeapBytes {
				return health.Degradedf("heap live %d bytes over watermark %d", smp.HeapLiveBytes, opts.MaxHeapBytes)
			}
			return health.OKf("heap live %d bytes", smp.HeapLiveBytes)
		})
	}

	return reg
}

// NewHealth builds the cluster's readiness registry: one index and WAL
// check per shard, plus the per-backend breaker checks that walk every
// shard's circuit.
func (c *Cluster) NewHealth(opts HealthOptions) *health.Registry {
	reg := health.NewRegistry(c.Metrics)
	if opts.MaxGoroutines <= 0 {
		opts.MaxGoroutines = 10000
	}

	for i, s := range c.Shards {
		i, s := i, s
		reg.Register(fmt.Sprintf("index:shard-%d", i), true, func() health.Result {
			if s.Index == nil {
				return health.Failedf("no index attached")
			}
			return health.OKf("%d docs, epoch %d", s.Index.DocCount(), s.Index.Generation())
		})
		reg.Register(fmt.Sprintf("wal:shard-%d", i), true, func() health.Result {
			enabled, err := s.WALProbe()
			if !enabled {
				return health.OKf("journal not configured")
			}
			if err != nil {
				return health.Failedf("journal not appendable: %v", err)
			}
			return health.OKf("appendable")
		})
	}

	registerBreakerChecks(reg, c.Engine)

	reg.Register("snapshots", false, func() health.Result {
		var oldest time.Time
		var gen uint64
		configured := false
		for _, s := range c.Shards {
			g, at := s.LastCheckpoint()
			gen = g
			if at.IsZero() {
				continue
			}
			configured = true
			if oldest.IsZero() || at.Before(oldest) {
				oldest = at
			}
		}
		if opts.SnapshotInterval <= 0 || !configured {
			return health.OKf("gen %d; periodic checkpointing not configured", gen)
		}
		age := time.Since(oldest)
		if age > 3*opts.SnapshotInterval {
			return health.Degradedf("oldest shard checkpoint is %s old (expected every %s)", age.Round(time.Second), opts.SnapshotInterval)
		}
		return health.OKf("oldest shard checkpoint %s old", age.Round(time.Second))
	})

	reg.Register("goroutines", false, func() health.Result {
		n := runtime.NumGoroutine()
		if opts.Collector != nil {
			if smp, ok := opts.Collector.Latest(); ok {
				n = smp.Goroutines
			}
		}
		if n > opts.MaxGoroutines {
			return health.Degradedf("%d goroutines (watermark %d); likely a leak", n, opts.MaxGoroutines)
		}
		return health.OKf("%d goroutines", n)
	})

	if opts.MaxHeapBytes > 0 && opts.Collector != nil {
		reg.Register("heap", false, func() health.Result {
			smp, ok := opts.Collector.Latest()
			if !ok {
				return health.OKf("no sample yet")
			}
			if smp.HeapLiveBytes > opts.MaxHeapBytes {
				return health.Degradedf("heap live %d bytes over watermark %d", smp.HeapLiveBytes, opts.MaxHeapBytes)
			}
			return health.OKf("heap live %d bytes", smp.HeapLiveBytes)
		})
	}

	return reg
}

// registerBreakerChecks adds one non-critical check per backend hop,
// "breaker:synopsis" and "breaker:siapi", over every shard's circuit for
// that hop (a System's engine is one unnamed shard). A check degrades as
// soon as any circuit is not closed, because searches are already serving
// reduced answers around it.
func registerBreakerChecks(reg *health.Registry, eng *core.Engine) {
	for _, backend := range []string{core.BackendSynopsis, core.BackendSIAPI} {
		reg.Register("breaker:"+backend, false, func() health.Result {
			if eng == nil {
				return health.OKf("no engine")
			}
			states := eng.ShardBreakerStates(backend)
			open, probing := 0, 0
			for _, state := range states {
				switch state {
				case "open":
					open++
				case "half-open":
					probing++
				}
			}
			switch {
			case open > 0:
				return health.Degradedf("%d of %d %s circuits open; searches degrade around them", open, len(states), backend)
			case probing > 0:
				return health.Degradedf("%d of %d %s circuits half-open; probing", probing, len(states), backend)
			default:
				return health.OKf("all %d %s circuits closed", len(states), backend)
			}
		})
	}
}

// AppSampler returns a runtimetel AppSampler that folds the application's
// one-screen numbers into every runtime sample (see appSampler).
func (s *System) AppSampler(sloEng *slo.Engine) func(prev, cur *runtimetel.Sample) {
	return appSampler(s.Metrics, s.Engine, sloEng)
}

// AppSampler is the cluster-side runtimetel sampler (see appSampler).
func (c *Cluster) AppSampler(sloEng *slo.Engine) func(prev, cur *runtimetel.Sample) {
	return appSampler(c.Metrics, c.Engine, sloEng)
}

// appSampler folds aggregate QPS and p99 from the HTTP middleware's overall
// histogram, the SLO engine's peak burn rate, and how many circuit breakers
// are currently not closed — every shard's, across both backend hops —
// into each runtime sample. It also drives the SLO engine's tick, so one
// goroutine (the collector's) paces the whole judgment layer.
func appSampler(reg *obs.Registry, eng *core.Engine, sloEng *slo.Engine) func(prev, cur *runtimetel.Sample) {
	return func(prev, cur *runtimetel.Sample) {
		if sloEng != nil {
			sloEng.Tick(cur.Time)
		}
		app := map[string]float64{}
		if reg != nil {
			h := reg.Histogram("http_requests_overall_seconds", nil)
			count := float64(h.Count())
			app["http_requests_total"] = count
			app["http_p99_seconds"] = h.Quantile(0.99)
			if prev != nil && prev.App != nil {
				if dt := cur.Time.Sub(prev.Time).Seconds(); dt > 0 {
					if d := count - prev.App["http_requests_total"]; d >= 0 {
						app["qps"] = d / dt
					}
				}
			}
		}
		if sloEng != nil {
			app["slo_burn"] = sloEng.PeakBurn()
		}
		if eng != nil {
			open := 0.0
			for _, b := range []string{core.BackendSynopsis, core.BackendSIAPI} {
				for _, state := range eng.ShardBreakerStates(b) {
					if state != "closed" {
						open++
					}
				}
			}
			app["breakers_open"] = open
		}
		cur.App = app
	}
}
