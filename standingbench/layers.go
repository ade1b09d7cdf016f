package main

// Per-layer attribution for the traced run: span self time, counter and
// histogram deltas from the registries the program already records into,
// Go runtime metrics, cache-generation sampling, and replica visibility.

import (
	"context"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// spanAgg totals one span name over a set of traces.
type spanAgg struct {
	Count int
	Self  float64 // seconds not covered by child spans
	Total float64 // seconds, inclusive
}

// spanBook accumulates span time by name and counts traced requests per
// class. It is safe for concurrent use.
type spanBook struct {
	mu     sync.Mutex
	byName map[string]*spanAgg
	ops    [numClasses]int
}

func newSpanBook() *spanBook { return &spanBook{byName: map[string]*spanAgg{}} }

// add folds one finished trace into the book.
func (b *spanBook) add(c opClass, root *trace.Node) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops[c]++
	root.Walk(func(n *trace.Node) {
		a := b.byName[n.Name]
		if a == nil {
			a = &spanAgg{}
			b.byName[n.Name] = a
		}
		a.Count++
		a.Total += n.DurationSeconds
		a.Self += selfTime(n)
	})
}

// get returns the totals for name (zero when the span never occurred).
func (b *spanBook) get(name string) spanAgg {
	b.mu.Lock()
	defer b.mu.Unlock()
	if a := b.byName[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// selfTime is n's duration minus the part of its interval that its
// children cover. Children may overlap one another (scatter-gather runs
// shard spans in parallel) or outlive the parent; only the union of their
// intervals, clipped to the parent's, is subtracted.
func selfTime(n *trace.Node) float64 {
	start, end := n.OffsetSeconds, n.OffsetSeconds+n.DurationSeconds
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range n.Children {
		lo, hi := max(c.OffsetSeconds, start), min(c.OffsetSeconds+c.DurationSeconds, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, curLo, curHi := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return n.DurationSeconds - covered
}

// regSnap is a flattened read of one or more registries: counters and
// gauges summed over their labels by name, histograms as name+".count" and
// name+".sum", and router reads per node as
// "eil_repl_router_reads_total@<node>".
type regSnap map[string]float64

func snapshot(regs ...*obs.Registry) regSnap {
	out := regSnap{}
	for _, r := range regs {
		for _, s := range r.Snapshots() {
			switch s.Type {
			case "histogram":
				out[s.Name+".count"] += float64(s.Count)
				out[s.Name+".sum"] += s.Sum
			default:
				out[s.Name] += s.Value
				if s.Name == "eil_repl_router_reads_total" {
					out[s.Name+"@"+s.Labels["node"]] += s.Value
				}
			}
		}
	}
	return out
}

// add returns s plus k times o, key by key; s may be nil.
func (s regSnap) add(o regSnap, k float64) regSnap {
	if s == nil {
		s = regSnap{}
	}
	for key, v := range o {
		s[key] += k * v
	}
	return s
}

// ratio returns a / (a + b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// per divides, returning 0 for an empty denominator.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// rtSnap is a read of the Go runtime metrics the run reports.
type rtSnap struct {
	gcCPU, totalCPU float64 // cpu-seconds
	allocBytes      float64
	liveBytes       float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return rtSnap{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

// genSampler counts changes of the cache-keying generation counters,
// sampled once per sent request.
type genSampler struct {
	read      func(dst []uint64) []uint64
	prev, cur []uint64
	changes   int
	lagMax    float64
	lag       func() float64 // current worst replica lag; nil without replicas
}

func (g *genSampler) sample() {
	g.cur = g.read(g.cur)
	for i := range g.cur {
		if i < len(g.prev) && g.cur[i] != g.prev[i] {
			g.changes++
		}
	}
	g.prev, g.cur = g.cur, g.prev
	if g.lag != nil {
		g.lagMax = max(g.lagMax, g.lag())
	}
}

// visWait is one acknowledged write waiting to become visible on the
// follower: shard's follower must reach seq.
type visWait struct {
	shard int
	seq   uint64
	acked time.Time
}

// visPoller polls follower positions from outside the program and records
// the time from each write's acknowledgement until the follower's applied
// position reaches the primary's position at that acknowledgement.
type visPoller struct {
	position func(shard int) uint64
	every    time.Duration

	mu      sync.Mutex
	pending []visWait
	lat     []float64 // ms
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
}

func startVisPoller(position func(shard int) uint64, every time.Duration) *visPoller {
	p := &visPoller{
		position: position,
		every:    every,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.loop()
	return p
}

func (p *visPoller) add(w visWait) {
	p.mu.Lock()
	p.pending = append(p.pending, w)
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

func (p *visPoller) loop() {
	defer close(p.done)
	sleeper := newPreciseSleeper()
	defer sleeper.close()
	for {
		select {
		case <-p.stop:
			return
		case <-p.kick:
		}
		for {
			p.mu.Lock()
			keep := p.pending[:0]
			for _, w := range p.pending {
				if p.position(w.shard) >= w.seq {
					p.lat = append(p.lat, ms(time.Since(w.acked)))
				} else {
					keep = append(keep, w)
				}
			}
			p.pending = keep
			idle := len(keep) == 0
			p.mu.Unlock()
			if idle {
				break
			}
			select {
			case <-p.stop:
				return
			default:
			}
			sleeper.sleep(p.every)
		}
	}
}

// close waits (up to ctx) for pending writes to become visible, stops the
// poller and returns the visibility latencies and how many writes never
// became visible.
func (p *visPoller) close(ctx context.Context) (lat []float64, unseen int) {
	for {
		p.mu.Lock()
		n := len(p.pending)
		p.mu.Unlock()
		if n == 0 || ctx.Err() != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lat, len(p.pending)
}
