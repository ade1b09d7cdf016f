package main

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func node(name string, off, dur float64, kids ...*trace.Node) *trace.Node {
	return &trace.Node{Name: name, OffsetSeconds: off, DurationSeconds: dur, Children: kids}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name string
		n    *trace.Node
		want float64
	}{
		{"leaf", node("a", 0, 10), 10},
		{"disjoint children", node("a", 0, 10, node("b", 1, 2), node("c", 5, 3)), 5},
		// Parallel shard spans overlap: only their union counts.
		{"overlapping children", node("a", 0, 10, node("b", 1, 4), node("c", 3, 4)), 4},
		{"nested-in-time children", node("a", 0, 10, node("b", 1, 8), node("c", 2, 1)), 2},
		// A child that outlives its parent is clipped to the parent.
		{"child past the end", node("a", 0, 10, node("b", 8, 5)), 8},
		{"child before the start", node("a", 5, 10, node("b", 0, 7)), 8},
	}
	for _, c := range cases {
		if got := selfTime(c.n); !near(got, c.want) {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpanBookAccumulatesSelfAndTotal(t *testing.T) {
	b := newSpanBook()
	tree := node("search", 0, 10,
		node("search.compose", 0, 1),
		node("search.siapi", 1, 6, node("index.search", 2, 4)))
	b.add(classSearch, tree)
	b.add(classSearch, tree)
	if b.ops[classSearch] != 2 {
		t.Fatalf("ops = %v", b.ops)
	}
	s := b.get("search.siapi")
	if s.Count != 2 || !near(s.Total, 12) || !near(s.Self, 4) {
		t.Fatalf("search.siapi = %+v, want count 2 total 12 self 4", s)
	}
	if r := b.get("search"); !near(r.Self, 6) {
		t.Fatalf("root self = %v, want 6", r.Self)
	}
	if z := b.get("missing"); z.Count != 0 {
		t.Fatalf("missing span = %+v", z)
	}
}

// Spans recorded through the real tracer land in the book with their
// parent-child structure intact.
func TestSpanBookFromTracer(t *testing.T) {
	tr := trace.New(trace.Options{})
	ctx, root := tr.Start(context.Background(), "search", trace.StartOptions{Force: true})
	cctx, child := trace.StartSpan(ctx, "search.siapi")
	_, grand := trace.StartSpan(cctx, "index.search")
	time.Sleep(2 * time.Millisecond)
	grand.End()
	child.End()
	root.Finish()
	b := newSpanBook()
	b.add(classSearch, root.Tree())
	idx, sia := b.get("index.search"), b.get("search.siapi")
	if idx.Count != 1 || idx.Total < 0.002 {
		t.Fatalf("index.search = %+v", idx)
	}
	if sia.Self < 0 || sia.Self > sia.Total-idx.Total+1e-9 {
		t.Fatalf("search.siapi self %v not its total %v minus its child %v", sia.Self, sia.Total, idx.Total)
	}
}

func TestSnapshotSumsAcrossRegistriesAndLabels(t *testing.T) {
	a, b := obs.NewRegistry(), obs.NewRegistry()
	a.Counter("search_cache_hits_total").Add(3)
	b.Counter("search_cache_hits_total").Add(4)
	a.Counter("eil_repl_router_reads_total", "node", "primary", "op", "search").Add(2)
	a.Counter("eil_repl_router_reads_total", "node", "follower", "op", "search").Add(5)
	a.Histogram("ingest_segment_build_seconds", nil).Observe(0.5)
	s := snapshot(a, b)
	if s["search_cache_hits_total"] != 7 {
		t.Fatalf("hits = %v", s["search_cache_hits_total"])
	}
	if s["eil_repl_router_reads_total"] != 7 || s["eil_repl_router_reads_total@follower"] != 5 {
		t.Fatalf("router reads = %v", s)
	}
	if s["ingest_segment_build_seconds.count"] != 1 || s["ingest_segment_build_seconds.sum"] != 0.5 {
		t.Fatalf("histogram = %v", s)
	}
	if ratio(3, 1) != 0.75 || ratio(0, 0) != 0 || per(1, 0) != 0 {
		t.Fatal("ratio/per helpers")
	}
}

func TestGenSamplerCountsChanges(t *testing.T) {
	gens := []uint64{1, 1}
	g := &genSampler{read: func(dst []uint64) []uint64 { return append(dst[:0], gens...) }}
	g.prev = g.read(nil)
	g.sample()
	gens[0] = 2
	g.sample()
	g.sample()
	gens[0], gens[1] = 3, 2
	g.sample()
	if g.changes != 3 {
		t.Fatalf("changes = %d, want 3", g.changes)
	}
}

func TestVisPollerMeasuresUntilPositionReached(t *testing.T) {
	var pos atomic.Uint64
	p := startVisPoller(func(int) uint64 { return pos.Load() }, 100*time.Microsecond)
	p.add(visWait{shard: 0, seq: 5, acked: time.Now()})
	time.Sleep(5 * time.Millisecond)
	pos.Store(5)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	lat, unseen := p.close(ctx)
	if unseen != 0 || len(lat) != 1 || lat[0] < 5 {
		t.Fatalf("lat %v unseen %d, want one latency >= 5ms", lat, unseen)
	}
}

// Rounds sum what the counters moved by in each of them; the live heap is
// a level and does not add up.
func TestWindowsSumAcrossRounds(t *testing.T) {
	mk := func(hits, gc, alloc, live float64, syncs int, docs int) window {
		return window{
			all:     regSnap{"search_cache_hits_total": hits},
			primary: regSnap{"ingest_segment_build_seconds.sum": hits / 10},
			rt:      rtSnap{gcCPU: gc, totalCPU: 2 * gc, allocBytes: alloc, liveBytes: live},
			wal:     walTotals{Syncs: syncs, SyncT: time.Duration(syncs) * time.Millisecond, Bytes: int64(100 * syncs)},
			docs:    docs,
		}
	}
	var sum window
	sum.add(moved(mk(10, 1, 100, 50, 3, 4), mk(25, 1.5, 300, 60, 5, 9)), 1) // round 1
	sum.add(moved(mk(0, 0, 0, 40, 0, 0), mk(5, 0.25, 50, 70, 1, 2)), 1)     // round 2
	if !near(sum.all["search_cache_hits_total"], 20) || !near(sum.primary["ingest_segment_build_seconds.sum"], 2) {
		t.Fatalf("registry moves = %v / %v", sum.all, sum.primary)
	}
	if !near(sum.rt.gcCPU, 0.75) || !near(sum.rt.totalCPU, 1.5) || !near(sum.rt.allocBytes, 250) || sum.rt.liveBytes != 0 {
		t.Fatalf("runtime moves = %+v", sum.rt)
	}
	if sum.wal.Syncs != 3 || sum.wal.SyncT != 3*time.Millisecond || sum.wal.Bytes != 300 || sum.docs != 7 {
		t.Fatalf("journal moves = %+v, docs %d", sum.wal, sum.docs)
	}
}
