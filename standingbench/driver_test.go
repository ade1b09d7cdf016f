package main

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestLedgerCountsPerClass(t *testing.T) {
	l := &ledger{}
	boom := errors.New("boom")
	l.sent(classSearch, 0)
	l.finish(classSearch, 2*time.Millisecond, time.Millisecond, false, nil)
	l.sent(classSearch, 0)
	l.finish(classSearch, 3*time.Millisecond, time.Millisecond, true, nil)
	l.sent(classKeyword, 0)
	l.finish(classKeyword, time.Millisecond, time.Millisecond, false, boom)
	l.drop(classIngest)
	l.sent(classIngest, -1)
	l.finish(classIngest, 4*time.Millisecond, 4*time.Millisecond, false, nil)

	s, k, in := l.cls[classSearch], l.cls[classKeyword], l.cls[classIngest]
	if s.Sent != 2 || s.Succeeded != 1 || s.Refused != 1 || len(s.lat) != 1 || s.lat[0] != 2 {
		t.Fatalf("search ledger = %+v", s)
	}
	if k.Failed != 1 || k.Succeeded != 0 || len(k.lat) != 0 {
		t.Fatalf("keyword ledger = %+v", k)
	}
	if in.Dropped != 1 || in.Succeeded != 1 || in.svc != 4*time.Millisecond {
		t.Fatalf("ingest ledger = %+v", in)
	}
	if got := l.attempted(); got != 5 {
		t.Fatalf("attempted = %d, want 5 (4 sent + 1 dropped)", got)
	}
	if got := l.failures(); got != 3 {
		t.Fatalf("failures = %d, want 3 (refused + failed + dropped)", got)
	}
	if len(l.late) != 3 {
		t.Fatalf("late samples = %d, want 3 (closed-loop sends carry none)", len(l.late))
	}
	if !errors.Is(l.firstErr, boom) {
		t.Fatalf("firstErr = %v", l.firstErr)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median = %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Fatalf("max = %v", q)
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

// The open loop times from the scheduled send time and drops, rather than
// queues, arrivals beyond the in-flight cap.
func TestOpenLoopDropsAndTimesFromSchedule(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int32
	do := func(ctx context.Context, r request) (bool, error) {
		if r.Class == classIngest {
			started.Add(1)
			<-release
		}
		return false, nil
	}
	sched := []request{
		{Due: 0, Class: classIngest},
		{Due: 5 * time.Millisecond, Class: classSearch},  // cap 1 is taken: dropped
		{Due: 10 * time.Millisecond, Class: classSearch}, // dropped
	}
	go func() {
		for started.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(30 * time.Millisecond)
		close(release)
	}()
	l := openLoop(context.Background(), sched, 1, do, nil)
	if d := l.cls[classSearch].Dropped; d != 2 {
		t.Fatalf("dropped searches = %d, want 2", d)
	}
	in := l.cls[classIngest]
	if in.Succeeded != 1 || in.lat[0] < 30 {
		t.Fatalf("ingest = %+v, want one success of >= 30ms", in)
	}
	if l.attempted() != 3 || l.failures() != 2 {
		t.Fatalf("attempted %d failures %d", l.attempted(), l.failures())
	}
}

func TestClosedLoopCountsEverySend(t *testing.T) {
	var n atomic.Int64
	next := func() request {
		if n.Add(1)%2 == 0 {
			return request{Class: classKeyword}
		}
		return request{Class: classSearch}
	}
	do := func(ctx context.Context, r request) (bool, error) {
		time.Sleep(time.Millisecond)
		return r.Class == classKeyword, nil
	}
	l, wall := closedLoop(context.Background(), 2, 50*time.Millisecond, next, do, nil)
	if wall < 50*time.Millisecond {
		t.Fatalf("wall %v shorter than the phase", wall)
	}
	if int64(l.attempted()) != n.Load() {
		t.Fatalf("attempted %d, drew %d", l.attempted(), n.Load())
	}
	if l.cls[classKeyword].Refused == 0 || l.cls[classSearch].Succeeded == 0 {
		t.Fatalf("ledger = %+v", l.cls)
	}
}

// Capacity pools every closed loop: completions over closed-loop wall
// time, not an average of the cycles' rates.
func TestPhaseAddPoolsCapacity(t *testing.T) {
	cycle := func(ok int, wall time.Duration) phase {
		closed := &ledger{}
		for i := 0; i < ok; i++ {
			closed.sent(classSearch, -1)
			closed.finish(classSearch, time.Millisecond, time.Millisecond, false, nil)
		}
		return phase{open: &ledger{}, closed: closed, closedWall: wall, openWall: 2 * wall,
			cycles: []cycleStat{{Capacity: per(float64(ok), wall.Seconds())}}}
	}
	p := newPhase()
	p.add(cycle(100, time.Second))
	p.add(cycle(500, 4*time.Second))
	if !near(p.capacity(), 120) {
		t.Fatalf("capacity = %v, want 600 over 5 s", p.capacity())
	}
	if len(p.cycles) != 2 || p.wall() != 15*time.Second || p.closed.succeeded() != 600 {
		t.Fatalf("phase = %+v", p)
	}
}
