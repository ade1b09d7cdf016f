package main

// The load driver: an open loop that sends each request at its scheduled
// time whatever the system is doing, and a closed loop of workers that each
// wait for a reply before sending again. Both keep per-class accounting;
// the open loop times every request from its scheduled send time, so a
// stall is charged to every request that queued behind it.

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// doFunc executes one request. refused marks load shedding (an unavailable
// backend) as distinct from a hard error.
type doFunc func(ctx context.Context, r request) (refused bool, err error)

// classLedger is one op class's accounting.
type classLedger struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Refused   int `json:"refused"`
	Dropped   int `json:"dropped"`
	// lat holds the latency of each success in ms (open loop: from the
	// scheduled send time; closed loop: from the send).
	lat []float64
	// svc is the summed service time of the class's calls, from the send
	// to the reply, whatever the outcome.
	svc time.Duration
}

// ledger accounts one phase. It is safe for concurrent use.
type ledger struct {
	mu       sync.Mutex
	cls      [numClasses]classLedger
	late     []float64 // open loop: ms the generator sent each arrival after its due time
	firstErr error
}

func (l *ledger) drop(c opClass) {
	l.mu.Lock()
	l.cls[c].Dropped++
	l.mu.Unlock()
}

func (l *ledger) sent(c opClass, late time.Duration) {
	l.mu.Lock()
	l.cls[c].Sent++
	if late >= 0 {
		l.late = append(l.late, ms(late))
	}
	l.mu.Unlock()
}

// finish records one completed call: lat is measured from the scheduled
// (open loop) or actual (closed loop) send time, svc from the actual send.
func (l *ledger) finish(c opClass, lat, svc time.Duration, refused bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cl := &l.cls[c]
	cl.svc += svc
	switch {
	case err != nil:
		cl.Failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	case refused:
		cl.Refused++
	default:
		cl.Succeeded++
		cl.lat = append(cl.lat, ms(lat))
	}
}

// attempted counts every arrival, sent or dropped.
func (l *ledger) attempted() int {
	n := 0
	for _, c := range l.cls {
		n += c.Sent + c.Dropped
	}
	return n
}

// failures counts errors, refusals and drops.
func (l *ledger) failures() int {
	n := 0
	for _, c := range l.cls {
		n += c.Failed + c.Refused + c.Dropped
	}
	return n
}

func (l *ledger) succeeded() int {
	n := 0
	for _, c := range l.cls {
		n += c.Succeeded
	}
	return n
}

// merge folds o into l.
func (l *ledger) merge(o *ledger) {
	for i := range l.cls {
		a, b := &l.cls[i], &o.cls[i]
		a.Sent += b.Sent
		a.Succeeded += b.Succeeded
		a.Failed += b.Failed
		a.Refused += b.Refused
		a.Dropped += b.Dropped
		a.lat = append(a.lat, b.lat...)
		a.svc += b.svc
	}
	l.late = append(l.late, o.late...)
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN when xs is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// openLoop sends sched on time. An arrival that finds maxInFlight requests
// outstanding is dropped and counted, not queued. onSend runs on the
// sending goroutine just before each send. openLoop returns once every
// sent request has completed.
func openLoop(ctx context.Context, sched []request, maxInFlight int, do doFunc, onSend func()) *ledger {
	l := &ledger{}
	slots := make(chan struct{}, maxInFlight) // semaphore: in-flight cap
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		sleeper := newPreciseSleeper()
		defer sleeper.close()
		start := time.Now()
		for _, r := range sched {
			due := start.Add(r.Due)
			waitUntil(sleeper, due)
			if ctx.Err() != nil {
				return
			}
			select {
			case slots <- struct{}{}:
			default:
				l.drop(r.Class)
				continue
			}
			if onSend != nil {
				onSend()
			}
			l.sent(r.Class, time.Since(due))
			wg.Add(1)
			go func(r request, due time.Time) {
				defer wg.Done()
				defer func() { <-slots }()
				t0 := time.Now()
				refused, err := do(ctx, r)
				end := time.Now()
				l.finish(r.Class, end.Sub(due), end.Sub(t0), refused, err)
			}(r, due)
		}
	}()
	<-done
	wg.Wait()
	return l
}

// spinWindow is how long before an arrival's due time the sender stops
// sleeping and spins. Waking early keeps timer and idle-CPU wake-up delays
// out of the measured latency, and the spawned request then starts on the
// sender's already running P instead of waiting for a parked thread.
const spinWindow = 100 * time.Microsecond

// waitUntil returns at due: it sleeps until shortly before, then yields
// the processor in a loop (other goroutines keep running) until due.
func waitUntil(s *preciseSleeper, due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		s.sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// closedLoop runs workers that each send next() and wait for the reply,
// until d has passed. It returns the ledger and the measured wall time
// (from the start until the last reply).
func closedLoop(ctx context.Context, workers int, d time.Duration, next func() request, do doFunc, onSend func()) (*ledger, time.Duration) {
	l := &ledger{}
	var mu sync.Mutex // serializes next and onSend
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				mu.Lock()
				r := next()
				if onSend != nil {
					onSend()
				}
				mu.Unlock()
				l.sent(r.Class, -1)
				t0 := time.Now()
				refused, err := do(ctx, r)
				lat := time.Since(t0)
				l.finish(r.Class, lat, lat, refused, err)
			}
		}()
	}
	wg.Wait()
	return l, time.Since(start)
}
