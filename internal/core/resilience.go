package core

// Resilience layer for the engine's backend hops. The deployed EIL splits
// every query across two backends (the DB2 synopsis store and the
// OmniFind/SIAPI index); this file keeps the engine answering when one side
// is slow or down: a search-level time budget divided into per-attempt
// deadlines, bounded retry with decorrelated-jitter backoff for the
// idempotent read calls, and a small circuit breaker per backend so a dead
// backend fails fast instead of burning the budget of every request.
// Degradation policy (which tier of answer survives which outage) lives in
// shard.go's search flow; this file supplies the mechanics.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// Resilience configures the engine's backend-call protection. The zero
// value keeps the exact pre-resilience behaviour: no deadline, no retry
// (one attempt), and a breaker so tolerant it never opens under honest
// load; Engine.search threads calls through the same code path either way,
// and without a context deadline that path is a direct inline call.
type Resilience struct {
	// Budget bounds one whole search; each backend attempt receives a slice
	// of what remains (remaining / attempts-left), so a first-attempt hang
	// leaves room for a retry inside the budget. 0 means no deadline.
	Budget time.Duration
	// MaxRetries is how many times a failed idempotent backend call is
	// retried (0 = no retry; the call still runs once).
	MaxRetries int
	// RetryBase and RetryCap bound the decorrelated-jitter backoff between
	// attempts (defaults 2ms and 50ms).
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerFailures is how many consecutive failures open a backend's
	// breaker (default 5; <0 disables the breaker).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker rejects before letting a
	// half-open probe through (default 500ms).
	BreakerCooldown time.Duration
}

// Resilience defaults.
const (
	defRetryBase       = 2 * time.Millisecond
	defRetryCap        = 50 * time.Millisecond
	defBreakerFailures = 5
	defBreakerCooldown = 500 * time.Millisecond
)

// withDefaults fills zero fields.
func (r Resilience) withDefaults() Resilience {
	if r.RetryBase <= 0 {
		r.RetryBase = defRetryBase
	}
	if r.RetryCap < r.RetryBase {
		r.RetryCap = defRetryCap
	}
	if r.BreakerFailures == 0 {
		r.BreakerFailures = defBreakerFailures
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = defBreakerCooldown
	}
	return r
}

// ErrCircuitOpen is returned (wrapped in a BackendError) when a backend's
// breaker rejects the call without attempting it.
var ErrCircuitOpen = errors.New("core: circuit open")

// BackendError marks a search failure caused by a backend outage rather
// than a bad query; the web layer maps it to 503 + Retry-After where a
// query error stays 4xx.
type BackendError struct {
	Backend string // "synopsis", "siapi", or "access"
	Err     error
}

func (e *BackendError) Error() string {
	return fmt.Sprintf("core: %s backend unavailable: %v", e.Backend, e.Err)
}

func (e *BackendError) Unwrap() error { return e.Err }

// IsUnavailable reports whether err means a backend outage (the 503 class)
// as opposed to a malformed or denied query (the 4xx class).
func IsUnavailable(err error) bool {
	var be *BackendError
	return errors.As(err, &be)
}

// Breaker states.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// breaker is a small per-backend circuit breaker: it opens after N
// consecutive failures, rejects while open, and after a cooldown admits a
// single half-open probe whose outcome closes or re-opens it.
type breaker struct {
	mu        sync.Mutex
	failures  int
	state     string
	openedAt  time.Time
	threshold int
	cooldown  time.Duration
	probing   bool
}

func newBreaker(r Resilience) *breaker {
	return &breaker{state: breakerClosed, threshold: r.BreakerFailures, cooldown: r.BreakerCooldown}
}

// allow reports whether a call may proceed; in half-open state only one
// in-flight probe is admitted.
func (b *breaker) allow() bool {
	if b == nil || b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			b.probing = true
			return true
		}
		return false
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record feeds a call outcome back: success closes, failure counts toward
// (or re-triggers) opening.
func (b *breaker) record(err error) {
	if b == nil || b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if err == nil {
		b.failures = 0
		b.state = breakerClosed
		return
	}
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.failures = 0
	}
}

// State reports the breaker state for telemetry and tests.
func (b *breaker) State() string {
	if b == nil {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && time.Since(b.openedAt) >= b.cooldown {
		return breakerHalfOpen
	}
	return b.state
}

// Backend names used by breakers, metrics, and degraded-cause labels.
const (
	BackendSynopsis = "synopsis"
	BackendSIAPI    = "siapi"
	BackendAccess   = "access"
)

// resilience returns the engine's config with defaults filled.
func (e *Engine) resilience() Resilience { return e.Resilient.withDefaults() }

// breakerFor lazily creates the named backend's breaker. Keys are open
// ended: every shard has one "<backend>#<shard>" breaker per hop, so one
// dead shard trips only its own circuit, and the unnamed shard of an
// engine without Shards uses the backend name alone.
func (e *Engine) breakerFor(backend string) *breaker {
	e.brMu.Lock()
	defer e.brMu.Unlock()
	if e.breakers == nil {
		e.breakers = map[string]*breaker{}
	}
	b, ok := e.breakers[backend]
	if !ok {
		b = newBreaker(e.resilience())
		e.breakers[backend] = b
	}
	return b
}

// BreakerState reports the named backend's breaker state ("closed", "open",
// or "half-open") — chaos tests and the debug surfaces read it.
func (e *Engine) BreakerState(backend string) string {
	return e.breakerFor(backend).State()
}

// shardBreakerName is the breaker/metric key for one backend hop of one
// shard: "<backend>#<shard>", or the bare backend name for an unnamed
// shard.
func shardBreakerName(backend, shard string) string {
	if shard == "" {
		return backend
	}
	return backend + "#" + shard
}

// ShardBreakerStates reports every shard's breaker state for one backend
// hop, keyed by shard name — the health checks, samplers, and dashboard
// read it. An engine without Shards reports its one unnamed shard under
// the empty name.
func (e *Engine) ShardBreakerStates(backend string) map[string]string {
	shards := e.shardList()
	out := make(map[string]string, len(shards))
	for i := range shards {
		name := shards[i].Name
		out[name] = e.BreakerState(shardBreakerName(backend, name))
	}
	return out
}

// resilientCall runs one idempotent backend call under the engine's
// resilience policy: breaker admission, per-attempt deadline slices of the
// context budget, and bounded retry with decorrelated-jitter backoff.
// Failures always come back wrapped in a *BackendError.
//
// With no deadline on ctx the attempt is a direct inline call — no
// goroutine, no channel — so a budget-less engine (the zero Resilience
// config) adds only the breaker check and one time read per backend hop.
func resilientCall[T any](ctx context.Context, e *Engine, backend string, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	r := e.resilience()
	br := e.breakerFor(backend)
	if !br.allow() {
		e.Metrics.Counter("search_breaker_rejected_total", "backend", backend).Inc()
		return zero, &BackendError{Backend: backend, Err: ErrCircuitOpen}
	}
	attempts := r.MaxRetries + 1
	var lastErr error
	backoff := r.RetryBase
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			// Budget exhausted: report what we have without burning more.
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		out, err := runAttempt(ctx, attempts-attempt, fn)
		br.record(err)
		if err == nil {
			if attempt > 0 {
				e.Metrics.Counter("search_retry_success_total", "backend", backend).Inc()
			}
			return out, nil
		}
		lastErr = err
		e.Metrics.Counter("search_backend_errors_total", "backend", backend).Inc()
		if attempt == attempts-1 {
			break
		}
		// Decorrelated jitter: sleep uniform in [base, 3*prev], capped.
		sleep := r.RetryBase + time.Duration(rand.Int64N(int64(3*backoff-r.RetryBase)+1))
		if sleep > r.RetryCap {
			sleep = r.RetryCap
		}
		backoff = sleep
		if !sleepCtx(ctx, sleep) {
			break
		}
		e.Metrics.Counter("search_retries_total", "backend", backend).Inc()
		if !br.allow() {
			break
		}
	}
	if e.breakerFor(backend).State() == breakerOpen {
		e.Metrics.Counter("search_breaker_opened_total", "backend", backend).Inc()
	}
	return zero, &BackendError{Backend: backend, Err: lastErr}
}

// runAttempt executes fn once. Without a context deadline it calls inline
// with no setup at all. With one, the attempt runs under an even slice of
// the remaining budget (remaining / attempts-left): the deadline is enforced
// cooperatively — every blocking path in the backends (index/store waits,
// injected hang and latency) selects on the context — so a stuck call
// returns its context error at the slice boundary without a per-attempt
// goroutine, keeping the envelope's fault-free cost near zero.
func runAttempt[T any](ctx context.Context, attemptsLeft int, fn func(context.Context) (T, error)) (T, error) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return fn(ctx)
	}
	remaining := time.Until(deadline)
	// Reserve a tenth of the remaining budget beyond the attempts: if every
	// attempt hangs to its slice boundary, the search still has headroom to
	// run its degraded fallback (e.g. the unscoped full-text query) instead
	// of racing the parent deadline.
	usable := remaining - remaining/10
	slice := usable / time.Duration(attemptsLeft)
	if slice < time.Millisecond {
		slice = time.Millisecond
	}
	actx, cancel := context.WithTimeout(ctx, slice)
	defer cancel()
	out, err := fn(actx)
	if err != nil && actx.Err() != nil {
		err = actx.Err()
	}
	return out, err
}

// sleepCtx sleeps for d or until ctx cancels; it reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
