package core

// Chaos suite: the engine under injected backend failure. Each scenario
// builds a fresh engine (so the synopsis memo cannot mask a fault with a
// cached success) and drives faults through Engine.Faults — the same path
// -fault-spec uses in the binaries.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/fault"
	"repro/internal/obs"
)

// chaosEngine builds the two-deal engine with faults and resilience config.
func chaosEngine(t *testing.T, inj *fault.Injector, r Resilience) *Engine {
	t.Helper()
	e := newEngine(t)
	e.Faults = inj
	e.Resilient = r
	e.Metrics = obs.NewRegistry()
	return e
}

// scopedQuery is the standard concept+text query: storage tower, one word
// that matches documents in both deals (so scoping is observable).
func scopedQuery() FormQuery {
	return FormQuery{Tower: "Storage Management Services", AllWords: []string{"replication"}}
}

func TestChaosSynopsisErrorDegradesToUnscopedFullText(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	e := chaosEngine(t, inj, Resilience{})

	res, err := e.Search(anyUser(), scopedQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.DegradedCauses) != 1 || res.DegradedCauses[0] != BackendSynopsis {
		t.Fatalf("degraded=%v causes=%v", res.Degraded, res.DegradedCauses)
	}
	if !res.UnscopedFallback {
		t.Fatal("degraded search did not fall back to unscoped full-text")
	}
	// Without the concept scope, "replication" matches both deals.
	if got := dealIDs(res); len(got) != 2 {
		t.Fatalf("activities = %v, want both deals from full text", got)
	}
	if e.Metrics.Counter("search_degraded_total", "cause", BackendSynopsis).Value() != 1 {
		t.Fatal("search_degraded_total{cause=synopsis} not counted")
	}
}

func TestChaosSynopsisDownConceptOnlyIsUnavailable(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	e := chaosEngine(t, inj, Resilience{})

	// No text criteria: there is no tier left to serve from.
	_, err := e.Search(anyUser(), FormQuery{Tower: "Storage Management Services"})
	if !IsUnavailable(err) {
		t.Fatalf("err = %v, want backend-unavailable", err)
	}
	var be *BackendError
	if !errors.As(err, &be) || be.Backend != BackendSynopsis {
		t.Fatalf("err = %v, want BackendError{synopsis}", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected cause lost from chain: %v", err)
	}
}

func TestChaosSIAPIErrorDegradesToSynopsisPlusContacts(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
	e := chaosEngine(t, inj, Resilience{})

	res, err := e.Search(anyUser(), scopedQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.DegradedCauses) != 1 || res.DegradedCauses[0] != BackendSIAPI {
		t.Fatalf("degraded=%v causes=%v", res.Degraded, res.DegradedCauses)
	}
	// R <- S: the concept side still answers, without documents.
	if got := dealIDs(res); len(got) != 1 || got[0] != "DEAL A" {
		t.Fatalf("activities = %v, want the storage deal", got)
	}
	a := res.Activities[0]
	if len(a.Docs) != 0 {
		t.Fatalf("index is down but docs = %+v", a.Docs)
	}
	if a.Synopsis == nil || len(a.Synopsis.People) == 0 {
		t.Fatalf("synopsis-plus-contacts tier missing contacts: %+v", a.Synopsis)
	}
}

func TestChaosBothBackendsDownIsUnavailable(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
	e := chaosEngine(t, inj, Resilience{})

	_, err := e.Search(anyUser(), scopedQuery())
	if !IsUnavailable(err) {
		t.Fatalf("err = %v, want backend-unavailable", err)
	}
}

// TestChaosOutageErrorNamesStageOnce: a stage with no tier left to serve
// fails with one BackendError naming the stage, "backend unavailable" said
// once.
func TestChaosOutageErrorNamesStageOnce(t *testing.T) {
	for _, tc := range []struct {
		site, backend string
		q             FormQuery
	}{
		{fault.SiteSynopsisSearch, BackendSynopsis, FormQuery{Tower: "Storage Management Services"}},
		{fault.SiteSIAPISearch, BackendSIAPI, FormQuery{AllWords: []string{"replication"}}},
	} {
		inj := fault.New(7)
		inj.Add(&fault.Rule{Site: tc.site, Mode: fault.ModeError})
		_, err := chaosEngine(t, inj, Resilience{}).Search(anyUser(), tc.q)
		var be *BackendError
		if !errors.As(err, &be) || be.Backend != tc.backend {
			t.Fatalf("%s down: err = %v, want BackendError{%s}", tc.site, err, tc.backend)
		}
		if c := strings.Count(err.Error(), "backend unavailable"); c != 1 {
			t.Errorf("%s down: %q says \"backend unavailable\" %d times, want once", tc.site, err, c)
		}
	}
}

func TestChaosAccessDownDegradesToSynopsisLevel(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteAccessLevels, Mode: fault.ModeError})
	e := chaosEngine(t, inj, Resilience{})
	e.Access = access.NewController()

	// An admin would normally see documents; with entitlements unreachable
	// everyone is capped at the community-safe synopsis tier.
	res, err := e.Search(anyUser(), scopedQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedCauses[0] != BackendAccess {
		t.Fatalf("degraded=%v causes=%v", res.Degraded, res.DegradedCauses)
	}
	if len(res.Activities) == 0 {
		t.Fatal("no activities survived the access degrade")
	}
	for _, a := range res.Activities {
		if a.Level != access.LevelSynopsis {
			t.Fatalf("level = %v, want synopsis", a.Level)
		}
		if len(a.Docs) != 0 {
			t.Fatalf("documents exposed without entitlements: %+v", a.Docs)
		}
		if a.Synopsis == nil {
			t.Fatal("synopsis tier missing its synopsis")
		}
	}
}

func TestChaosHangBoundedByBudget(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeHang})
	e := chaosEngine(t, inj, Resilience{Budget: 200 * time.Millisecond, MaxRetries: 1})

	start := time.Now()
	res, err := e.Search(anyUser(), scopedQuery())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hang was not degraded around: %v", err)
	}
	if !res.Degraded || res.DegradedCauses[0] != BackendSynopsis {
		t.Fatalf("degraded=%v causes=%v", res.Degraded, res.DegradedCauses)
	}
	// Both attempt slices burn, but the reserved headroom runs the unscoped
	// fallback inside the budget. Allow scheduler slack on the upper bound.
	if elapsed < 150*time.Millisecond || elapsed > time.Second {
		t.Fatalf("elapsed = %v, want ~budget (200ms)", elapsed)
	}
}

func TestChaosEverythingHangsStillReturnsWithinBudget(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: "*", Mode: fault.ModeHang})
	e := chaosEngine(t, inj, Resilience{Budget: 150 * time.Millisecond})

	start := time.Now()
	_, err := e.Search(anyUser(), scopedQuery())
	elapsed := time.Since(start)
	if !IsUnavailable(err) {
		t.Fatalf("err = %v, want backend-unavailable", err)
	}
	if elapsed > time.Second {
		t.Fatalf("elapsed = %v, budget did not bound a total hang", elapsed)
	}
}

func TestChaosSlowBackendWithinBudget(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeSlow, Latency: 30 * time.Millisecond})
	e := chaosEngine(t, inj, Resilience{Budget: time.Second})

	start := time.Now()
	res, err := e.Search(anyUser(), scopedQuery())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("a slow-but-alive backend must not count as degraded")
	}
	if got := dealIDs(res); len(got) != 1 || got[0] != "DEAL A" {
		t.Fatalf("activities = %v", got)
	}
	if elapsed < 30*time.Millisecond {
		t.Fatalf("elapsed = %v, injected latency did not apply", elapsed)
	}
}

func TestChaosFlakyBackendRecoversViaRetry(t *testing.T) {
	inj := fault.New(7)
	rule := inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError, Times: 1})
	e := chaosEngine(t, inj, Resilience{Budget: time.Second, MaxRetries: 2})

	res, err := e.Search(anyUser(), scopedQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("one flaky call degraded the search: %v", res.DegradedCauses)
	}
	if rule.Fired() != 1 {
		t.Fatalf("rule fired %d times, want 1", rule.Fired())
	}
	if e.Metrics.Counter("search_retry_success_total", "backend", BackendSynopsis).Value() != 1 {
		t.Fatal("retry success not counted")
	}
	// The retried result equals the fault-free one.
	want, err := newEngine(t).Search(anyUser(), scopedQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Activities, want.Activities) {
		t.Fatalf("retried result diverged:\n got %+v\nwant %+v", res.Activities, want.Activities)
	}
}

func TestChaosPartialHarvestTruncatesResults(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteIndexSearch, Mode: fault.ModePartial, Fraction: 0.5})
	e := chaosEngine(t, inj, Resilience{})

	// Unscoped "replication" naturally matches both deals; a half harvest
	// from the index keeps one. Reduced yield is not an error and not a
	// degraded-mode response — the backend answered.
	res, err := e.Search(anyUser(), FormQuery{AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("partial harvest must not flag degraded")
	}
	if len(res.Activities) != 1 {
		t.Fatalf("activities = %v, want half the natural harvest", dealIDs(res))
	}
}

func TestChaosBreakerOpensThenRecovers(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	e := chaosEngine(t, inj, Resilience{
		BreakerFailures: 2,
		BreakerCooldown: 60 * time.Millisecond,
	})

	if got := e.BreakerState(BackendSynopsis); got != "closed" {
		t.Fatalf("initial state = %q", got)
	}
	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := e.Search(anyUser(), scopedQuery()); err != nil {
			t.Fatal(err) // degraded 200, not an error
		}
	}
	if got := e.BreakerState(BackendSynopsis); got != "open" {
		t.Fatalf("state after %d failures = %q, want open", 2, got)
	}
	// While open, calls are rejected without touching the backend.
	before := e.Metrics.Counter("search_breaker_rejected_total", "backend", BackendSynopsis).Value()
	if _, err := e.Search(anyUser(), scopedQuery()); err != nil {
		t.Fatal(err)
	}
	if after := e.Metrics.Counter("search_breaker_rejected_total", "backend", BackendSynopsis).Value(); after != before+1 {
		t.Fatalf("rejected counter %v -> %v, want fail-fast rejection", before, after)
	}
	// After the cooldown the breaker half-opens and a healthy probe closes it.
	time.Sleep(80 * time.Millisecond)
	if got := e.BreakerState(BackendSynopsis); got != "half-open" {
		t.Fatalf("state after cooldown = %q, want half-open", got)
	}
	inj.Reset()
	res, err := e.Search(anyUser(), scopedQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("recovered backend still degraded: %v", res.DegradedCauses)
	}
	if got := e.BreakerState(BackendSynopsis); got != "closed" {
		t.Fatalf("state after healthy probe = %q, want closed", got)
	}
}

func TestChaosDerivedEngineGetsFreshBreakers(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	e := chaosEngine(t, inj, Resilience{BreakerFailures: 1, BreakerCooldown: time.Hour})

	if _, err := e.Search(anyUser(), scopedQuery()); err != nil {
		t.Fatal(err)
	}
	if got := e.BreakerState(BackendSynopsis); got != "open" {
		t.Fatalf("state = %q, want open", got)
	}
	// Derive copies config but not breaker state: an ablation engine must
	// not inherit the parent's outage history.
	d := e.Derive()
	d.Faults = nil
	if got := d.BreakerState(BackendSynopsis); got != "closed" {
		t.Fatalf("derived breaker state = %q, want closed", got)
	}
	res, err := d.Search(anyUser(), scopedQuery())
	if err != nil || res.Degraded {
		t.Fatalf("derived engine inherited the outage: err=%v degraded=%v", err, res.Degraded)
	}
}

func TestChaosExploreUnavailable(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
	e := chaosEngine(t, inj, Resilience{})

	_, err := e.Explore(anyUser(), "DEAL A", FormQuery{AllWords: []string{"replication"}})
	if !IsUnavailable(err) {
		t.Fatalf("err = %v, want backend-unavailable", err)
	}
}

// TestChaosDifferentialIdentity is the no-fault differential: the same
// queries through a resilience-configured engine and a zero-config engine
// must produce byte-identical results — the wrapper may not change
// semantics when nothing fails.
func TestChaosDifferentialIdentity(t *testing.T) {
	plain := newEngine(t)
	wrapped := newEngine(t)
	wrapped.Resilient = Resilience{Budget: 2 * time.Second, MaxRetries: 2}

	queries := []FormQuery{
		{Tower: "Storage Management Services"},
		scopedQuery(),
		{AllWords: []string{"replication"}},
		{PersonName: "Sam White", PersonOrg: "ABC"},
		{ExactPhrase: "data replication", Target: TargetTechSolution},
		{Tower: "Network Services", AllWords: []string{"replication"}},
	}
	for _, q := range queries {
		want, errA := plain.Search(anyUser(), q)
		got, errB := wrapped.Search(anyUser(), q)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("q=%+v: err %v vs %v", q, errA, errB)
		}
		if got.Degraded {
			t.Fatalf("q=%+v: degraded with no faults", q)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("q=%+v:\nplain   %+v\nwrapped %+v", q, want, got)
		}
	}
}

func TestChaosNoGoroutineLeakAfterHangs(t *testing.T) {
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeHang})
	e := chaosEngine(t, inj, Resilience{Budget: 20 * time.Millisecond})

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		_, _ = e.SearchCtx(context.Background(), anyUser(), scopedQuery())
	}
	// Abandoned attempts unblock when the search's cancel fires; give the
	// scheduler a moment, then require the goroutine count to settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after hang searches", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
