// Package core implements EIL's primary contribution: business-activity
// driven search (Figure 1 of the paper). A form-based query is decomposed
// into a synopsis query (directed SQL against the extracted business
// context) and a SIAPI query (against the semantic document index); the
// synopsis result set scopes the document search to relevant business
// activities; the two rankings are combined; and access control decides,
// per activity, whether the user sees documents, only the synopsis with its
// contact list, or nothing.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/taxonomy"
	"repro/internal/trace"
)

// TextTarget selects where the form's text predicates search — "anywhere in
// EWB" or a specific synopsis section (Figure 8's drop-down).
type TextTarget string

// Text targets supported by the form.
const (
	TargetAnywhere     TextTarget = "anywhere"     // body + title of all documents
	TargetTechSolution TextTarget = "techsolution" // technology solution overviews
	TargetWinStrategy  TextTarget = "winstrategy"  // win strategy statements
	TargetTitle        TextTarget = "title"        // document titles only
)

// FormQuery mirrors the EIL search editor (Figure 8): concept criteria,
// text predicates, and people criteria, all optional and conjunctive.
type FormQuery struct {
	// Tower accepts any taxonomy surface form (canonical name, acronym, or
	// alias); sub-tower forms set the sub-tower criterion automatically.
	Tower    string
	SubTower string

	Industry   string
	Consultant string
	Geography  string
	Country    string

	AllWords    []string
	ExactPhrase string
	AnyWords    []string
	NoneWords   []string
	Target      TextTarget

	PersonName string
	PersonOrg  string

	// Limit bounds the number of returned activities (0 = all);
	// DocsPerDeal bounds documents listed per activity (0 = 5).
	Limit       int
	DocsPerDeal int
}

// HasConcepts reports whether any synopsis criterion is set.
func (q FormQuery) HasConcepts() bool {
	return q.Tower != "" || q.SubTower != "" || q.Industry != "" || q.Consultant != "" ||
		q.Geography != "" || q.Country != "" || q.PersonName != "" || q.PersonOrg != ""
}

// HasText reports whether any text predicate is set.
func (q FormQuery) HasText() bool {
	return len(q.AllWords) > 0 || q.ExactPhrase != "" || len(q.AnyWords) > 0 || len(q.NoneWords) > 0
}

// Activity is one business activity in the result set — the unit of
// presentation in EIL ("a search query returns a set of the most relevant
// business activities first rather than documents or links").
type Activity struct {
	DealID string
	// Score combines the synopsis ranking and the normalized document
	// ranking (Figure 1 step 18).
	Score float64
	// SynopsisScore and DocScore are the per-side normalized components.
	SynopsisScore float64
	DocScore      float64
	// MatchedTowers lists scope towers that satisfied the tower criterion,
	// significance order (Figure 5's bolded towers).
	MatchedTowers []string
	// Level is the caller's access level for this activity.
	Level access.Level
	// Synopsis is populated when Level >= LevelSynopsis.
	Synopsis *synopsis.Deal
	// Docs is populated when Level == LevelFull and the query had text
	// predicates.
	Docs []siapi.DocHit
}

// Result is a complete search response.
type Result struct {
	Activities []Activity
	// UnscopedFallback is true when the synopsis query was empty or
	// matched nothing and the SIAPI query ran unscoped (Figure 1 step 14).
	UnscopedFallback bool
	// Degraded is true when a backend outage forced a reduced answer: the
	// result is still useful (harvest shrank, yield held) but is not the
	// full two-backend ranking. DegradedCauses names the failed hops
	// ("synopsis", "siapi", "access").
	Degraded       bool     `json:"degraded"`
	DegradedCauses []string `json:"degraded_causes,omitempty"`
	// Explain carries one line per executed stage, for the UI's query
	// summary ("Find deals with ... tower; contain ... anywhere in EWB").
	Explain []string
	// Suggestions carries "did you mean" vocabulary matches when a tower
	// criterion failed to resolve in the taxonomy.
	Suggestions []string
}

// Engine wires the stores together. All fields are required except Access
// (nil means no access control: everyone sees everything — used by offline
// evaluation) and Tax (nil disables concept-form resolution).
type Engine struct {
	Synopses *synopsis.Store
	Docs     *siapi.Engine
	Access   *access.Controller
	Tax      *taxonomy.Taxonomy

	// SynopsisWeight and DocWeight set the rank-combination mix; zero
	// values default to 1.0 and 1.0.
	SynopsisWeight float64
	DocWeight      float64
	// DisableScoping makes the SIAPI query run unscoped even when the
	// synopsis query matched (the scoping ablation). Results are then
	// intersected with S anyway to preserve semantics, so the ablation
	// measures the cost, not a semantic change.
	DisableScoping bool
	// Metrics, when set, receives per-stage search timings and outcome
	// counters (search_* metric names); nil disables recording.
	Metrics *obs.Registry
	// Resilient configures budget deadlines, retry, and circuit breaking on
	// the backend hops (see resilience.go). The zero value reproduces the
	// unprotected engine exactly.
	Resilient Resilience
	// Faults, when set, activates the fault-injection layer for every
	// search this engine runs (chaos benching via -fault-spec); tests more
	// commonly inject per-request through fault.With on the context.
	Faults *fault.Injector

	// docs, once SwapDocs has been called, is the live document backend:
	// compaction republishes the rebuilt index through it so concurrent
	// searches atomically see either the old or the new engine, never a
	// torn mix. Reads go through backend(), which falls back to Docs until
	// the first swap.
	docs atomic.Pointer[siapi.Engine]

	// Shards, when non-empty, makes this engine a scatter-gather
	// coordinator over N self-contained shards: Synopses and Docs are
	// ignored. Without Shards the engine searches Synopses and Docs as one
	// unnamed shard; both cases run the same search (see shard.go). The
	// slice must not change after the first search.
	Shards []ShardBackend

	// statsOnce/statsMemo memoize merged cluster scoring stats per
	// compiled query + cluster epoch (coordinators only; see shard.go).
	statsOnce sync.Once
	statsMemo *lru.Cache[string, *index.Stats]
	// synShardMemos holds one synopsis memo per shard, keyed on the
	// store's generation counter (see memo.go): each shard's store has its
	// own counter, and an lru.Cache tracks exactly one epoch, so shards
	// cannot share a cache without cross-flushing.
	synShardOnce  sync.Once
	synShardMemos []*lru.Cache[string, []synopsis.Hit]
	// breakers holds the lazily built per-key circuit breakers; brMu
	// guards the map, not the breakers (each has its own lock).
	brMu     sync.Mutex
	breakers map[string]*breaker
}

// Derive returns a new Engine sharing this engine's stores and
// configuration. Engines must not be copied by value (they carry memo
// state); Derive is the supported way to tweak settings — ablations flip
// DisableScoping or the rank weights on a derived engine.
func (e *Engine) Derive() *Engine {
	return &Engine{
		Synopses:       e.Synopses,
		Docs:           e.backend(),
		Access:         e.Access,
		Tax:            e.Tax,
		SynopsisWeight: e.SynopsisWeight,
		DocWeight:      e.DocWeight,
		DisableScoping: e.DisableScoping,
		Metrics:        e.Metrics,
		Resilient:      e.Resilient,
		Faults:         e.Faults,
		Shards:         e.Shards,
	}
}

// backend returns the current document backend: the atomically swapped one
// when compaction has republished it, the construction-time Docs otherwise.
func (e *Engine) backend() *siapi.Engine {
	if d := e.docs.Load(); d != nil {
		return d
	}
	return e.Docs
}

// SwapDocs atomically replaces the document backend. Searches in flight
// keep the engine they already loaded; new searches see the replacement.
// This is how System.Compact swaps the rebuilt index under live queries
// without a lock on the search path.
func (e *Engine) SwapDocs(d *siapi.Engine) { e.docs.Store(d) }

// Search stage labels used in search_stage_seconds.
const (
	StageCompose  = "compose"  // form decomposition + taxonomy resolution
	StageSynopsis = "synopsis" // synopsis (business context) query
	StageSIAPI    = "siapi"    // semantic document index query
	StageMerge    = "merge"    // rank combination and sort
	StageAccess   = "access"   // per-activity access filtering
)

// stageHist returns the histogram for one search stage.
func (e *Engine) stageHist(stage string) *obs.Histogram {
	return e.Metrics.Histogram("search_stage_seconds", nil, "stage", stage)
}

// observeStage records one stage duration into the stage histogram. When
// the request is traced, the observation carries the trace ID as an
// exemplar, so a p99 bucket on the dashboard links to a concrete trace.
func (e *Engine) observeStage(ctx context.Context, stage string, d time.Duration) {
	e.stageHist(stage).ObserveDurationWithExemplar(d, trace.ID(ctx))
}

func (e *Engine) weights() (float64, float64) {
	sw, dw := e.SynopsisWeight, e.DocWeight
	if sw == 0 {
		sw = 1
	}
	if dw == 0 {
		dw = 1
	}
	return sw, dw
}

// Search runs the business-activity driven search algorithm for the user.
func (e *Engine) Search(user access.User, q FormQuery) (Result, error) {
	return e.SearchCtx(context.Background(), user, q)
}

// SearchCtx is Search under the caller's context: when ctx carries a trace
// (started by the web middleware, explain mode, or eilbench), every stage
// of the Figure 1 algorithm records a child span, and the stage histograms
// receive trace-ID exemplars.
func (e *Engine) SearchCtx(ctx context.Context, user access.User, q FormQuery) (Result, error) {
	total := obs.StartTimer()
	e.Metrics.Counter("search_total").Inc()
	res, err := e.search(ctx, user, q)
	e.Metrics.Histogram("search_seconds", nil).ObserveDurationWithExemplar(total.Elapsed(), trace.ID(ctx))
	if err != nil {
		e.Metrics.Counter("search_errors_total").Inc()
		return res, err
	}
	if res.UnscopedFallback {
		e.Metrics.Counter("search_fallback_total").Inc()
	} else {
		e.Metrics.Counter("search_scoped_total").Inc()
	}
	if len(res.Activities) == 0 {
		e.Metrics.Counter("search_zero_results_total").Inc()
	}
	return res, nil
}

// combinedAct accumulates one activity's rank components across stages:
// the normalized synopsis score, the normalized document score, the
// matched towers, and the per-activity document hits.
type combinedAct struct {
	syn float64
	doc float64
	tws []string
	dcs []siapi.DocHit
}

// activityWorse reports whether a ranks strictly below b: lower combined
// score, or equal score and higher deal ID. It is the strict total order
// behind both the full sort and the bounded top-k heap, so limited and
// unlimited searches agree exactly.
func activityWorse(a, b *Activity) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.DealID > b.DealID
}

// topKActivities ranks activities by descending combined score (ties by
// ascending deal ID). A positive limit selects the top-k through a
// bounded worst-at-root min-heap — the coordinator-side merge of the
// sharded search — without sorting the full candidate set; the selected
// prefix is identical to sort-then-truncate.
func topKActivities(all []Activity, limit int) []Activity {
	if limit <= 0 || len(all) <= limit {
		sort.Slice(all, func(i, j int) bool { return activityWorse(&all[j], &all[i]) })
		return all
	}
	h := make([]Activity, 0, limit)
	for i := range all {
		if len(h) < limit {
			h = append(h, all[i])
			for c := len(h) - 1; c > 0; {
				parent := (c - 1) / 2
				if !activityWorse(&h[c], &h[parent]) {
					break
				}
				h[c], h[parent] = h[parent], h[c]
				c = parent
			}
			continue
		}
		if !activityWorse(&h[0], &all[i]) {
			continue
		}
		h[0] = all[i]
		for c := 0; ; {
			worst := c
			if l := 2*c + 1; l < len(h) && activityWorse(&h[l], &h[worst]) {
				worst = l
			}
			if r := 2*c + 2; r < len(h) && activityWorse(&h[r], &h[worst]) {
				worst = r
			}
			if worst == c {
				break
			}
			h[c], h[worst] = h[worst], h[c]
			c = worst
		}
	}
	sort.Slice(h, func(i, j int) bool { return activityWorse(&h[j], &h[i]) })
	return h
}

// finishSearch runs the last two Figure-1 stages on the coordinator: rank
// combination with bounded top-k selection (step 18) and per-activity
// access filtering (step 19), which hydrates each visible activity's
// synopsis from its owning shard.
func (e *Engine) finishSearch(ctx context.Context, user access.User, q FormQuery, shards []ShardBackend, res *Result, acts map[string]*combinedAct, degrade func(cause string, err error)) {
	// Step 18: rank by the combined score.
	merge := obs.StartTimer()
	_, msp := trace.StartSpan(ctx, "search.combine")
	sw, dw := e.weights()
	all := make([]Activity, 0, len(acts))
	for dealID, c := range acts {
		all = append(all, Activity{
			DealID:        dealID,
			SynopsisScore: c.syn,
			DocScore:      c.doc,
			Score:         sw*c.syn + dw*c.doc,
			MatchedTowers: c.tws,
			Docs:          c.dcs,
		})
	}
	ranked := len(all)
	res.Activities = topKActivities(all, q.Limit)
	if msp != nil {
		msp.SetInt("combined", ranked)
		msp.SetBool("limit_truncated", ranked > len(res.Activities))
		msp.End()
	}
	e.observeStage(ctx, StageMerge, merge.Elapsed())

	// Step 19: present with proper access control.
	filter := obs.StartTimer()
	actx, asp := trace.StartSpan(ctx, "search.access")
	var levels []access.Level
	if e.Access != nil {
		ids := make([]string, len(res.Activities))
		for i, a := range res.Activities {
			ids[i] = a.DealID
		}
		var err error
		levels, err = e.Access.TryLevelsFor(actx, user, ids)
		if err != nil {
			// Entitlement resolution failed: degrade every activity to the
			// community-safe synopsis tier — contacts stay reachable, but
			// no documents are exposed on a guess.
			degrade(BackendAccess, err)
			res.Explain = append(res.Explain, "access control unavailable; degraded to synopsis-only")
			levels = make([]access.Level, len(ids))
			for i := range levels {
				levels[i] = access.LevelSynopsis
			}
		}
	}
	out := res.Activities[:0]
	synopsisOnly := 0
	for i, a := range res.Activities {
		level := access.LevelFull
		if levels != nil {
			level = levels[i]
		}
		a.Level = level
		switch {
		case level == access.LevelNone:
			continue // invisible
		case level == access.LevelSynopsis:
			a.Docs = nil // synopsis-plus-contacts fallback
			synopsisOnly++
		}
		deal, err := shards[ShardFor(a.DealID, len(shards))].Synopses.Get(a.DealID)
		if err == nil {
			a.Synopsis = &deal
		}
		out = append(out, a)
	}
	if asp != nil {
		asp.SetInt("in", len(res.Activities))
		asp.SetInt("visible", len(out))
		asp.SetInt("synopsis_only", synopsisOnly)
		asp.End()
	}
	res.Activities = out
	e.observeStage(ctx, StageAccess, filter.Elapsed())
}

// composeSynopsisQuery resolves concept criteria through the taxonomy and
// builds the structured query (Figure 1 step 2).
func (e *Engine) composeSynopsisQuery(q FormQuery) (synopsis.Query, []string) {
	var sq synopsis.Query
	var explain []string
	if q.Tower != "" && e.Tax != nil {
		tower, sub, ok := e.Tax.Resolve(q.Tower)
		if ok {
			sq.Tower = tower
			if sub != "" {
				sq.SubTower = sub
			}
			explain = append(explain, fmt.Sprintf("find deals with %s tower", tower))
		} else {
			// Unknown concept: fall back to the literal string so the
			// query simply matches nothing rather than erroring.
			sq.Tower = q.Tower
			explain = append(explain, fmt.Sprintf("find deals with unrecognized tower %q", q.Tower))
		}
	} else if q.Tower != "" {
		sq.Tower = q.Tower
	}
	if q.SubTower != "" {
		if e.Tax != nil {
			if tower, sub, ok := e.Tax.Resolve(q.SubTower); ok && sub != "" {
				sq.SubTower = sub
				if sq.Tower == "" {
					sq.Tower = tower
				}
			} else {
				sq.SubTower = q.SubTower
			}
		} else {
			sq.SubTower = q.SubTower
		}
	}
	sq.Industry = q.Industry
	sq.Consultant = q.Consultant
	sq.Geography = q.Geography
	sq.Country = q.Country
	sq.PersonName = q.PersonName
	sq.PersonOrg = q.PersonOrg
	if q.PersonName != "" || q.PersonOrg != "" {
		explain = append(explain, fmt.Sprintf("with people matching name=%q org=%q", q.PersonName, q.PersonOrg))
	}
	return sq, explain
}

// composeSIAPIQuery maps the text predicates onto index fields (Figure 1
// step 3).
func (e *Engine) composeSIAPIQuery(q FormQuery) siapi.Query {
	dq := siapi.Query{
		All:   q.AllWords,
		Exact: q.ExactPhrase,
		Any:   q.AnyWords,
		None:  q.NoneWords,
	}
	switch q.Target {
	case TargetTechSolution:
		dq.Fields = []string{"techsolution"}
	case TargetWinStrategy:
		dq.Fields = []string{"winstrategy"}
	case TargetTitle:
		dq.Fields = []string{siapi.FieldTitle}
	default:
		dq.Fields = nil // body + title
	}
	return dq
}

// Explore searches the documents of one business activity — the drill-down
// the methodology describes ("the user may further explore most relevant
// documents within a business activity based on its synopsis"). The user
// needs document-level access to the activity.
func (e *Engine) Explore(user access.User, dealID string, q FormQuery) ([]siapi.DocHit, error) {
	return e.ExploreCtx(context.Background(), user, dealID, q)
}

// ExploreCtx is Explore under the caller's context; the document search
// records spans when ctx carries a trace.
func (e *Engine) ExploreCtx(ctx context.Context, user access.User, dealID string, q FormQuery) ([]siapi.DocHit, error) {
	if e.Access != nil && !e.Access.CanSeeDocuments(user, dealID) {
		return nil, fmt.Errorf("core: %w for documents of %s", access.ErrDenied, dealID)
	}
	dq := e.composeSIAPIQuery(q)
	if dq.Empty() {
		return nil, fmt.Errorf("core: explore requires text criteria")
	}
	dq.Deals = []string{dealID}
	limit := q.Limit
	if limit <= 0 {
		limit = 20
	}
	if r := e.resilience(); r.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Budget)
		defer cancel()
	}
	if e.Faults != nil {
		ctx = fault.With(ctx, e.Faults)
	}
	shards := e.shardList()
	i := ShardFor(dealID, len(shards))
	var st *index.Stats
	epoch := ""
	if len(shards) > 1 {
		// Score the owning shard against cluster-global statistics, so hit
		// scores match an unpartitioned index.
		epoch = e.clusterEpoch()
		var errs []error
		st, errs = e.clusterStats(ctx, dq, epoch)
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return callShard(ctx, e, shards, i, "search.siapi.shard", func(c context.Context, _ int, sb *ShardBackend) ([]siapi.DocHit, error) {
		return resilientCall(c, e, shardBreakerName(BackendSIAPI, sb.Name), func(cc context.Context) ([]siapi.DocHit, error) {
			return sb.Docs().TrySearchStatsCtx(cc, dq, limit, st, epoch)
		})
	})
}
