package core

// The Figure-1 search path as a scatter-gather over N ≥ 1 shards. The
// corpus is partitioned by hashed deal ID into self-contained shards —
// each with its own index, synopsis store, and durability — and every
// stage fans out per shard: synopsis scatter, a global-statistics scatter
// (so BM25 scores match an unpartitioned index bit-for-bit; see
// index/stats.go), and a document scatter scoped per shard to its own
// synopsis hits. The coordinator merges with a single cluster-wide
// normalization and a bounded top-k heap. An engine without Shards is
// the N = 1 case: it searches its own Synopses and document backend as
// one unnamed shard.
//
// Resilience generalizes from "2 backends" to N shards: each shard's
// synopsis and document hops get their own circuit breaker
// ("<backend>#<shard>"; an unnamed shard keeps the bare backend name),
// each scatter goroutine gets a deadline carved from the remaining search
// budget (80%, reserving coordinator headroom), and a straggling, dead, or
// breaker-open shard degrades the result — its deals drop to a reduced
// tier and the degraded flag is set — instead of failing the query. Only
// a total outage of a stage with no tier left to serve surfaces as an
// error.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/trace"
)

// ShardBackend is one self-contained shard: a synopsis store and a live
// document engine over the same partition of deals. Docs is a getter so
// per-shard compaction can republish its engine atomically (the same
// SwapDocs discipline a single engine uses). Faults, when set, is
// attached to this shard's calls only — chaos tests kill or slow one
// shard while the rest stay healthy.
type ShardBackend struct {
	Name     string
	Synopses *synopsis.Store
	Docs     func() *siapi.Engine
	Faults   *fault.Injector
}

// ShardFor returns the shard owning dealID among n shards: FNV-1a over
// the deal ID, mod n. The hash is stable across processes and platforms,
// so a persisted cluster routes identically on every load.
func ShardFor(dealID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(dealID))
	return int(h.Sum32() % uint32(n))
}

// ShardForDoc routes a document: by its deal when it has one, by its path
// otherwise (deal-less documents have no cross-shard grouping to keep).
func ShardForDoc(dealID, path string, n int) int {
	if dealID == "" {
		return ShardFor(path, n)
	}
	return ShardFor(dealID, n)
}

// shardList returns the shards a search fans out over: e.Shards on a
// coordinator, otherwise the engine's own stores as one unnamed shard.
func (e *Engine) shardList() []ShardBackend {
	if len(e.Shards) > 0 {
		return e.Shards
	}
	return []ShardBackend{{Synopses: e.Synopses, Docs: e.backend}}
}

// statsMemoSize bounds the coordinator's merged-stats memo.
const statsMemoSize = 128

// shardOut carries one shard's scatter result.
type shardOut[T any] struct {
	out T
	err error
}

// scatterShards runs fn against every shard through callShard and
// returns the results in shard order: several shards each on their own
// goroutine, a single shard inline on the caller's.
func scatterShards[T any](ctx context.Context, e *Engine, shards []ShardBackend, span string, fn func(ctx context.Context, i int, sb *ShardBackend) (T, error)) []shardOut[T] {
	outs := make([]shardOut[T], len(shards))
	if len(shards) == 1 {
		outs[0].out, outs[0].err = callShard(ctx, e, shards, 0, span, fn)
		return outs
	}
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i].out, outs[i].err = callShard(ctx, e, shards, i, span, fn)
		}(i)
	}
	wg.Wait()
	return outs
}

// callShard runs fn against shards[i] with the shard's fault injector
// attached. One shard of several also gets a child span tagged with its
// name, eil_shard_search_* metrics, and a deadline of 80% of the
// remaining budget (min 1ms), which leaves the coordinator headroom to
// merge the survivors and answer degraded after the slowest shard
// reports. A single shard needs none of these: it runs under the
// caller's span and deadline, and its span and series would only repeat
// the stage span and search_stage_seconds.
func callShard[T any](ctx context.Context, e *Engine, shards []ShardBackend, i int, span string, fn func(ctx context.Context, i int, sb *ShardBackend) (T, error)) (T, error) {
	sb := &shards[i]
	if sb.Faults != nil {
		ctx = fault.With(ctx, sb.Faults)
	}
	if len(shards) == 1 {
		return fn(ctx, i, sb)
	}
	t := obs.StartTimer()
	ctx, sp := trace.StartSpan(ctx, span)
	if deadline, ok := ctx.Deadline(); ok {
		remaining := time.Until(deadline)
		slice := max(remaining-remaining/5, time.Millisecond)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Now().Add(slice))
		defer cancel()
	}
	out, err := fn(ctx, i, sb)
	e.Metrics.Counter("eil_shard_search_total", "shard", sb.Name).Inc()
	if err != nil {
		e.Metrics.Counter("eil_shard_search_errors_total", "shard", sb.Name).Inc()
	}
	e.Metrics.Histogram("eil_shard_search_seconds", nil, "shard", sb.Name).ObserveDurationWithExemplar(t.Elapsed(), trace.ID(ctx))
	if sp != nil {
		sp.Set("shard", sb.Name)
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}
	return out, err
}

// stageError is the error a stage returns when no shard could serve it:
// one BackendError naming the stage, wrapping the failing shard's cause
// once (resilientCall already wrapped that cause in a per-shard
// BackendError, which would otherwise repeat "backend unavailable").
func stageError(stage string, sb *ShardBackend, err error) error {
	var be *BackendError
	if errors.As(err, &be) {
		err = be.Err
	}
	if sb.Name != "" {
		err = fmt.Errorf("%s: %w", sb.Name, err)
	}
	return &BackendError{Backend: stage, Err: err}
}

// appendOwned appends one shard's freshly built result list to the
// gathered one. The first list is adopted rather than copied — every
// shard's list is the caller's to keep — so a single shard gathers
// without allocating.
func appendOwned[T any](gathered, shard []T) []T {
	if gathered == nil {
		return shard
	}
	return append(gathered, shard...)
}

// clusterEpoch joins every shard's index generation into one cache-epoch
// string: a write on any shard yields a new epoch, so stats-scored cache
// entries (keyed on it) can never serve scores computed against a stale
// cluster state.
func (e *Engine) clusterEpoch() string {
	var b strings.Builder
	for i := range e.Shards {
		if i > 0 {
			b.WriteByte('-')
		}
		b.WriteString(strconv.FormatUint(e.Shards[i].Docs().Generation(), 10))
	}
	return b.String()
}

// clusterStats runs the statistics phase of the two-phase scoring
// protocol: scatter per-shard stats collection for dq, merge. Per-shard
// failures come back in errs (the caller treats a shard that cannot
// report stats as down for the whole document stage); the merged table is
// memoized per query and cluster epoch, but only when every shard
// reported — a partial table must not be served to later healthy
// searches. Only coordinators run it: one shard's local statistics are
// already the global ones.
func (e *Engine) clusterStats(ctx context.Context, dq siapi.Query, epoch string) (*index.Stats, []error) {
	e.statsOnce.Do(func() {
		e.statsMemo = lru.New[string, *index.Stats](statsMemoSize)
	})
	errs := make([]error, len(e.Shards))
	key := siapi.Key(dq) + "|" + epoch
	if st, ok := e.statsMemo.Get(key, 0); ok {
		e.Metrics.Counter("shard_stats_cache_hits_total").Inc()
		return st, errs
	}
	e.Metrics.Counter("shard_stats_cache_misses_total").Inc()
	outs := scatterShards(ctx, e, e.Shards, "search.siapi.stats", func(c context.Context, i int, sb *ShardBackend) (*index.Stats, error) {
		return resilientCall(c, e, shardBreakerName(BackendSIAPI, sb.Name), func(cc context.Context) (*index.Stats, error) {
			return sb.Docs().TryCollectStatsCtx(cc, dq)
		})
	})
	var merged *index.Stats
	complete := true
	for i, r := range outs {
		if r.err != nil {
			errs[i] = r.err
			complete = false
			continue
		}
		if merged == nil {
			merged = r.out
		} else {
			merged.Merge(r.out)
		}
	}
	if complete && merged != nil {
		e.statsMemo.Put(key, 0, merged)
	}
	return merged, errs
}

// search runs Figure-1 steps 1-19 for every engine. With one shard the
// two single-shard shortcuts apply: the scatter is an inline call, and
// the document stage scores with the shard's own statistics (they are
// the global ones), so a monolith ranks, caches, and reports exactly as
// an unpartitioned engine.
func (e *Engine) search(ctx context.Context, user access.User, q FormQuery) (Result, error) {
	var res Result
	shards := e.shardList()
	n := len(shards)
	// Resilience envelope: the search budget becomes a context deadline
	// that every backend attempt slices (see resilience.go), and an
	// engine-configured fault injector (chaos benching) rides the context
	// to the instrumented call sites.
	if r := e.resilience(); r.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Budget)
		defer cancel()
	}
	if e.Faults != nil {
		ctx = fault.With(ctx, e.Faults)
	}
	// degrade records one backend outage survived by serving a reduced
	// answer: result flags, per-cause counter, and root-span attributes
	// (so ?explain=1 shows what was lost and why).
	degrade := func(cause string, err error) {
		res.Degraded = true
		res.DegradedCauses = append(res.DegradedCauses, cause)
		e.Metrics.Counter("search_degraded_total", "cause", cause).Inc()
		root := trace.FromContext(ctx)
		root.SetBool("degraded", true)
		root.Set("degraded_"+cause, err.Error())
	}

	// Steps 1-3: compose both queries (coordinator-local, not sharded).
	compose := obs.StartTimer()
	_, csp := trace.StartSpan(ctx, "search.compose")
	sq, explain := e.composeSynopsisQuery(q)
	res.Explain = append(res.Explain, explain...)
	if q.Tower != "" && e.Tax != nil {
		if _, _, ok := e.Tax.Resolve(q.Tower); !ok {
			for _, s := range e.Tax.Suggest(q.Tower, 3) {
				res.Suggestions = append(res.Suggestions, s.Surface)
			}
		}
	}
	dq := e.composeSIAPIQuery(q)
	if !dq.Empty() {
		res.Explain = append(res.Explain, fmt.Sprintf("SIAPI query on fields %v", dq.Fields))
	}
	if csp != nil {
		csp.SetBool("has_concepts", !sq.Empty())
		csp.SetBool("has_text", !dq.Empty())
		csp.SetInt("suggestions", len(res.Suggestions))
		csp.End()
	}
	e.observeStage(ctx, StageCompose, compose.Elapsed())

	// Step 4: synopsis scatter, each shard behind the resilience wrapper
	// (breaker admission, budget-sliced attempt deadlines, bounded retry).
	// Hits union in shard order; a failed shard costs only its own deals
	// unless every shard is down.
	var synHits []synopsis.Hit
	synDown := false
	if !sq.Empty() {
		t := obs.StartTimer()
		sctx, sp := trace.StartSpan(ctx, "search.synopsis")
		type synOut struct {
			hits   []synopsis.Hit
			cached bool
		}
		outs := scatterShards(sctx, e, shards, "search.synopsis.shard", func(c context.Context, i int, sb *ShardBackend) (synOut, error) {
			return resilientCall(c, e, shardBreakerName(BackendSynopsis, sb.Name), func(cc context.Context) (synOut, error) {
				hits, cached, err := e.shardSynopsisSearch(cc, i, n, sb, sq)
				return synOut{hits, cached}, err
			})
		})
		failCount, cached := 0, true
		var firstErr error
		for i, r := range outs {
			if r.err != nil {
				failCount++
				if firstErr == nil {
					firstErr = stageError(BackendSynopsis, &shards[i], r.err)
				}
				continue
			}
			cached = cached && r.out.cached
			synHits = appendOwned(synHits, r.out.hits)
		}
		if sp != nil {
			sp.SetBool("cache_hit", failCount == 0 && cached)
			sp.SetInt("hits", len(synHits))
			if firstErr != nil {
				sp.SetInt("shards_failed", failCount)
				sp.Set("error", firstErr.Error())
			}
			sp.End()
		}
		e.observeStage(ctx, StageSynopsis, t.Elapsed())
		switch {
		case failCount == 0:
			res.Explain = append(res.Explain, fmt.Sprintf("synopsis query matched %d activities", len(synHits)))
		case failCount == n && dq.Empty():
			// Concept-only query with the synopsis store down: there is no
			// text to fall back to, so the outage surfaces as unavailable.
			return res, firstErr
		case failCount == n:
			// Harvest degradation (Fox & Brewer): drop the business-context
			// half, keep answering from the full-text index unscoped.
			synDown = true
			degrade(BackendSynopsis, firstErr)
			res.Explain = append(res.Explain, "synopsis backend unavailable; degraded to unscoped full-text")
		default:
			// Partial harvest: the surviving shards' business context still
			// scopes the search; the dead shards' deals are simply absent.
			degrade(BackendSynopsis, firstErr)
			res.Explain = append(res.Explain, fmt.Sprintf("%d of %d synopsis shards unavailable; serving partial business context", failCount, n))
		}
	}

	synByDeal := make(map[string]synopsis.Hit, len(synHits))
	maxSyn := 0.0
	for _, h := range synHits {
		synByDeal[h.DealID] = h
		if h.Score > maxSyn {
			maxSyn = h.Score
		}
	}

	acts := map[string]*combinedAct{}
	addSyn := func(h synopsis.Hit) {
		c := acts[h.DealID]
		if c == nil {
			c = &combinedAct{}
			acts[h.DealID] = c
		}
		if maxSyn > 0 {
			c.syn = h.Score / maxSyn
		}
		c.tws = h.MatchedTowers
	}

	// siapiStage scatters the document search. When scoping is on, each
	// shard's query is restricted to its own synopsis-hit deals (a deal's
	// documents live wholly on its shard, so the union equals the scoped
	// search of an unpartitioned index) and shards without any are
	// skipped. Several shards score against merged cluster statistics
	// (the two-phase protocol); one shard scores with its own, which are
	// the global ones, under the empty stats epoch — so its SIAPI cache
	// keys are those of a plain unpartitioned search. Shards return raw
	// per-activity averages; the coordinator normalizes once against the
	// best activity across every shard. failedShards is nil unless a
	// shard failed.
	siapiStage := func(scoping bool) (docActs []siapi.ActivityHit, failedShards []bool, okCount, failCount int, firstErr error) {
		perDeal := q.DocsPerDeal
		if perDeal <= 0 {
			perDeal = 5
		}
		t := obs.StartTimer()
		sctx, sp := trace.StartSpan(ctx, "search.siapi")
		var st *index.Stats
		var statsErrs []error
		epoch := ""
		if n > 1 {
			epoch = e.clusterEpoch()
			st, statsErrs = e.clusterStats(sctx, dq, epoch)
		}
		var dealsByShard [][]string
		if scoping {
			dealsByShard = make([][]string, n)
			for _, h := range synHits {
				i := ShardFor(h.DealID, n)
				if dealsByShard[i] == nil {
					dealsByShard[i] = make([]string, 0, len(synHits)/n+1)
				}
				dealsByShard[i] = append(dealsByShard[i], h.DealID)
			}
		}
		outs := scatterShards(sctx, e, shards, "search.siapi.shard", func(c context.Context, i int, sb *ShardBackend) ([]siapi.ActivityHit, error) {
			if scoping && len(dealsByShard[i]) == 0 {
				return nil, nil
			}
			if statsErrs != nil && statsErrs[i] != nil {
				return nil, statsErrs[i]
			}
			sdq := dq
			if scoping {
				sdq.Deals = dealsByShard[i]
			}
			return resilientCall(c, e, shardBreakerName(BackendSIAPI, sb.Name), func(cc context.Context) ([]siapi.ActivityHit, error) {
				return sb.Docs().TrySearchActivitiesRawCtx(cc, sdq, perDeal, st, epoch)
			})
		})
		for i, r := range outs {
			if scoping && len(dealsByShard[i]) == 0 {
				continue
			}
			if r.err != nil {
				failCount++
				if failedShards == nil {
					failedShards = make([]bool, n)
					firstErr = stageError(BackendSIAPI, &shards[i], r.err)
				}
				failedShards[i] = true
				continue
			}
			okCount++
			docActs = appendOwned(docActs, r.out)
		}
		maxAvg := 0.0
		for _, da := range docActs {
			if da.Score > maxAvg {
				maxAvg = da.Score
			}
		}
		if maxAvg > 0 {
			for i := range docActs {
				docActs[i].Score /= maxAvg
			}
		}
		if sp != nil {
			sp.SetBool("scoped", scoping)
			if scoping {
				sp.SetInt("scope_deals", len(synHits))
			}
			sp.SetInt("activities", len(docActs))
			if firstErr != nil {
				sp.SetInt("shards_failed", failCount)
				sp.Set("error", firstErr.Error())
			}
			sp.End()
		}
		e.observeStage(ctx, StageSIAPI, t.Elapsed())
		return docActs, failedShards, okCount, failCount, firstErr
	}

	switch {
	case len(synHits) > 0: // steps 5-11
		if !dq.Empty() {
			// Step 8: scope the document search to the activities in S.
			docActs, failedShards, okCount, failCount, err := siapiStage(!e.DisableScoping)
			if failCount > 0 {
				degrade(BackendSIAPI, err)
				if okCount == 0 {
					// Index down with the synopsis side healthy: serve the
					// synopsis-plus-contacts tier (R <- S, no documents) —
					// the same reduced answer the paper's access control
					// gives unauthorized users, here caused by an outage.
					res.Explain = append(res.Explain, "document index unavailable; degraded to synopsis-plus-contacts")
					for _, h := range synHits {
						addSyn(h)
					}
					break
				}
				// Partial outage: only the dead shards' deals drop to the
				// synopsis tier; surviving shards keep their documents.
				res.Explain = append(res.Explain, fmt.Sprintf("%d document shards unavailable; affected activities degraded to synopsis-plus-contacts", failCount))
				for _, h := range synHits {
					if failedShards[ShardFor(h.DealID, n)] {
						addSyn(h)
					}
				}
			}
			for _, da := range docActs {
				sh, inS := synByDeal[da.DealID]
				if !inS {
					continue // unscoped ablation: intersect to keep semantics
				}
				addSyn(sh)
				acts[da.DealID].doc = da.Score
				acts[da.DealID].dcs = da.Docs
			}
			res.Explain = append(res.Explain, fmt.Sprintf("scoped SIAPI query over %d activities", len(synHits)))
		} else {
			// Step 11: R <- S.
			for _, h := range synHits {
				addSyn(h)
			}
		}
	case !dq.Empty(): // steps 13-15: unscoped SIAPI fallback
		if !sq.Empty() && !synDown {
			// The synopsis query ran and matched nothing: the concept
			// criteria are hard filters, so the conjunction is empty.
			res.Explain = append(res.Explain, "concept criteria matched no activities")
			break
		}
		docActs, _, okCount, failCount, err := siapiStage(false)
		if okCount == 0 {
			// Every serving tier is gone (text side down, and any concept
			// side already failed above): surface the outage.
			return res, err
		}
		if failCount > 0 {
			degrade(BackendSIAPI, err)
			res.Explain = append(res.Explain, fmt.Sprintf("%d of %d document shards unavailable; serving partial results", failCount, n))
		}
		for _, da := range docActs {
			acts[da.DealID] = &combinedAct{doc: da.Score, dcs: da.Docs}
		}
		res.UnscopedFallback = true
		if synDown {
			res.Explain = append(res.Explain, "unscoped SIAPI query (synopsis degraded)")
		} else {
			res.Explain = append(res.Explain, "unscoped SIAPI query (no concept criteria)")
		}
	default: // step 17: R <- empty set
		return res, nil
	}

	e.finishSearch(ctx, user, q, shards, &res, acts, degrade)
	return res, nil
}
