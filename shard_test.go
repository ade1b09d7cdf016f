package eil

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/synth"
)

// clusterFixture ingests one synthetic corpus into both a monolithic
// System and an n-shard Cluster, each with Workers:1 so analysis order is
// deterministic and the two builds see bit-identical per-document stats.
func clusterFixture(t *testing.T, n int) (*synth.Corpus, *System, *Cluster) {
	t.Helper()
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Ingest(corpus.Docs, Options{Directory: corpus.Directory, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := IngestSharded(corpus.Docs, n, Options{Directory: corpus.Directory, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return corpus, mono, cluster
}

// identityShardCounts are the cluster sizes the identity suite runs at:
// n=1 is the one-shard case every single engine also searches as, n=3 a
// real scatter (TestShardedSearchMatchesMonolithManyShards adds n=5).
var identityShardCounts = []int{1, 3}

// differentialQueries is the identity-suite query set: the paper's ten
// Table-2 towers, text predicates of every flavour, conjunctions, the
// planted person, and limit/docs-per-deal variants.
// table2Towers mirrors eval.Table2Queries (the eval package imports this
// one, so the list is restated here rather than imported).
var table2Towers = []string{
	"End User Services",
	"Storage Management Services",
	"Server Systems Management",
	"Network Services",
	"Disaster Recovery Services",
	"Data Center Services",
	"Application Management Services",
	"Security Services",
	"eBusiness Services",
	"Asset Management",
}

func differentialQueries() []core.FormQuery {
	qs := []core.FormQuery{}
	for _, tw := range table2Towers {
		qs = append(qs,
			core.FormQuery{Tower: tw},
			core.FormQuery{Tower: tw, AllWords: []string{"service"}},
		)
	}
	qs = append(qs,
		core.FormQuery{AllWords: []string{"replication"}},
		core.FormQuery{ExactPhrase: "cross tower TSA"},
		core.FormQuery{AnyWords: []string{"backup", "restore", "migration"}},
		core.FormQuery{AllWords: []string{"storage"}, NoneWords: []string{"tape"}},
		core.FormQuery{Tower: "Storage Management Services", AllWords: []string{"replication"}},
		core.FormQuery{PersonName: synth.PlantedPerson},
		core.FormQuery{Tower: "End User Services", Limit: 3},
		core.FormQuery{Tower: "Network Services", AllWords: []string{"router"}, DocsPerDeal: 2},
		core.FormQuery{Tower: "Data Center Services", ExactPhrase: "cross tower TSA"},
	)
	return qs
}

func sortedCopy(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

// assertSameResult compares everything rank-relevant: activity order,
// exact scores on both sides of the combination, access level, matched
// towers (as sets — within-deal tower order is a display concern), and
// each activity's document list. Explain strings are narrative and
// legitimately differ between the two engines.
func assertSameResult(t *testing.T, label string, mono, sharded core.Result) {
	t.Helper()
	if mono.UnscopedFallback != sharded.UnscopedFallback {
		t.Errorf("%s: UnscopedFallback: mono=%v sharded=%v", label, mono.UnscopedFallback, sharded.UnscopedFallback)
	}
	if sharded.Degraded {
		t.Errorf("%s: sharded result degraded with healthy shards: %v", label, sharded.DegradedCauses)
	}
	if len(mono.Activities) != len(sharded.Activities) {
		t.Fatalf("%s: activity count: mono=%d sharded=%d", label, len(mono.Activities), len(sharded.Activities))
	}
	for i := range mono.Activities {
		m, s := mono.Activities[i], sharded.Activities[i]
		if m.DealID != s.DealID {
			t.Fatalf("%s: rank %d: mono=%s sharded=%s", label, i, m.DealID, s.DealID)
		}
		if m.Score != s.Score || m.SynopsisScore != s.SynopsisScore || m.DocScore != s.DocScore {
			t.Errorf("%s: %s scores: mono=(%v,%v,%v) sharded=(%v,%v,%v)", label, m.DealID,
				m.Score, m.SynopsisScore, m.DocScore, s.Score, s.SynopsisScore, s.DocScore)
		}
		if m.Level != s.Level {
			t.Errorf("%s: %s level: mono=%v sharded=%v", label, m.DealID, m.Level, s.Level)
		}
		mt, st := sortedCopy(m.MatchedTowers), sortedCopy(s.MatchedTowers)
		if len(mt) != len(st) {
			t.Errorf("%s: %s towers: mono=%v sharded=%v", label, m.DealID, m.MatchedTowers, s.MatchedTowers)
		} else {
			for j := range mt {
				if mt[j] != st[j] {
					t.Errorf("%s: %s towers: mono=%v sharded=%v", label, m.DealID, m.MatchedTowers, s.MatchedTowers)
					break
				}
			}
		}
		if len(m.Docs) != len(s.Docs) {
			t.Errorf("%s: %s doc count: mono=%d sharded=%d", label, m.DealID, len(m.Docs), len(s.Docs))
			continue
		}
		for j := range m.Docs {
			if m.Docs[j].Path != s.Docs[j].Path || m.Docs[j].Score != s.Docs[j].Score {
				t.Errorf("%s: %s doc %d: mono=(%s,%v) sharded=(%s,%v)", label, m.DealID, j,
					m.Docs[j].Path, m.Docs[j].Score, s.Docs[j].Path, s.Docs[j].Score)
			}
		}
	}
}

// TestShardedSearchMatchesMonolith is the differential identity suite: an
// n-shard scatter-gather search must produce rankings identical — deal
// order, combined and per-side scores, documents — to the single engine
// over the full evaluation query set.
func TestShardedSearchMatchesMonolith(t *testing.T) {
	for _, n := range identityShardCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, mono, cluster := clusterFixture(t, n)
			nonEmpty := 0
			for _, q := range differentialQueries() {
				mres, merr := mono.Search(admin(), q)
				sres, serr := cluster.Search(admin(), q)
				if (merr == nil) != (serr == nil) {
					t.Fatalf("%+v: error mismatch: mono=%v sharded=%v", q, merr, serr)
				}
				if merr != nil {
					continue
				}
				assertSameResult(t, q.Tower+"/"+q.ExactPhrase, mres, sres)
				if len(mres.Activities) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty < 5 {
				t.Fatalf("only %d queries returned activities; differential suite is vacuous", nonEmpty)
			}
		})
	}
}

// TestShardedSearchMatchesMonolithManyShards re-runs a slice of the suite
// at a shard count that guarantees some shards own few or zero matching
// deals, exercising the relevant-shard skip and merge edge cases.
func TestShardedSearchMatchesMonolithManyShards(t *testing.T) {
	_, mono, cluster := clusterFixture(t, 5)
	for _, q := range []core.FormQuery{
		{Tower: "Storage Management Services", AllWords: []string{"replication"}},
		{Tower: "End User Services"},
		{ExactPhrase: "cross tower TSA"},
		{PersonName: synth.PlantedPerson},
	} {
		mres, merr := mono.Search(admin(), q)
		sres, serr := cluster.Search(admin(), q)
		if (merr == nil) != (serr == nil) {
			t.Fatalf("%+v: error mismatch: mono=%v sharded=%v", q, merr, serr)
		}
		if merr == nil {
			assertSameResult(t, q.Tower+"/"+q.ExactPhrase, mres, sres)
		}
	}
}

// TestShardedKeywordSearchMatchesMonolith checks the baseline keyword path:
// same hit set, same scores. Cross-shard merge breaks score ties by path
// while the monolith breaks them by internal doc id, so both sides are
// normalized to (score desc, path asc) before comparison, and limit 0
// avoids truncation at an ambiguous tie boundary.
func TestShardedKeywordSearchMatchesMonolith(t *testing.T) {
	for _, n := range identityShardCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, mono, cluster := clusterFixture(t, n)
			for _, q := range []string{
				"storage replication",
				`"cross tower TSA"`,
				"storage -tape",
				"stor*",
				"network router",
			} {
				mhs := mono.KeywordSearch(q, 0)
				shs := cluster.KeywordSearch(q, 0)
				sort.Slice(mhs, func(i, j int) bool {
					if mhs[i].Score != mhs[j].Score {
						return mhs[i].Score > mhs[j].Score
					}
					return mhs[i].Path < mhs[j].Path
				})
				sort.Slice(shs, func(i, j int) bool {
					if shs[i].Score != shs[j].Score {
						return shs[i].Score > shs[j].Score
					}
					return shs[i].Path < shs[j].Path
				})
				if len(mhs) != len(shs) {
					t.Fatalf("%q: hit count: mono=%d sharded=%d", q, len(mhs), len(shs))
				}
				for i := range mhs {
					if mhs[i].Path != shs[i].Path || mhs[i].Score != shs[i].Score || mhs[i].DealID != shs[i].DealID {
						t.Errorf("%q: hit %d: mono=(%s,%v) sharded=(%s,%v)", q, i, mhs[i].Path, mhs[i].Score, shs[i].Path, shs[i].Score)
					}
				}
				if mc, sc := mono.KeywordCount(q), cluster.KeywordCount(q); mc != sc {
					t.Errorf("%q: count: mono=%d sharded=%d", q, mc, sc)
				}
			}
		})
	}
}

// TestShardedExploreMatchesMonolith drills into one activity on its owning
// shard; cluster-global statistics must reproduce the monolith's scores.
func TestShardedExploreMatchesMonolith(t *testing.T) {
	for _, n := range identityShardCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, mono, cluster := clusterFixture(t, n)
			res, err := mono.Search(admin(), core.FormQuery{Tower: "Storage Management Services", AllWords: []string{"replication"}})
			if err != nil || len(res.Activities) == 0 {
				t.Fatalf("probe search: %v (%d activities)", err, len(res.Activities))
			}
			for _, act := range res.Activities {
				q := core.FormQuery{AllWords: []string{"replication"}}
				mh, merr := mono.Explore(admin(), act.DealID, q)
				sh, serr := cluster.Explore(admin(), act.DealID, q)
				if (merr == nil) != (serr == nil) {
					t.Fatalf("%s: error mismatch: mono=%v sharded=%v", act.DealID, merr, serr)
				}
				if len(mh) != len(sh) {
					t.Fatalf("%s: explore count: mono=%d sharded=%d", act.DealID, len(mh), len(sh))
				}
				for i := range mh {
					if mh[i].Path != sh[i].Path || mh[i].Score != sh[i].Score {
						t.Errorf("%s: doc %d: mono=(%s,%v) sharded=(%s,%v)", act.DealID, i, mh[i].Path, mh[i].Score, sh[i].Path, sh[i].Score)
					}
				}
			}
		})
	}
}

// TestShardedSimilarDealsMatchesMonolith: tower-significance vectors are
// per-deal, so the scatter-merge must reproduce the monolithic ranking.
func TestShardedSimilarDealsMatchesMonolith(t *testing.T) {
	for _, n := range identityShardCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			corpus, mono, cluster := clusterFixture(t, n)
			checked := 0
			for dealID := range corpus.Truth {
				mh, merr := mono.SimilarDeals(admin(), dealID, 5)
				sh, serr := cluster.SimilarDeals(admin(), dealID, 5)
				if (merr == nil) != (serr == nil) {
					t.Fatalf("%s: error mismatch: mono=%v sharded=%v", dealID, merr, serr)
				}
				if merr != nil {
					continue
				}
				if len(mh) != len(sh) {
					t.Fatalf("%s: similar count: mono=%d sharded=%d", dealID, len(mh), len(sh))
				}
				for i := range mh {
					if mh[i].DealID != sh[i].DealID || mh[i].Score != sh[i].Score {
						t.Errorf("%s: similar %d: mono=(%s,%v) sharded=(%s,%v)", dealID, i, mh[i].DealID, mh[i].Score, sh[i].DealID, sh[i].Score)
					}
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no deals produced a similarity ranking")
			}
		})
	}
}

// probeShard finds a tower query hit and returns the shard that owns it,
// so chaos tests can kill the shard that provably holds matching deals.
func probeShard(t *testing.T, mono *System, tower string, n int) (string, int) {
	t.Helper()
	res, err := mono.Search(admin(), core.FormQuery{Tower: tower})
	if err != nil || len(res.Activities) == 0 {
		t.Fatalf("probe %q: %v (%d activities)", tower, err, len(res.Activities))
	}
	dealID := res.Activities[0].DealID
	return dealID, core.ShardFor(dealID, n)
}

// TestShardedSearchDeadSIAPIShardDegrades: killing one document shard must
// degrade — not fail — the search. The dead shard's deals drop to the
// synopsis-plus-contacts tier (no documents); survivors keep theirs.
func TestShardedSearchDeadSIAPIShardDegrades(t *testing.T) {
	_, mono, cluster := clusterFixture(t, 3)
	const tower = "End User Services"
	deadDeal, dead := probeShard(t, mono, tower, 3)

	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
	cluster.Engine.Shards[dead].Faults = inj

	res, err := cluster.Search(admin(), core.FormQuery{Tower: tower, AllWords: []string{"service"}})
	if err != nil {
		t.Fatalf("dead shard surfaced as hard failure: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked degraded with a dead document shard")
	}
	found := false
	for _, c := range res.DegradedCauses {
		if c == core.BackendSIAPI {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded causes %v missing %q", res.DegradedCauses, core.BackendSIAPI)
	}
	if len(res.Activities) == 0 {
		t.Fatal("degraded search returned no activities at all")
	}
	sawDead, sawHealthyDocs := false, false
	for _, act := range res.Activities {
		if act.DealID == deadDeal {
			sawDead = true
			if len(act.Docs) != 0 || act.DocScore != 0 {
				t.Errorf("dead shard's deal %s still carries documents (%d docs, docScore %v)", act.DealID, len(act.Docs), act.DocScore)
			}
		}
		if core.ShardFor(act.DealID, 3) != dead && len(act.Docs) > 0 {
			sawHealthyDocs = true
		}
	}
	if !sawDead {
		t.Errorf("dead shard's deal %s vanished instead of degrading to the synopsis tier", deadDeal)
	}
	if !sawHealthyDocs {
		t.Log("no healthy-shard activity carried documents for this query; document-survival assertion skipped")
	}
}

// TestShardedSearchDeadSynopsisShardDegrades: killing one synopsis shard
// removes only its deals from the business context; the search degrades
// and the surviving shards' activities still serve.
func TestShardedSearchDeadSynopsisShardDegrades(t *testing.T) {
	_, mono, cluster := clusterFixture(t, 3)
	const tower = "End User Services"
	deadDeal, dead := probeShard(t, mono, tower, 3)

	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	cluster.Engine.Shards[dead].Faults = inj

	res, err := cluster.Search(admin(), core.FormQuery{Tower: tower})
	if err != nil {
		t.Fatalf("dead synopsis shard surfaced as hard failure: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked degraded with a dead synopsis shard")
	}
	found := false
	for _, c := range res.DegradedCauses {
		if c == core.BackendSynopsis {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded causes %v missing %q", res.DegradedCauses, core.BackendSynopsis)
	}
	for _, act := range res.Activities {
		if act.DealID == deadDeal {
			t.Errorf("deal %s served from a dead synopsis shard", deadDeal)
		}
	}
}

// TestShardedSearchAllDocShardsDead: with every document shard dead, a
// text-only query has no serving tier left and must surface the outage,
// while a concept+text query still serves the synopsis tier.
func TestShardedSearchAllDocShardsDead(t *testing.T) {
	_, _, cluster := clusterFixture(t, 3)
	for i := range cluster.Engine.Shards {
		inj := fault.New(uint64(7 + i))
		inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
		cluster.Engine.Shards[i].Faults = inj
	}

	_, err := cluster.Search(admin(), core.FormQuery{AllWords: []string{"replication"}})
	if err == nil {
		t.Fatal("text-only query succeeded with every document shard dead")
	}
	if !core.IsUnavailable(err) {
		t.Fatalf("error %v is not an unavailability", err)
	}

	res, err := cluster.Search(admin(), core.FormQuery{Tower: "End User Services", AllWords: []string{"service"}})
	if err != nil {
		t.Fatalf("concept+text query failed instead of degrading: %v", err)
	}
	if !res.Degraded {
		t.Fatal("concept+text result not marked degraded")
	}
	if len(res.Activities) == 0 {
		t.Fatal("synopsis tier empty with healthy synopsis shards")
	}
	for _, act := range res.Activities {
		if len(act.Docs) != 0 {
			t.Errorf("deal %s carries documents with every document shard dead", act.DealID)
		}
	}
}

// TestShardedBreakerOpensAndHealthDegrades: sustained shard failure must
// open that shard's circuit (visible in ShardBreakerStates) and flip the
// cluster health registry to degraded — the satellite-2 acceptance.
func TestShardedBreakerOpensAndHealthDegrades(t *testing.T) {
	_, _, cluster := clusterFixture(t, 3)
	inj := fault.New(7)
	inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
	cluster.Engine.Shards[1].Faults = inj

	for i := 0; i < 12; i++ {
		cluster.Search(admin(), core.FormQuery{Tower: "End User Services", AllWords: []string{"service"}})
	}
	states := cluster.Engine.ShardBreakerStates(core.BackendSIAPI)
	if states["shard-1"] == "closed" || states["shard-1"] == "" {
		t.Fatalf("shard-1 siapi breaker still %q after sustained failure (states %v)", states["shard-1"], states)
	}
	for name, st := range states {
		if name != "shard-1" && st != "closed" {
			t.Errorf("healthy shard %s breaker %q", name, st)
		}
	}

	rep := cluster.NewHealth(HealthOptions{}).Evaluate()
	if rep.Verdict != health.VerdictDegraded {
		t.Fatalf("cluster health = %q with an open shard breaker, want degraded (causes %v)", rep.Verdict, rep.Causes)
	}
}

// TestShardedConcurrentScatter runs concurrent scatter-gather searches
// against a cluster with one slow shard and one dead shard. Run under
// -race this proves the fan-out, per-shard memo, stats memo, and breaker
// paths are data-race free; semantically every query must either succeed
// (possibly degraded) or report a clean unavailability.
func TestShardedConcurrentScatter(t *testing.T) {
	_, _, cluster := clusterFixture(t, 3)

	slow := fault.New(7)
	slow.Add(&fault.Rule{Site: "*", Mode: fault.ModeSlow, Latency: 2 * time.Millisecond})
	cluster.Engine.Shards[0].Faults = slow
	deadInj := fault.New(11)
	deadInj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
	cluster.Engine.Shards[2].Faults = deadInj

	queries := differentialQueries()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := queries[(w*6+i)%len(queries)]
				if _, err := cluster.SearchCtx(context.Background(), admin(), q); err != nil && !core.IsUnavailable(err) {
					errc <- err
					return
				}
				cluster.KeywordSearchCtx(context.Background(), "storage replication", 10)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("concurrent search: %v", err)
	}
}

// TestClusterSaveLoadRoundTrip: per-shard snapshot stores plus the cluster
// manifest must reload into an equivalent cluster.
func TestClusterSaveLoadRoundTrip(t *testing.T) {
	_, _, cluster := clusterFixture(t, 3)
	dir := t.TempDir()
	if err := cluster.Save(dir); err != nil {
		t.Fatal(err)
	}
	if !IsCluster(dir) {
		t.Fatal("IsCluster=false on a saved cluster directory")
	}
	loaded, err := LoadCluster(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Shards) != 3 {
		t.Fatalf("loaded %d shards, want 3", len(loaded.Shards))
	}
	for _, q := range []core.FormQuery{
		{Tower: "Storage Management Services", AllWords: []string{"replication"}},
		{ExactPhrase: "cross tower TSA"},
	} {
		orig, oerr := cluster.Search(admin(), q)
		got, gerr := loaded.Search(admin(), q)
		if (oerr == nil) != (gerr == nil) {
			t.Fatalf("%+v: error mismatch after reload: %v vs %v", q, oerr, gerr)
		}
		if oerr == nil {
			assertSameResult(t, "reload:"+q.Tower+q.ExactPhrase, orig, got)
		}
	}
	if oc, lc := cluster.KeywordCount("storage"), loaded.KeywordCount("storage"); oc != lc {
		t.Fatalf("keyword count after reload: %d vs %d", oc, lc)
	}
}

// TestClusterUpdateRouting: cross-shard batches split by deal hash; a new
// deal lands on exactly one shard and removal empties it everywhere.
func TestClusterUpdateRouting(t *testing.T) {
	_, _, cluster := clusterFixture(t, 3)
	const dealID = "DEAL SHARDED NEW"
	docs := newDealDocs(t, dealID)
	if err := cluster.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	owner := core.ShardFor(dealID, 3)
	for i, s := range cluster.Shards {
		if _, err := s.Synopses.Get(dealID); (err == nil) != (i == owner) {
			t.Fatalf("shard %d Get(%s) err=%v; owner is %d", i, dealID, err, owner)
		}
	}
	if _, err := cluster.Deal(admin(), dealID); err != nil {
		t.Fatalf("cluster Deal after add: %v", err)
	}
	res, err := cluster.Search(admin(), core.FormQuery{ExactPhrase: "cross tower TSA"})
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, act := range res.Activities {
		if act.DealID == dealID {
			seen = true
		}
	}
	if !seen {
		t.Fatal("new deal not searchable after cluster AddDocuments")
	}

	if err := cluster.RemoveDeal(dealID); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Deal(admin(), dealID); err == nil {
		t.Fatal("deal still served after cluster RemoveDeal")
	}
	res, err = cluster.Search(admin(), core.FormQuery{ExactPhrase: "cross tower TSA"})
	if err != nil {
		t.Fatal(err)
	}
	for _, act := range res.Activities {
		if act.DealID == dealID {
			t.Fatal("removed deal still in search results")
		}
	}
}

// TestShardForStable pins the routing hash: rebalancing on a hash change
// would orphan every shard's data, so the assignment is part of the
// on-disk format.
func TestShardForStable(t *testing.T) {
	for _, id := range []string{"", "DEAL A", "DEAL B", "DEAL C"} {
		i := core.ShardFor(id, 3)
		if i < 0 || i > 2 {
			t.Fatalf("ShardFor(%q,3)=%d out of range", id, i)
		}
		if j := core.ShardFor(id, 3); j != i {
			t.Fatalf("ShardFor(%q,3) unstable: %d then %d", id, i, j)
		}
	}
	if core.ShardFor("anything", 1) != 0 {
		t.Error("single shard must own everything")
	}
}

// TestShardedStreamingIngestMatchesBatch: IngestShardedFrom pulling from
// the synth streaming generator must build the same cluster as the batch
// path over Generate's slice — same rankings, same keyword counts — while
// never holding the corpus as a slice.
func TestShardedStreamingIngestMatchesBatch(t *testing.T) {
	cfg := synth.SmallConfig()
	corpus, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := IngestSharded(corpus.Docs, 3, Options{Directory: corpus.Directory, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream := synth.NewStream(cfg)
	streamed, err := IngestShardedFrom(stream, 3, Options{Directory: stream.Directory(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	user := admin()
	for _, q := range differentialQueries()[:8] {
		rb, err := batch.Search(user, q)
		if err != nil {
			t.Fatalf("batch search: %v", err)
		}
		rs, err := streamed.Search(user, q)
		if err != nil {
			t.Fatalf("streamed search: %v", err)
		}
		assertSameResult(t, "stream-vs-batch", rb, rs)
	}
	for _, kw := range []string{"replication", "cross tower TSA", "backup"} {
		if b, s := batch.KeywordCount(kw), streamed.KeywordCount(kw); b != s {
			t.Errorf("keyword %q count: batch=%d streamed=%d", kw, b, s)
		}
	}
}

// TestShardedOutageErrorNamesStageOnce: when every shard of a stage is down
// and no tier is left to serve, the search fails with one BackendError
// naming the stage (not a shard's breaker key), carrying the injected
// cause, with "backend unavailable" said once.
func TestShardedOutageErrorNamesStageOnce(t *testing.T) {
	for _, n := range identityShardCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, _, cluster := clusterFixture(t, n)
			for _, tc := range []struct {
				site, backend string
				q             core.FormQuery
			}{
				{fault.SiteSynopsisSearch, core.BackendSynopsis, core.FormQuery{Tower: "End User Services"}},
				{fault.SiteSIAPISearch, core.BackendSIAPI, core.FormQuery{AllWords: []string{"replication"}}},
			} {
				for i := range cluster.Engine.Shards {
					inj := fault.New(uint64(7 + i))
					inj.Add(&fault.Rule{Site: tc.site, Mode: fault.ModeError})
					cluster.Engine.Shards[i].Faults = inj
				}
				_, err := cluster.Search(admin(), tc.q)
				var be *core.BackendError
				if !errors.As(err, &be) || be.Backend != tc.backend {
					t.Fatalf("%s down: err = %v, want BackendError{%s}", tc.site, err, tc.backend)
				}
				if !errors.Is(err, fault.ErrInjected) {
					t.Errorf("%s down: injected cause lost from chain: %v", tc.site, err)
				}
				if c := strings.Count(err.Error(), "backend unavailable"); c != 1 {
					t.Errorf("%s down: %q says \"backend unavailable\" %d times, want once", tc.site, err, c)
				}
			}
		})
	}
}
