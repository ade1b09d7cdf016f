package core

import (
	"testing"

	"repro/internal/access"
	"repro/internal/index"
	"repro/internal/relstore"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
)

// newEngine hand-builds a two-deal system: DEAL A is a storage deal with a
// "data replication" solution document; DEAL B is an EUS deal.
func newEngine(t *testing.T) *Engine {
	t.Helper()
	store, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	deals := []synopsis.Deal{
		{
			Overview: synopsis.Overview{DealID: "DEAL A", Customer: "Acme", Industry: "Banking"},
			Towers: []synopsis.TowerScope{
				{Tower: "Storage Management Services", Significance: 0.9},
				{Tower: "Disaster Recovery Services", Significance: 0.5},
			},
			People: []synopsis.Contact{{Name: "Jo Park", Role: "CSE", Category: "core deal team"}},
		},
		{
			Overview: synopsis.Overview{DealID: "DEAL B", Customer: "Borealis", Industry: "Insurance"},
			Towers: []synopsis.TowerScope{
				{Tower: "End User Services", SubTower: "Customer Service Center", Significance: 0.8},
				{Tower: "End User Services", Significance: 0.8},
			},
			People: []synopsis.Contact{{Name: "Sam White", Org: "ABC", Role: "CIO", Category: "client team"}},
		},
	}
	for _, d := range deals {
		if err := store.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	ix := index.New(textproc.DefaultAnalyzer)
	docs := []index.Document{
		{ExtID: "DEAL A/sol.deck", Fields: []index.Field{
			{Name: siapi.FieldTitle, Text: "Technical Solution"},
			{Name: siapi.FieldBody, Text: "data replication between sites for storage management"},
			{Name: siapi.FieldDeal, Text: "DEAL A", Keyword: true},
			{Name: "techsolution", Text: "data replication between sites"},
		}, Meta: map[string]string{"deal": "DEAL A"}},
		{ExtID: "DEAL B/notes.txt", Fields: []index.Field{
			{Name: siapi.FieldTitle, Text: "Notes"},
			{Name: siapi.FieldBody, Text: "help desk replication of tickets and staffing"},
			{Name: siapi.FieldDeal, Text: "DEAL B", Keyword: true},
		}, Meta: map[string]string{"deal": "DEAL B"}},
	}
	for _, d := range docs {
		if _, err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return &Engine{
		Synopses: store,
		Docs:     siapi.NewEngine(ix),
		Tax:      taxonomy.Default(),
	}
}

func anyUser() access.User { return access.User{ID: "u", Roles: []access.Role{access.RoleAdmin}} }

func dealIDs(res Result) []string {
	out := make([]string, len(res.Activities))
	for i, a := range res.Activities {
		out[i] = a.DealID
	}
	return out
}

func TestConceptOnlyQuery(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{Tower: "Storage Management Services"})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL A" {
		t.Fatalf("activities = %v", got)
	}
	a := res.Activities[0]
	if a.Synopsis == nil || a.Synopsis.Overview.Customer != "Acme" {
		t.Fatalf("synopsis missing: %+v", a)
	}
	if len(a.MatchedTowers) == 0 || a.MatchedTowers[0] != "Storage Management Services" {
		t.Fatalf("matched towers = %v", a.MatchedTowers)
	}
	if res.UnscopedFallback {
		t.Fatal("fallback flagged on a concept hit")
	}
}

func TestConceptViaAcronym(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{Tower: "EUS"})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL B" {
		t.Fatalf("activities = %v", got)
	}
}

func TestConceptViaSubTowerAlias(t *testing.T) {
	e := newEngine(t)
	// "CSC" resolves to the Customer Service Center sub-tower.
	res, err := e.Search(anyUser(), FormQuery{Tower: "CSC"})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL B" {
		t.Fatalf("activities = %v", got)
	}
}

func TestConceptPlusTextScopes(t *testing.T) {
	e := newEngine(t)
	// "replication" matches docs in both deals, but the storage concept
	// scopes the search to DEAL A (Figure 1 steps 5-8).
	res, err := e.Search(anyUser(), FormQuery{
		Tower:    "Storage Management Services",
		AllWords: []string{"replication"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL A" {
		t.Fatalf("activities = %v", got)
	}
	if len(res.Activities[0].Docs) != 1 {
		t.Fatalf("docs = %+v", res.Activities[0].Docs)
	}
	if res.Activities[0].Score <= res.Activities[0].SynopsisScore {
		t.Fatalf("combined score must add doc evidence: %+v", res.Activities[0])
	}
}

// TestDocScoreMatchesSIAPINormalization is the independent reference for
// the search's coordinator-side normalization: every activity's DocScore
// equals, float for float, the score siapi's own normalizing
// SearchActivities returns for the same query, scoped and unscoped.
func TestDocScoreMatchesSIAPINormalization(t *testing.T) {
	e := newEngine(t)
	// A second storage deal, so the scoped query spans two activities
	// with different document scores.
	if err := e.Synopses.Put(synopsis.Deal{
		Overview: synopsis.Overview{DealID: "DEAL C", Customer: "Cobalt"},
		Towers:   []synopsis.TowerScope{{Tower: "Storage Management Services", Significance: 0.4}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Docs.Index().Add(index.Document{ExtID: "DEAL C/plan.doc", Fields: []index.Field{
		{Name: siapi.FieldTitle, Text: "Replication Plan"},
		{Name: siapi.FieldBody, Text: "replication schedule and replication tooling for storage arrays"},
		{Name: siapi.FieldDeal, Text: "DEAL C", Keyword: true},
	}, Meta: map[string]string{"deal": "DEAL C"}}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []FormQuery{
		{Tower: "Storage Management Services", AllWords: []string{"replication"}},
		{AllWords: []string{"replication"}},
	} {
		res, err := e.Search(anyUser(), q)
		if err != nil {
			t.Fatal(err)
		}
		dq := e.composeSIAPIQuery(q)
		if q.HasConcepts() {
			sq, _ := e.composeSynopsisQuery(q)
			hits, err := e.Synopses.Search(sq)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				dq.Deals = append(dq.Deals, h.DealID)
			}
		}
		want := map[string]float64{}
		for _, a := range e.Docs.SearchActivities(dq, 5) {
			want[a.DealID] = a.Score
		}
		if len(res.Activities) != len(want) || len(want) < 2 {
			t.Fatalf("%+v: activities %v, siapi reference %v", q, dealIDs(res), want)
		}
		fractional := false
		for _, a := range res.Activities {
			ref, ok := want[a.DealID]
			if !ok || a.DocScore != ref {
				t.Errorf("%+v: %s DocScore = %v, siapi normalizes to %v (present %v)", q, a.DealID, a.DocScore, ref, ok)
			}
			fractional = fractional || (ref > 0 && ref < 1)
		}
		if !fractional {
			t.Fatalf("%+v: every reference score is 0 or 1; normalization is not exercised", q)
		}
	}
}

func TestConceptMatchButNoDocs(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{
		Tower:    "Storage Management Services",
		AllWords: []string{"nonexistentword"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 {
		t.Fatalf("activities = %v (scoped SIAPI matched nothing)", dealIDs(res))
	}
}

func TestUnscopedFallback(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UnscopedFallback {
		t.Fatal("fallback not flagged")
	}
	if len(res.Activities) != 2 {
		t.Fatalf("activities = %v", dealIDs(res))
	}
}

func TestConceptNoMatchIsEmpty(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{
		Tower:    "Network Services",
		AllWords: []string{"replication"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 || res.UnscopedFallback {
		t.Fatalf("res = %+v (concept filters are hard)", res)
	}
}

func TestEmptyQuery(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 {
		t.Fatalf("empty query returned %v", dealIDs(res))
	}
}

func TestPersonQuery(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{PersonName: "Sam White", PersonOrg: "ABC"})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL B" {
		t.Fatalf("activities = %v", got)
	}
}

func TestTechSolutionTarget(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{
		ExactPhrase: "data replication",
		Target:      TargetTechSolution,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	// Only DEAL A has a techsolution field containing the phrase.
	if len(got) != 1 || got[0] != "DEAL A" {
		t.Fatalf("activities = %v", got)
	}
}

func TestAccessControlLevels(t *testing.T) {
	e := newEngine(t)
	ctl := access.NewController()
	e.Access = ctl
	sales := access.User{ID: "s", Roles: []access.Role{access.RoleSales}}
	res, err := e.Search(sales, FormQuery{AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 2 {
		t.Fatalf("activities = %v", dealIDs(res))
	}
	for _, a := range res.Activities {
		if a.Level != access.LevelSynopsis {
			t.Fatalf("level = %v", a.Level)
		}
		if a.Docs != nil {
			t.Fatalf("synopsis-level user saw documents: %+v", a.Docs)
		}
		if a.Synopsis == nil {
			t.Fatal("synopsis missing at synopsis level")
		}
	}
	// A delivery user with no grants sees nothing.
	delivery := access.User{ID: "d", Roles: []access.Role{access.RoleDelivery}}
	res, err = e.Search(delivery, FormQuery{AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 {
		t.Fatalf("delivery sees %v", dealIDs(res))
	}
	// Granting full access restores documents.
	ctl.Grant("s", "DEAL A", access.LevelFull)
	res, _ = e.Search(sales, FormQuery{AllWords: []string{"replication"}})
	for _, a := range res.Activities {
		if a.DealID == "DEAL A" && len(a.Docs) == 0 {
			t.Fatal("full-access activity has no documents")
		}
	}
}

func TestDisableScopingIntersects(t *testing.T) {
	e := newEngine(t)
	e.DisableScoping = true
	res, err := e.Search(anyUser(), FormQuery{
		Tower:    "Storage Management Services",
		AllWords: []string{"replication"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := dealIDs(res)
	if len(got) != 1 || got[0] != "DEAL A" {
		t.Fatalf("ablation changed semantics: %v", got)
	}
}

func TestLimit(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{AllWords: []string{"replication"}, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 1 {
		t.Fatalf("limit ignored: %v", dealIDs(res))
	}
}

func TestFormQueryHelpers(t *testing.T) {
	if (FormQuery{}).HasConcepts() || (FormQuery{}).HasText() {
		t.Fatal("empty query has criteria")
	}
	if !(FormQuery{Tower: "x"}).HasConcepts() {
		t.Fatal("tower not a concept")
	}
	if !(FormQuery{ExactPhrase: "x"}).HasText() {
		t.Fatal("phrase not text")
	}
}

func TestExplainPopulated(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{Tower: "SMS", AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explain) < 2 {
		t.Fatalf("explain = %v", res.Explain)
	}
}

func TestSuggestionsOnUnknownTower(t *testing.T) {
	e := newEngine(t)
	res, err := e.Search(anyUser(), FormQuery{Tower: "Strorage Management Services"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 {
		t.Fatalf("typo matched deals: %v", dealIDs(res))
	}
	if len(res.Suggestions) == 0 {
		t.Fatal("no suggestions for a one-typo tower")
	}
	found := false
	for _, s := range res.Suggestions {
		if s == "storage management services" {
			found = true
		}
	}
	if !found {
		t.Fatalf("suggestions = %v", res.Suggestions)
	}
	// A resolving tower must not produce suggestions.
	res, err = e.Search(anyUser(), FormQuery{Tower: "EUS"})
	if err != nil || len(res.Suggestions) != 0 {
		t.Fatalf("suggestions on valid concept: %v, %v", res.Suggestions, err)
	}
}

func TestExplore(t *testing.T) {
	e := newEngine(t)
	hits, err := e.Explore(anyUser(), "DEAL A", FormQuery{AllWords: []string{"replication"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].DealID != "DEAL A" {
		t.Fatalf("hits = %+v", hits)
	}
	// Text criteria required.
	if _, err := e.Explore(anyUser(), "DEAL A", FormQuery{}); err == nil {
		t.Fatal("criteria-free explore accepted")
	}
	// Access enforced: synopsis-level users cannot drill into documents.
	e.Access = access.NewController()
	sales := access.User{ID: "s", Roles: []access.Role{access.RoleSales}}
	if _, err := e.Explore(sales, "DEAL A", FormQuery{AllWords: []string{"replication"}}); err == nil {
		t.Fatal("synopsis-level user explored documents")
	}
}

func TestWinStrategyTarget(t *testing.T) {
	e := newEngine(t)
	// No winstrategy fields in the hand-built index: target must yield 0,
	// proving the field routing (not falling back to body).
	res, err := e.Search(anyUser(), FormQuery{AllWords: []string{"replication"}, Target: TargetWinStrategy})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activities) != 0 {
		t.Fatalf("winstrategy target leaked to body: %v", dealIDs(res))
	}
}
