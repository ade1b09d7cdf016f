package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/synth"
)

func testPopulation(t *testing.T, seed int64, skewed bool) *population {
	t.Helper()
	truth := []*synth.DealTruth{
		{ID: "DEAL A", Towers: []string{"End User Services"}, Industry: "Retail", Geography: "Americas",
			Team: []synth.Person{{Name: "Ann Lee"}}},
		{ID: "DEAL B", Towers: []string{"Storage Management Services", "Network"}, Industry: "Banking",
			Geography: "Europe"},
	}
	vocab := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet"}
	users := buildUsers(10)
	return buildPopulation(seed, popSizes{Forms: 30, Keywords: 20, Users: 10}, skewed, users, truth, vocab, []string{"DEAL A", "DEAL B"})
}

func TestSameSeedSameStream(t *testing.T) {
	m := mix{Search: 70, Keyword: 20, Ingest: 10}
	a := newStreamGen(42, m, testPopulation(t, 1, true), 1.3).schedule(200, 2*time.Second)
	b := newStreamGen(42, m, testPopulation(t, 1, true), 1.3).schedule(200, 2*time.Second)
	if len(a) < 300 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different streams (%d vs %d requests)", len(a), len(b))
	}
	c := newStreamGen(43, m, testPopulation(t, 1, true), 1.3).schedule(200, 2*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	if !reflect.DeepEqual(testPopulation(t, 1, true).forms, testPopulation(t, 1, true).forms) {
		t.Fatal("same seed gave different form populations")
	}
}

func TestStreamFollowsMixAndSchedule(t *testing.T) {
	m := mix{Search: 70, Keyword: 20, Ingest: 10}
	pop := testPopulation(t, 1, false)
	sched := newStreamGen(7, m, pop, 1.3).schedule(1000, 10*time.Second)
	if n := len(sched); n < 9000 || n > 11000 {
		t.Fatalf("%d arrivals in 10s at 1000/s", n)
	}
	var per [numClasses]int
	for i, r := range sched {
		per[r.Class]++
		if i > 0 && r.Due < sched[i-1].Due {
			t.Fatal("schedule not in time order")
		}
		if r.Class == classIngest && (r.Docs < 1 || r.Docs > 4) {
			t.Fatalf("ingest batch of %d docs", r.Docs)
		}
		if r.Form >= len(pop.forms) || r.Word >= len(pop.keywords) || r.Deal >= len(pop.deals) || r.User >= len(pop.users) {
			t.Fatalf("index out of range: %+v", r)
		}
	}
	if s := float64(per[classSearch]) / float64(len(sched)); s < 0.66 || s > 0.74 {
		t.Fatalf("search share %.3f, want ~0.70", s)
	}
}

func TestPopulationShape(t *testing.T) {
	pop := testPopulation(t, 1, true)
	if len(pop.forms) != 30 || len(pop.keywords) != 20 {
		t.Fatalf("population %d forms %d keywords", len(pop.forms), len(pop.keywords))
	}
	for _, q := range pop.forms {
		if q.Tower == "" || !q.HasText() {
			t.Fatalf("form without tower or text: %+v", q)
		}
	}
	ctl := accessController(pop.users, pop.deals)
	var delivery access.User
	for _, u := range pop.users {
		if u.HasRole(access.RoleDelivery) {
			delivery = u
		}
	}
	if delivery.ID == "" {
		t.Fatal("no delivery user")
	}
	granted := 0
	for _, d := range pop.deals {
		if ctl.CanSeeDocuments(delivery, d) {
			granted++
		}
	}
	if granted == 0 {
		t.Fatal("delivery user has no document grants")
	}
}
