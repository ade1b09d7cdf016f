package main

// Request populations and the seeded request stream. Everything a run
// sends is derived from -seed here; the program under test only ever sees
// the generated queries, users and documents.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
	"unicode"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/synth"
)

// opClass is one class of traffic; latency and outcome counts are kept per
// class.
type opClass int

const (
	classSearch  opClass = iota // form search (core.Engine, Figure 1)
	classKeyword                // search-box keyword query (siapi only)
	classIngest                 // AddDocuments batch of 1-4 documents
	numClasses
)

func (c opClass) String() string {
	return [...]string{"search", "keyword", "ingest"}[c]
}

// mix weighs the op classes.
type mix struct {
	Search  int `json:"search"`
	Keyword int `json:"keyword"`
	Ingest  int `json:"ingest"`
}

func (m mix) pick(r int) opClass {
	switch {
	case r < m.Search:
		return classSearch
	case r < m.Search+m.Keyword:
		return classKeyword
	}
	return classIngest
}

// request is one generated operation. The indices point into a population.
type request struct {
	Due   time.Duration // scheduled send time, as an offset from the phase start
	Class opClass
	User  int
	Form  int // search: index into population.forms
	Word  int // keyword: index into population.keywords
	Deal  int // ingest: index into population.deals
	Docs  int // ingest: documents in the batch
}

// population holds the concrete principals, queries and ingest targets a
// stream's indices refer to.
type population struct {
	users    []access.User
	forms    []core.FormQuery
	keywords []string
	deals    []string // ingest targets, hottest first
	// skewed draws forms and keywords by zipf (a hot set); otherwise
	// uniformly (a cold set far larger than any cache).
	skewed bool
}

// popSizes fixes how many distinct forms and keyword queries a population
// holds.
type popSizes struct {
	Forms    int `json:"forms"`
	Keywords int `json:"keywords"`
	Users    int `json:"users"`
}

// buildPopulation derives forms, keyword queries and the ingest deal order
// from the seed, the corpus ground truth and its vocabulary.
func buildPopulation(seed int64, sizes popSizes, skewed bool, users []access.User, truth []*synth.DealTruth, vocab, ingestDeals []string) *population {
	rng := rand.New(rand.NewSource(seed + 1))
	p := &population{skewed: skewed, users: users}
	p.deals = append([]string(nil), ingestDeals...)
	rng.Shuffle(len(p.deals), func(i, j int) { p.deals[i], p.deals[j] = p.deals[j], p.deals[i] })

	// Draw until the population has the requested number of distinct
	// entries, or a small corpus has run out of new combinations.
	seen := map[string]bool{}
	for tries := 0; len(p.forms) < sizes.Forms && tries < 20*sizes.Forms; tries++ {
		q := randomForm(rng, truth, vocab)
		if k := fmt.Sprintf("%+v", q); !seen[k] {
			seen[k] = true
			p.forms = append(p.forms, q)
		}
	}
	seenKW := map[string]bool{}
	for tries := 0; len(p.keywords) < sizes.Keywords && tries < 20*sizes.Keywords; tries++ {
		kw := vocab[rng.Intn(len(vocab))]
		if rng.Intn(2) == 0 {
			kw += " " + vocab[rng.Intn(len(vocab))]
		}
		if !seenKW[kw] {
			seenKW[kw] = true
			p.keywords = append(p.keywords, kw)
		}
	}
	return p
}

// buildUsers makes the community: mostly sales (synopsis everywhere),
// some delivery staff granted documents on a few deals, a few admins.
func buildUsers(n int) []access.User {
	users := make([]access.User, n)
	for i := range users {
		u := access.User{ID: fmt.Sprintf("user-%03d", i)}
		switch {
		case i%10 == 0:
			u.Roles = []access.Role{access.RoleAdmin}
		case i%10 >= 7:
			u.Roles = []access.Role{access.RoleDelivery}
		default:
			u.Roles = []access.Role{access.RoleSales}
		}
		users[i] = u
	}
	return users
}

// accessController grants each delivery user full access to three deals
// and marks two deals confidential, so the access filter has real work.
func accessController(users []access.User, deals []string) *access.Controller {
	ctl := access.NewController()
	for i, u := range users {
		if u.HasRole(access.RoleDelivery) {
			for k := 0; k < 3; k++ {
				ctl.Grant(u.ID, deals[(i+k*7)%len(deals)], access.LevelFull)
			}
		}
	}
	for _, d := range deals[len(deals)-2:] {
		ctl.Restrict(d)
	}
	return ctl
}

// randomForm combines a tower with optional industry, geography and person
// criteria from the ground truth of a random deal, plus a text predicate
// built from corpus words.
func randomForm(rng *rand.Rand, truth []*synth.DealTruth, vocab []string) core.FormQuery {
	t := truth[rng.Intn(len(truth))]
	var q core.FormQuery
	q.Tower = t.Towers[rng.Intn(len(t.Towers))]
	if rng.Intn(2) == 0 {
		q.Industry = t.Industry
	}
	if rng.Intn(2) == 0 {
		q.Geography = t.Geography
	}
	if rng.Intn(2) == 0 && len(t.Team) > 0 {
		q.PersonName = t.Team[rng.Intn(len(t.Team))].Name
	}
	w1, w2 := vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]
	switch rng.Intn(4) {
	case 0, 1:
		q.AnyWords = []string{w1, w2}
	case 2:
		q.AllWords = []string{w1, w2}
	default:
		q.AllWords = []string{w1}
	}
	return q
}

// corpusVocabulary returns the sorted words of 5-12 letters that occur in
// at least minDF documents and in at most a fifth of them: frequent enough
// to match, rare enough to discriminate.
func corpusVocabulary(docs []*docmodel.Document, minDF int) []string {
	df := map[string]int{}
	seen := map[string]bool{}
	for _, d := range docs {
		clear(seen)
		for _, w := range strings.FieldsFunc(d.Body, func(r rune) bool { return !unicode.IsLetter(r) }) {
			if len(w) < 5 || len(w) > 12 {
				continue
			}
			w = strings.ToLower(w)
			if !seen[w] {
				seen[w] = true
				df[w]++
			}
		}
	}
	var out []string
	for w, n := range df {
		if n >= minDF && n <= len(docs)/5 {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

// streamGen draws requests: the op class by the mix, users and ingest
// deals by zipf, forms and keywords by zipf or uniformly.
type streamGen struct {
	rng          *rand.Rand
	mix          mix
	total        int
	pop          *population
	userZ, dealZ *rand.Zipf
	formZ, wordZ *rand.Zipf // nil: uniform draws
}

func newStreamGen(seed int64, m mix, pop *population, skew float64) *streamGen {
	rng := rand.New(rand.NewSource(seed))
	g := &streamGen{rng: rng, mix: m, total: m.Search + m.Keyword + m.Ingest, pop: pop}
	zipf := func(n int) *rand.Zipf { return rand.NewZipf(rng, skew, 1, uint64(n-1)) }
	g.userZ = zipf(len(pop.users))
	g.dealZ = zipf(len(pop.deals))
	if pop.skewed {
		g.formZ = zipf(len(pop.forms))
		g.wordZ = zipf(len(pop.keywords))
	}
	return g
}

func draw(rng *rand.Rand, z *rand.Zipf, n int) int {
	if z != nil {
		return int(z.Uint64())
	}
	return rng.Intn(n)
}

// next draws one request (Due left zero).
func (g *streamGen) next() request {
	r := request{Class: g.mix.pick(g.rng.Intn(g.total)), User: int(g.userZ.Uint64())}
	switch r.Class {
	case classSearch:
		r.Form = draw(g.rng, g.formZ, len(g.pop.forms))
	case classKeyword:
		r.Word = draw(g.rng, g.wordZ, len(g.pop.keywords))
	case classIngest:
		r.Deal = int(g.dealZ.Uint64())
		r.Docs = 1 + g.rng.Intn(4)
	}
	return r
}

// schedule lays out Poisson arrivals at rate per second over d.
func (g *streamGen) schedule(rate float64, d time.Duration) []request {
	var out []request
	at := 0.0
	for {
		at += g.rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return out
		}
		r := g.next()
		r.Due = due
		out = append(out, r)
	}
}
