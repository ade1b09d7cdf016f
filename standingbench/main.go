// Command standingbench is the repository's standing benchmark: three
// seeded, in-process workloads over the paper-scale synthetic corpus, each
// an open-loop phase at a fixed arrival rate followed by a closed-loop
// capacity phase, with correctness gates and per-layer attribution. A run
// measures in rounds, each on a freshly set-up deployment, so that every
// metric samples the whole run rather than one stretch of it.
//
//	go run . -workload hot_read -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with -trace 1 it holds the per-layer metrics of
// a traced run, plus the tracing overhead on each end-to-end metric. The
// line before it is the full report (build identity, configuration,
// per-class counts). The exit code is nonzero when a correctness gate
// fails or the run cannot complete.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/runtimetel"
	"repro/internal/synth"
	"repro/internal/trace"
)

// config is one run's complete parameter set.
type config struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	WorkDir  string  `json:"-"`

	Corpus    synth.Config `json:"corpus"`
	HoldEvery int          `json:"hold_every"` // every n-th email of a deal goes to the ingest pool
	// Rounds is how many fresh deployments a run sets up; each measures
	// its share of the run's time. setup_s is their median.
	Rounds int `json:"rounds"`

	Rate        float64  `json:"rate_per_s"` // open-loop arrivals per second
	Mix         mix      `json:"mix"`
	Sizes       popSizes `json:"population"`
	Skewed      bool     `json:"zipf_queries"` // zipf (hot) or uniform (cold) query draws
	Skew        float64  `json:"zipf_s"`
	MaxInFlight int      `json:"max_in_flight"`
	OpenShare   float64  `json:"open_share"`       // share of each round's measured time spent in the open loop
	Cycles      int      `json:"cycles_per_round"` // open loops, each followed by a closed loop, per round

	Shards       int    `json:"shards"`         // 0: monolith System
	SyncEvery    int    `json:"wal_sync_every"` // journal fsync policy (1: every record)
	RouterMaxLag uint64 `json:"router_max_lag_records"`

	IngestProbe int `json:"ingest_probe"` // read workloads: serial ingests per round, half before and half after the load
	Probes      int `json:"probes"`       // probe forms and keyword queries for the gates
	Warmup      int `json:"warmup"`       // cold workloads: warm-up requests per round before timing
}

// workloadConfig returns the fixed configuration of a named workload.
func workloadConfig(name string) (config, error) {
	cfg := config{
		Workload:    name,
		Corpus:      synth.EvalConfig(),
		HoldEvery:   20,
		Rounds:      5,
		Sizes:       popSizes{Forms: 200, Keywords: 100, Users: 40},
		Skewed:      true,
		Skew:        1.3,
		MaxInFlight: 128,
		OpenShare:   0.7,
		Cycles:      2,
		IngestProbe: 80,
		Probes:      12,
		Warmup:      100,
	}
	switch name {
	case "hot_read":
		cfg.Rate = 400
		cfg.Mix = mix{Search: 75, Keyword: 25}
	case "cold_read":
		cfg.Rate = 100
		cfg.Mix = mix{Search: 75, Keyword: 25}
		cfg.Sizes = popSizes{Forms: 40000, Keywords: 20000, Users: 40}
		cfg.Skewed = false
	case "write_mix":
		cfg.Rate = 100
		cfg.Mix = mix{Search: 70, Keyword: 20, Ingest: 10}
		cfg.Shards = 2
		cfg.SyncEvery = 1
		cfg.RouterMaxLag = 8
		cfg.IngestProbe = 0
	default:
		return cfg, fmt.Errorf("unknown workload %q (want hot_read, cold_read or write_mix)", name)
	}
	return cfg, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: hot_read, cold_read or write_mix")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "measured seconds (open plus closed loop)")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workDir := flag.String("workdir", ".bench_build", "directory for journals and replica state")
	flag.Parse()

	cfg, err := workloadConfig(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "standingbench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "standingbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg.Seed, cfg.Seconds, cfg.Trace, cfg.WorkDir = *seed, *seconds, *traced == 1, *workDir

	out, err := run(context.Background(), &cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "standingbench:", err)
		os.Exit(1)
	}
	out.print(os.Stdout, os.Stderr)
	if !out.Correct {
		os.Exit(1)
	}
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything a run reports.
type outcome struct {
	Correct   bool                    `json:"correct"`
	Gates     []string                `json:"gate_failures,omitempty"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Build     runtimetel.ReportHeader `json:"build"`
	Config    *config                 `json:"config"`
	Corpus    corpusInfo              `json:"corpus_info"`
	Setups    []setupTiming           `json:"setups"`
	Phases    map[string]phaseCounts  `json:"phases"`
	FirstErr  string                  `json:"first_error,omitempty"`
	// EndToEnd is measured with tracing off (in a traced run: its
	// untraced half); PerLayer only in a traced run.
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer,omitempty"`
}

// corpusInfo records the corpus and cache sizes the run saw.
type corpusInfo struct {
	SetupDocs  int `json:"setup_docs"`
	PoolDocs   int `json:"pool_docs"`
	Deals      int `json:"deals"`
	Vocabulary int `json:"vocabulary"`
	// The program's cache sizes, for reading the hit ratios against: the
	// SIAPI hit cache (siapi.searchCacheSize) and the synopsis memo
	// (core.synopsisMemoSize), which are not exported.
	SIAPIHitCache int `json:"siapi_hit_cache_entries"`
	SynopsisMemo  int `json:"synopsis_memo_entries"`
}

// phaseCounts is the per-class accounting of one phase.
type phaseCounts struct {
	Seconds float64                `json:"seconds"`
	Classes map[string]classLedger `json:"classes"`
	// LateP99 is how late the open-loop sender ran at p99, in ms.
	LateP99 float64 `json:"late_ms_p99,omitempty"`
	// Cycles lists each open loop's medians and the following closed
	// loop's completions per second.
	Cycles []cycleStat `json:"cycles,omitempty"`
	// ProbeP50 lists the median latency in ms of each half of each
	// round's ingest probe.
	ProbeP50 []float64 `json:"probe_p50_ms,omitempty"`
}

func counts(l *ledger, d time.Duration) phaseCounts {
	pc := phaseCounts{Seconds: d.Seconds(), Classes: map[string]classLedger{}, LateP99: zeroNaN(quantile(l.late, 0.99))}
	for c := opClass(0); c < numClasses; c++ {
		if cl := l.cls[c]; cl.Sent+cl.Dropped > 0 {
			pc.Classes[c.String()] = cl
		}
	}
	return pc
}

func withCycles(pc phaseCounts, cs []cycleStat) phaseCounts {
	pc.Cycles = cs
	return pc
}

// print writes the report line and the result line to w and a readable
// table to human.
func (o *outcome) print(w, human io.Writer) {
	shown := o.EndToEnd
	if o.Config.Trace {
		shown = o.PerLayer
	}
	fmt.Fprintf(human, "standingbench %s seed=%d trace=%v correct=%v attempted=%d failed=%d\n",
		o.Config.Workload, o.Config.Seed, o.Config.Trace, o.Correct, o.Attempted, o.Failed)
	for _, g := range o.Gates {
		fmt.Fprintf(human, "  GATE FAILED: %s\n", g)
	}
	for _, m := range shown {
		fmt.Fprintf(human, "  %-32s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	rep, _ := json.Marshal(map[string]*outcome{"report": o})
	fmt.Fprintln(w, string(rep))
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range shown {
		ms[m.Name] = val{m.Value, m.Unit}
	}
	res, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, ms})
	fmt.Fprintln(w, string(res))
}

// ackedDoc is one acknowledged document.
type ackedDoc struct{ deal, path string }

// runner executes one run, round by round, against each round's
// deployment.
type runner struct {
	cfg   *config
	users []access.User
	d     *deployment // the current round's
	pop   *population

	tracer *trace.Tracer
	spans  *spanBook  // traced phase only
	vis    *visPoller // traced phase of a replicated workload only

	docSeq atomic.Int64
	poolMu sync.Mutex
	cursor map[string]int

	ackMu sync.Mutex
	acked []ackedDoc // in the current round
}

// populationSeed fixes the query populations and the ingest deal order,
// as the corpus is fixed: a run's seed varies the traffic drawn from them
// (arrival times, op classes, users, queries, deals, held-back documents),
// so runs on different seeds measure the same workload.
const populationSeed = 1

// subSeed derives an independent stream seed from the run seed.
func (rn *runner) subSeed(k int64) int64 { return rn.cfg.Seed*1_000_003 + k }

// batch takes n documents for deal from its held-back pool, renamed to
// paths never used before, so the pool can be reused indefinitely.
func (rn *runner) batch(deal string, n int) []*docmodel.Document {
	pool := rn.d.pool[deal]
	rn.poolMu.Lock()
	start := rn.cursor[deal]
	rn.cursor[deal] = start + n
	rn.poolMu.Unlock()
	out := make([]*docmodel.Document, n)
	for i := range out {
		src := pool[(start+i)%len(pool)]
		doc := *src
		doc.Path = fmt.Sprintf("%s/standing-%07d-%s", deal, rn.docSeq.Add(1), strings.TrimPrefix(src.Path, deal+"/"))
		out[i] = &doc
	}
	return out
}

// exec runs one request against the deployment.
func (rn *runner) exec(ctx context.Context, r request) (bool, error) {
	user := rn.pop.users[r.User]
	switch r.Class {
	case classSearch:
		_, err := rn.d.read.SearchCtx(ctx, user, rn.pop.forms[r.Form])
		if err != nil && core.IsUnavailable(err) {
			return true, nil
		}
		return false, err
	case classKeyword:
		rn.d.read.KeywordSearchCtx(ctx, rn.pop.keywords[r.Word], 20)
		return false, nil
	}
	deal := rn.pop.deals[r.Deal]
	docs := rn.batch(deal, r.Docs)
	if err := rn.d.write.AddDocuments(docs); err != nil {
		return false, err
	}
	rn.ackMu.Lock()
	for _, d := range docs {
		rn.acked = append(rn.acked, ackedDoc{deal, d.Path})
	}
	rn.ackMu.Unlock()
	if rn.vis != nil {
		ps := rn.d.primaries()
		shard := core.ShardForDoc(deal, docs[0].Path, len(ps))
		_, seq := ps[shard].ReplPosition()
		rn.vis.add(visWait{shard: shard, seq: seq, acked: time.Now()})
	}
	return false, nil
}

// execTraced runs one request under a fresh trace and books its spans.
func (rn *runner) execTraced(ctx context.Context, r request) (bool, error) {
	ctx, tr := rn.tracer.Start(ctx, r.Class.String(), trace.StartOptions{Force: true})
	refused, err := rn.exec(ctx, r)
	tr.Finish()
	rn.spans.add(r.Class, tr.Tree())
	return refused, err
}

// phase is the outcome of a run's cycles: open loops, each followed by a
// closed loop.
type phase struct {
	open, closed *ledger
	cycles       []cycleStat
	openWall     time.Duration
	closedWall   time.Duration
}

// cycleStat is one open loop's median latencies and the following closed
// loop's completions per second.
type cycleStat struct {
	SearchP50 float64 `json:"search_p50_ms"`
	IngestP50 float64 `json:"ingest_p50_ms,omitempty"`
	Capacity  float64 `json:"capacity_ops_s"`
}

func newPhase() phase { return phase{open: &ledger{}, closed: &ledger{}} }

func (p phase) wall() time.Duration { return p.openWall + p.closedWall }

func (p phase) all() *ledger {
	l := &ledger{}
	l.merge(p.open)
	l.merge(p.closed)
	return l
}

// add folds another round's phase into p.
func (p *phase) add(o phase) {
	p.open.merge(o.open)
	p.closed.merge(o.closed)
	p.cycles = append(p.cycles, o.cycles...)
	p.openWall += o.openWall
	p.closedWall += o.closedWall
}

// capacity is the closed loops' completions per second over every round.
func (p phase) capacity() float64 {
	return per(float64(p.closed.succeeded()), p.closedWall.Seconds())
}

// measure runs d as cycles of an open loop for the open share of a cycle,
// then a closed loop for the rest, on a stream seeded by k.
func (rn *runner) measure(ctx context.Context, k int64, d time.Duration, do doFunc, onSend func()) phase {
	gen := newStreamGen(rn.subSeed(k), rn.cfg.Mix, rn.pop, rn.cfg.Skew)
	cycle := d / time.Duration(max(1, rn.cfg.Cycles))
	openD := time.Duration(float64(cycle) * rn.cfg.OpenShare)
	p := newPhase()
	for c := 0; c < max(1, rn.cfg.Cycles); c++ {
		t := time.Now()
		open := openLoop(ctx, gen.schedule(rn.cfg.Rate, openD), rn.cfg.MaxInFlight, do, onSend)
		openWall := time.Since(t)
		closed, closedWall := closedLoop(ctx, runtime.GOMAXPROCS(0), cycle-openD, gen.next, do, onSend)
		p.add(phase{open: open, closed: closed, openWall: openWall, closedWall: closedWall,
			cycles: []cycleStat{{
				SearchP50: latency(open, classSearch, 0.5),
				IngestP50: latency(open, classIngest, 0.5),
				Capacity:  per(float64(closed.succeeded()), closedWall.Seconds()),
			}}})
	}
	return p
}

// warm fills caches and finishes lazy set-up before anything is timed:
// every hot query once, or a sample of cold ones, on every serving node.
func (rn *runner) warm(ctx context.Context) error {
	targets := []reader{rn.d.read}
	if rn.d.follower != nil {
		targets = []reader{rn.d.cluster, rn.d.follower}
	}
	var reqs []request
	if rn.pop.skewed {
		for i := range rn.pop.forms {
			reqs = append(reqs, request{Class: classSearch, Form: i})
		}
		for i := range rn.pop.keywords {
			reqs = append(reqs, request{Class: classKeyword, Word: i})
		}
	} else {
		gen := newStreamGen(rn.subSeed(99), mix{Search: rn.cfg.Mix.Search, Keyword: rn.cfg.Mix.Keyword}, rn.pop, rn.cfg.Skew)
		for i := 0; i < rn.cfg.Warmup; i++ {
			reqs = append(reqs, gen.next())
		}
	}
	for _, t := range targets {
		for _, r := range reqs {
			user := rn.pop.users[r.User]
			if r.Class == classKeyword {
				t.KeywordSearchCtx(ctx, rn.pop.keywords[r.Word], 20)
			} else if _, err := t.SearchCtx(ctx, user, rn.pop.forms[r.Form]); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// ingestProbe runs n serial ingests on a read workload, on a stream seeded
// by k, and adds them to t.
func (rn *runner) ingestProbe(ctx context.Context, k int64, n int, t *tally) {
	gen := newStreamGen(rn.subSeed(k), mix{Ingest: 1}, rn.pop, rn.cfg.Skew)
	l := &ledger{}
	w0 := rn.mark()
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		r := gen.next()
		l.sent(r.Class, -1)
		t0 := time.Now()
		refused, err := rn.exec(ctx, r)
		lat := time.Since(t0)
		l.finish(r.Class, lat, lat, refused, err)
	}
	t.probeWall += time.Since(start)
	t.iw.add(moved(w0, rn.mark()), 1)
	t.probe.merge(l)
	t.probeP50 = append(t.probeP50, latency(l, classIngest, 0.5))
}

// window holds the registry, runtime and journal counters at one moment,
// or what they moved by over a stretch of the run.
type window struct {
	all, primary regSnap
	rt           rtSnap
	wal          walTotals
	docs         int // documents acknowledged
}

func (rn *runner) mark() window {
	rn.ackMu.Lock()
	docs := len(rn.acked)
	rn.ackMu.Unlock()
	return window{
		all:     snapshot(rn.d.regs()...),
		primary: snapshot(rn.d.primaryReg),
		rt:      readRuntime(),
		wal:     rn.d.wal.totals(),
		docs:    docs,
	}
}

// add adds k times o to w, counter by counter; with k = -1 it subtracts.
// The live heap is a level, not a counter, and is left as it is.
func (w *window) add(o window, k int) {
	f := float64(k)
	w.all = w.all.add(o.all, f)
	w.primary = w.primary.add(o.primary, f)
	w.rt.gcCPU += f * o.rt.gcCPU
	w.rt.totalCPU += f * o.rt.totalCPU
	w.rt.allocBytes += f * o.rt.allocBytes
	w.wal.Syncs += k * o.wal.Syncs
	w.wal.SyncT += time.Duration(k) * o.wal.SyncT
	w.wal.WriteT += time.Duration(k) * o.wal.WriteT
	w.wal.Bytes += int64(k) * o.wal.Bytes
	w.docs += k * o.docs
}

// moved returns what the counters moved by from w0 to w1.
func moved(w0, w1 window) window {
	var d window
	d.add(w1, 1)
	d.add(w0, -1)
	return d
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tally accumulates a run's rounds.
type tally struct {
	setups   []setupTiming
	heapMB   float64 // live heap after the first set-up and a forced GC
	setupReg regSnap // primary registries right after each set-up, summed
	info     corpusInfo

	untraced, traced phase
	probe            *ledger // read workloads: the ingest probes
	probeWall        time.Duration
	probeP50         []float64 // per half of a round's probe

	tw, iw        window  // counter moves over the traced phases and over the ingest probes
	liveMB        float64 // live heap at the end of the last traced phase
	invalidations int     // cache generation changes in the traced phases
	lagMax        float64 // worst replica lag seen in the traced phases
	visLat        []float64

	gates []string
}

func run(ctx context.Context, cfg *config) (*outcome, error) {
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("a run needs at least one round")
	}
	out := &outcome{Build: runtimetel.NewReportHeader(), Config: cfg, Phases: map[string]phaseCounts{}}
	rn := &runner{cfg: cfg, users: buildUsers(cfg.Sizes.Users), cursor: map[string]int{}}
	if cfg.Trace {
		rn.tracer = trace.New(trace.Options{})
		rn.spans = newSpanBook()
	}
	t := &tally{untraced: newPhase(), traced: newPhase(), probe: &ledger{}}
	for i := 0; i < cfg.Rounds; i++ {
		if err := rn.round(ctx, int64(i), t); err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
	}
	out.Setups, out.Corpus = t.setups, t.info
	var probeL *ledger
	if cfg.IngestProbe > 0 {
		probeL = t.probe
		pc := counts(probeL, t.probeWall)
		pc.ProbeP50 = t.probeP50
		out.Phases["ingest_probe"] = pc
	}

	// Accounting.
	all := t.untraced.all()
	out.Phases["open"] = counts(t.untraced.open, t.untraced.openWall)
	out.Phases["closed"] = withCycles(counts(t.untraced.closed, t.untraced.closedWall), t.untraced.cycles)
	if cfg.Trace {
		out.Phases["traced_open"] = counts(t.traced.open, t.traced.openWall)
		out.Phases["traced_closed"] = withCycles(counts(t.traced.closed, t.traced.closedWall), t.traced.cycles)
		all.merge(t.traced.all())
	}
	if probeL != nil {
		all.merge(probeL)
	}
	out.Attempted, out.Failed = all.attempted(), all.failures()
	if all.firstErr != nil {
		out.FirstErr = all.firstErr.Error()
	}
	if out.Attempted == 0 {
		return nil, fmt.Errorf("no requests were attempted")
	}
	out.Gates = t.gates
	out.Correct = len(t.gates) == 0

	out.EndToEnd = endToEnd(t.setups, t.heapMB, t.untraced, probeL)
	if cfg.Trace {
		ingest, iw := t.traced.all(), t.tw
		if probeL != nil {
			ingest, iw = probeL, t.iw
		}
		out.PerLayer = perLayer(layerInputs{
			setups: t.setups, setupReg: t.setupReg,
			spans: rn.spans, read: t.traced, tw: t.tw, liveMB: t.liveMB,
			ingest: ingest, iw: iw,
			invalidations: t.invalidations, lagMax: t.lagMax, visLat: t.visLat,
			untraced: t.untraced, probe: probeL,
			untracedE2E: out.EndToEnd, tracedE2E: endToEnd(t.setups, t.heapMB, t.traced, probeL),
		})
	}
	return out, nil
}

// round sets up a fresh deployment, measures round i's share of the run on
// it, checks the gates and tears it down.
func (rn *runner) round(ctx context.Context, i int64, t *tally) (err error) {
	cfg := rn.cfg
	runtime.GC()
	d, err := setup(cfg, rn.users)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		rn.d, rn.acked = nil, nil // let the next round's set-up start from an empty heap
		if cerr := d.close(); cerr != nil && err == nil {
			err = fmt.Errorf("tear down: %w", cerr)
		}
	}()
	t.setups = append(t.setups, d.timing)
	t.setupReg = t.setupReg.add(snapshot(d.primaryReg), 1)
	// The corpus is the same in every round: the first one fixes the query
	// populations.
	first := rn.pop == nil
	var in popInputs
	if first {
		if in, t.info, err = readPopInputs(d); err != nil {
			return err
		}
	}
	d.corpus = nil
	runtime.GC() // every round starts from the same heap: set-up's garbage collected
	if first {
		// The system's heap is read once, before the benchmark builds the
		// populations it keeps for the whole run.
		t.heapMB = float64(readRuntime().liveBytes) / 1e6
		rn.pop = buildPopulation(populationSeed, cfg.Sizes, cfg.Skewed, rn.users, in.truth, in.vocab, in.ingestDeals)
	}
	rn.d, rn.acked = d, nil

	// Read workloads run half of the round's ingest probe now, before the
	// warm-up and the read probes, and half after the load, so the probe
	// samples the host at two moments of each round.
	// Stream seeds: 10i+1 untraced, 10i+2 traced, 10i+6 and 10i+7 ingest probe.
	if cfg.IngestProbe > 0 {
		rn.ingestProbe(ctx, 10*i+6, cfg.IngestProbe/2, t)
	}
	if err := rn.warm(ctx); err != nil {
		return err
	}
	gate := func(msg string) { t.gates = append(t.gates, fmt.Sprintf("round %d: %s", i+1, msg)) }
	var before probeAnswers
	if d.follower == nil {
		if before, err = rn.probe(ctx, d.read); err != nil {
			return err
		}
	}

	share := time.Duration(cfg.Seconds * float64(time.Second) / float64(cfg.Rounds))
	if !cfg.Trace {
		t.untraced.add(rn.measure(ctx, 10*i+1, share, rn.exec, nil))
	} else {
		t.untraced.add(rn.measure(ctx, 10*i+1, share/2, rn.exec, nil))
		gens := &genSampler{read: d.generations}
		gens.prev = d.generations(nil)
		if d.follower != nil {
			fs := d.follower.Followers()
			lagGauges := make([]func() float64, len(fs))
			for k, f := range fs {
				lagGauges[k] = d.followerReg.Gauge("eil_repl_lag_records", "follower", f.Name()).Value
			}
			gens.lag = func() float64 {
				worst := 0.0
				for _, g := range lagGauges {
					worst = max(worst, g())
				}
				return worst
			}
			rn.vis = startVisPoller(func(shard int) uint64 {
				_, seq := fs[shard].Position()
				return seq
			}, 200*time.Microsecond)
		}
		w0 := rn.mark()
		t.traced.add(rn.measure(ctx, 10*i+2, share/2, rn.execTraced, gens.sample))
		w1 := rn.mark()
		t.tw.add(moved(w0, w1), 1)
		t.liveMB = w1.rt.liveBytes / 1e6
		t.invalidations += gens.changes
		t.lagMax = max(t.lagMax, gens.lagMax)
		if rn.vis != nil {
			vctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			lat, unseen := rn.vis.close(vctx)
			cancel()
			rn.vis = nil
			t.visLat = append(t.visLat, lat...)
			if unseen > 0 {
				gate(fmt.Sprintf("%d acknowledged writes never became visible on the follower", unseen))
			}
		}
	}

	// Gates.
	if d.follower == nil {
		after, err := rn.probe(ctx, d.read)
		if err != nil {
			return err
		}
		if err := sameAnswers(before, after); err != nil {
			gate("read probes changed across the load phase: " + err.Error())
		}
	} else if err := rn.checkFollower(ctx); err != nil {
		gate(err.Error())
	}
	if cfg.IngestProbe > 0 {
		rn.ingestProbe(ctx, 10*i+7, cfg.IngestProbe-cfg.IngestProbe/2, t)
	}
	if err := rn.checkAcked(); err != nil {
		gate(err.Error())
	}
	return nil
}

// popInputs is what the query populations are drawn from.
type popInputs struct {
	truth       []*synth.DealTruth
	vocab       []string
	ingestDeals []string // deals with held-back documents
}

// readPopInputs reads the population inputs from a freshly set-up
// deployment's corpus and reports the corpus and cache sizes.
func readPopInputs(d *deployment) (popInputs, corpusInfo, error) {
	info := corpusInfo{SIAPIHitCache: 512, SynopsisMemo: 256}
	truth := make([]*synth.DealTruth, len(d.corpus.DealIDs))
	for i, id := range d.corpus.DealIDs {
		truth[i] = d.corpus.Truth[id]
	}
	vocab := corpusVocabulary(d.corpus.Docs, max(2, len(d.corpus.Docs)/2000))
	if len(vocab) < 10 {
		return popInputs{}, info, fmt.Errorf("corpus vocabulary has only %d words", len(vocab))
	}
	var ingestDeals []string
	for deal, docs := range d.pool {
		if len(docs) > 0 {
			ingestDeals = append(ingestDeals, deal)
		}
		info.PoolDocs += len(docs)
	}
	sort.Strings(ingestDeals)
	if len(ingestDeals) == 0 {
		return popInputs{}, info, fmt.Errorf("no documents held back for ingest")
	}
	info.SetupDocs, info.Deals, info.Vocabulary = d.timing.Docs, len(truth), len(vocab)
	return popInputs{truth, vocab, ingestDeals}, info, nil
}

// endToEnd computes the end-to-end metrics: the median latency of a form
// search and of an ingest from the scheduled send time (ingest on read
// workloads: from the ingest probe), capacity over every closed loop, and
// the success share over every attempt.
func endToEnd(setups []setupTiming, heapMB float64, p phase, probe *ledger) []metric {
	var setupS, bulk []float64
	for _, s := range setups {
		setupS = append(setupS, s.Total.Seconds())
		bulk = append(bulk, float64(s.Docs)/s.Ingest.Seconds())
	}
	all := p.all()
	if probe != nil {
		all.merge(probe)
	}
	return []metric{
		{"setup_s", median(setupS), "s"},
		{"bulk_ingest_docs_s", median(bulk), "docs/s"},
		{"heap_mb", heapMB, "MB"},
		{"search_p50_ms", latency(p.open, classSearch, 0.50), "ms"},
		{"ingest_p50_ms", latency(ingestLedger(p, probe), classIngest, 0.50), "ms"},
		{"capacity_ops_s", p.capacity(), "1/s"},
		{"ok_share", per(float64(all.succeeded()), float64(all.attempted())), "ratio"},
	}
}

// latency is the q-quantile of class c's latencies in ms (0 without any).
func latency(l *ledger, c opClass, q float64) float64 { return zeroNaN(quantile(l.cls[c].lat, q)) }

// ingestLedger is where a phase's ingest latencies come from: the ingest
// probe on read workloads, the open loop otherwise.
func ingestLedger(p phase, probe *ledger) *ledger {
	if probe != nil {
		return probe
	}
	return p.open
}

// layerInputs gathers what the per-layer metrics are computed from.
type layerInputs struct {
	setups   []setupTiming
	setupReg regSnap // primary registries right after each set-up, summed

	spans  *spanBook
	read   phase   // the traced phases
	tw     window  // counter moves over the traced phases
	liveMB float64 // live heap at the end of the last traced phase

	ingest *ledger // the traced ingests (write_mix) or the ingest probes
	iw     window  // counter moves over those ingests

	invalidations int
	lagMax        float64
	visLat        []float64

	untraced phase   // the untraced halves, for the unbounded tail latencies
	probe    *ledger // the ingest probes of a read workload

	untracedE2E, tracedE2E []metric
}

// perLayer computes the per-layer metrics of a traced run. Span times are
// per traced request of the classes that reach the layer.
func perLayer(in layerInputs) []metric {
	sp := in.spans
	searches := float64(sp.ops[classSearch])
	reads := searches + float64(sp.ops[classKeyword])
	spanMS := func(name string, self bool, n float64) float64 {
		a := sp.get(name)
		if self {
			return per(a.Self*1000, n)
		}
		return per(a.Total*1000, n)
	}
	siapiSelf := 0.0
	sp.mu.Lock()
	for name, a := range sp.byName {
		if name == "search.siapi" || strings.HasPrefix(name, "siapi.") {
			siapiSelf += a.Self
		}
	}
	sp.mu.Unlock()

	d := func(key string) float64 { return in.tw.all[key] }
	ingests := float64(in.ingest.cls[classIngest].Succeeded)
	wal := in.iw.wal
	segBuild := in.iw.primary["ingest_segment_build_seconds.sum"]
	segMerge := in.iw.primary["ingest_segment_merge_seconds.sum"]
	svc := in.ingest.cls[classIngest].svc.Seconds()
	other := svc - wal.SyncT.Seconds() - wal.WriteT.Seconds() - segBuild - segMerge

	var gen, bulk, follow []float64
	for _, s := range in.setups {
		gen = append(gen, s.Generate.Seconds())
		bulk = append(bulk, s.Ingest.Seconds())
		follow = append(follow, s.FollowerSync.Seconds())
	}
	setupDocs := in.setupReg["ingest_docs_total"]

	ops := float64(in.read.all().attempted())
	wall := in.read.wall().Seconds()
	rt := in.tw.rt
	routerReads := d("eil_repl_router_reads_total")

	out := []metric{
		{"core.compose_ms", spanMS("search.compose", true, searches), "ms"},
		{"core.combine_ms", spanMS("search.combine", true, searches), "ms"},
		{"shard.scatter_ms", spanMS("search.siapi.shard", false, searches), "ms"},
		{"shard.stats_hit_ratio", ratio(d("shard_stats_cache_hits_total"), d("shard_stats_cache_misses_total")), "ratio"},
		{"access.filter_ms", spanMS("search.access", false, searches), "ms"},
		{"siapi.search_ms", per(siapiSelf*1000, reads), "ms"},
		{"siapi.cache_hit_ratio", ratio(d("search_cache_hits_total"), d("search_cache_misses_total")), "ratio"},
		{"index.search_ms", spanMS("index.search", false, reads), "ms"},
		{"index.segment_build_ms", per(segBuild*1000, ingests), "ms"},
		{"index.segment_merge_ms", per(segMerge*1000, ingests), "ms"},
		{"synopsis.query_ms", spanMS("search.synopsis", false, searches), "ms"},
		{"synopsis.memo_hit_ratio", ratio(d("synopsis_cache_hits_total"), d("synopsis_cache_misses_total")), "ratio"},
		{"durable.fsync_ms", per(ms(wal.SyncT), float64(wal.Syncs)), "ms"},
		{"durable.fsyncs_per_ingest", per(float64(wal.Syncs), ingests), "count"},
		{"durable.bytes_per_doc", per(float64(wal.Bytes), float64(in.iw.docs)), "B"},
		{"repl.visible_ms_p50", zeroNaN(quantile(in.visLat, 0.50)), "ms"},
		{"repl.visible_ms_p99", zeroNaN(quantile(in.visLat, 0.99)), "ms"},
		{"repl.lag_records_max", in.lagMax, "count"},
		{"router.follower_read_share", per(d("eil_repl_router_reads_total@follower"), routerReads), "ratio"},
		{"router.stale_skips", d("eil_repl_router_stale_skips_total"), "count"},
		{"ingest.pipeline_ms_per_doc", per(in.setupReg["ingest_pipeline_seconds.sum"]*1000, setupDocs), "ms"},
		{"ingest.annotator_ms_per_doc", per(in.setupReg["ingest_annotator_seconds.sum"]*1000, setupDocs), "ms"},
		{"ingest.other_ms", per(other*1000, ingests), "ms"},
		{"cache.invalidations_per_s", per(float64(in.invalidations), wall), "1/s"},
		{"rt.gc_cpu_share", per(rt.gcCPU, rt.totalCPU), "ratio"},
		{"rt.alloc_mb_per_kop", per(rt.allocBytes/1e6, ops/1000), "MB"},
		{"rt.heap_live_mb", in.liveMB, "MB"},
		{"setup.generate_s", median(gen), "s"},
		{"setup.ingest_s", median(bulk), "s"},
		{"setup.follower_sync_s", median(follow), "s"},
		{"gen.late_ms_p99", zeroNaN(quantile(in.untraced.open.late, 0.99)), "ms"},
		{"failed_share", per(float64(in.read.all().failures()), ops), "ratio"},
	}
	// Latencies the end-to-end set leaves out, from the untraced halves.
	open, ingest := in.untraced.open, ingestLedger(in.untraced, in.probe)
	out = append(out,
		metric{"lat.search_p90_ms", latency(open, classSearch, 0.90), "ms"},
		metric{"lat.search_p99_ms", latency(open, classSearch, 0.99), "ms"},
		metric{"lat.keyword_p50_ms", latency(open, classKeyword, 0.50), "ms"},
		metric{"lat.keyword_p90_ms", latency(open, classKeyword, 0.90), "ms"},
		metric{"lat.keyword_p99_ms", latency(open, classKeyword, 0.99), "ms"},
		metric{"lat.ingest_p90_ms", latency(ingest, classIngest, 0.90), "ms"},
		metric{"lat.ingest_p95_ms", latency(ingest, classIngest, 0.95), "ms"},
	)
	for i, u := range in.untracedE2E {
		t := in.tracedE2E[i]
		switch u.Name {
		case "setup_s", "bulk_ingest_docs_s", "heap_mb":
			continue // set-up is never traced
		}
		out = append(out, metric{"overhead." + u.Name, zeroNaN(t.Value - u.Value), u.Unit})
	}
	return out
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
