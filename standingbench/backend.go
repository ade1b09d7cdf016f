package main

// Building each workload's system under test, and the journal timing
// wrapper the traced run installs through each shard's WALFS field.

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/siapi"
	"repro/internal/synth"
)

// reader is the read surface System, Cluster, ClusterFollower and
// router.Router share.
type reader interface {
	SearchCtx(ctx context.Context, user access.User, q core.FormQuery) (core.Result, error)
	KeywordSearchCtx(ctx context.Context, query string, limit int) []siapi.DocHit
}

// writer is the mutation surface System and Cluster share.
type writer interface {
	AddDocuments(docs []*docmodel.Document) error
}

// setupTiming splits one set-up into its stages.
type setupTiming struct {
	Generate     time.Duration
	Ingest       time.Duration
	FollowerSync time.Duration
	Total        time.Duration
	Docs         int
}

// deployment is one workload's system under test.
type deployment struct {
	read  reader // where reads go
	write writer // where writes go (the primary)

	sys      *eil.System // read workloads
	cluster  *eil.Cluster
	follower *eil.ClusterFollower
	router   *router.Router
	shipper  *repl.Shipper
	wal      *timingFS // non-nil when the journal is timed

	primaryReg  *obs.Registry
	followerReg *obs.Registry // nil without a follower
	routerReg   *obs.Registry // nil without a router

	pool   map[string][]*docmodel.Document // held-back documents per deal
	corpus *synth.Corpus
	dir    string
	timing setupTiming
}

// regs lists every registry the deployment records into.
func (d *deployment) regs() []*obs.Registry {
	out := []*obs.Registry{d.primaryReg}
	for _, r := range []*obs.Registry{d.followerReg, d.routerReg} {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// primaries lists the primary's systems (one, or one per shard).
func (d *deployment) primaries() []*eil.System {
	if d.sys != nil {
		return []*eil.System{d.sys}
	}
	return d.cluster.Shards
}

// lookup reports whether the primary has indexed path.
func (d *deployment) lookup(dealID, path string) bool {
	ps := d.primaries()
	_, ok := ps[core.ShardForDoc(dealID, path, len(ps))].Index.Lookup(path)
	return ok
}

// generations reads the index and synopsis generation counters of every
// system serving reads (primary, then follower shards). Each change is one
// invalidation of the caches keyed on it.
func (d *deployment) generations(dst []uint64) []uint64 {
	dst = dst[:0]
	add := func(s *eil.System) {
		dst = append(dst, s.LiveSIAPI().Generation(), s.Synopses.Generation())
	}
	for _, s := range d.primaries() {
		add(s)
	}
	if d.follower != nil {
		for _, f := range d.follower.Followers() {
			if s := f.System(); s != nil {
				add(s)
			}
		}
	}
	return dst
}

func (d *deployment) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if d.follower != nil {
		keep(d.follower.Close())
	}
	if d.shipper != nil {
		keep(d.shipper.Close())
	}
	if d.cluster != nil {
		keep(d.cluster.CloseWAL())
	}
	if d.dir != "" {
		keep(os.RemoveAll(d.dir))
	}
	return first
}

// splitCorpus holds back every holdEvery-th email of each deal (the
// chatter that keeps arriving during an engagement) for the ingest pool
// and returns the rest for set-up.
func splitCorpus(docs []*docmodel.Document, holdEvery int) (setupDocs []*docmodel.Document, pool map[string][]*docmodel.Document) {
	pool = map[string][]*docmodel.Document{}
	emails := map[string]int{}
	for _, d := range docs {
		if d.Type == docmodel.TypeEmail && d.DealID != "" {
			emails[d.DealID]++
			if emails[d.DealID]%holdEvery == 0 {
				pool[d.DealID] = append(pool[d.DealID], d)
				continue
			}
		}
		setupDocs = append(setupDocs, d)
	}
	return setupDocs, pool
}

// setup builds the workload's system from scratch and times each stage.
func setup(cfg *config, users []access.User) (*deployment, error) {
	d := &deployment{primaryReg: obs.NewRegistry()}
	start := time.Now()
	corpus, err := synth.Generate(cfg.Corpus)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	d.timing.Generate = time.Since(start)
	d.corpus = corpus
	docs, pool := splitCorpus(corpus.Docs, cfg.HoldEvery)
	d.pool = pool
	d.timing.Docs = len(docs)
	opts := eil.Options{
		Directory: corpus.Directory,
		Access:    accessController(users, corpus.DealIDs),
		Metrics:   d.primaryReg,
	}

	t := time.Now()
	if cfg.Shards == 0 {
		d.sys, err = eil.Ingest(docs, opts)
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		d.timing.Ingest = time.Since(t)
		d.read, d.write = d.sys, d.sys
		d.timing.Total = time.Since(start)
		return d, nil
	}
	d.cluster, err = eil.IngestSharded(docs, cfg.Shards, opts)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	d.timing.Ingest = time.Since(t)
	d.write = d.cluster
	if err := d.serve(cfg, opts.Access); err != nil {
		_ = d.close()
		return nil, err
	}
	d.timing.Total = time.Since(start)
	return d, nil
}

// serve turns the freshly ingested cluster into the replicated serving
// shape: journal on, shipping to one follower over loopback, reads routed
// across both.
func (d *deployment) serve(cfg *config, ctl *access.Controller) error {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "standing-*")
	if err != nil {
		return err
	}
	d.dir = dir
	if cfg.Trace {
		d.wal = &timingFS{inner: durable.OS}
		for _, s := range d.cluster.Shards {
			s.WALFS = d.wal
		}
	}
	if err := d.cluster.EnableWAL(filepath.Join(dir, "primary"), cfg.SyncEvery); err != nil {
		return fmt.Errorf("enable wal: %w", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("replication listener: %w", err)
	}
	d.shipper, err = d.cluster.ServeReplication(lis, nil)
	if err != nil {
		lis.Close()
		return fmt.Errorf("serve replication: %w", err)
	}
	t := time.Now()
	d.followerReg = obs.NewRegistry()
	d.follower, err = eil.StartClusterFollower(cfg.Shards, eil.FollowerOptions{
		Dir:     filepath.Join(dir, "follower"),
		Addr:    lis.Addr().String(),
		Name:    "follower",
		Access:  ctl,
		Metrics: d.followerReg,
	})
	if err != nil {
		return fmt.Errorf("start follower: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := d.follower.WaitSynced(ctx, 0); err != nil {
		return fmt.Errorf("follower sync: %w", err)
	}
	d.timing.FollowerSync = time.Since(t)
	d.routerReg = obs.NewRegistry()
	d.router = router.New(d.cluster, d.cluster.RouterNode("primary"), []router.Node{d.follower}, router.Options{
		PrimaryReads: true,
		MaxLag:       cfg.RouterMaxLag,
		Metrics:      d.routerReg,
	})
	d.read = d.router
	return nil
}

// timingFS wraps the journal's filesystem and totals the time spent in
// file writes and fsyncs and the bytes written.
type timingFS struct {
	inner durable.FS

	mu     sync.Mutex
	syncs  int
	syncT  time.Duration
	writeT time.Duration
	bytes  int64
}

// walTotals is a snapshot of the wrapper's counters.
type walTotals struct {
	Syncs  int
	SyncT  time.Duration
	WriteT time.Duration
	Bytes  int64
}

func (t *timingFS) totals() walTotals {
	if t == nil {
		return walTotals{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return walTotals{t.syncs, t.syncT, t.writeT, t.bytes}
}

func (t *timingFS) wrap(f durable.File, err error) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timingFS) Create(name string) (durable.File, error) { return t.wrap(t.inner.Create(name)) }
func (t *timingFS) Open(name string) (durable.File, error)   { return t.inner.Open(name) }
func (t *timingFS) Append(name string) (durable.File, error) { return t.wrap(t.inner.Append(name)) }
func (t *timingFS) Truncate(name string, size int64) error   { return t.inner.Truncate(name, size) }
func (t *timingFS) Rename(oldpath, newpath string) error     { return t.inner.Rename(oldpath, newpath) }
func (t *timingFS) Remove(name string) error                 { return t.inner.Remove(name) }
func (t *timingFS) RemoveAll(path string) error              { return t.inner.RemoveAll(path) }
func (t *timingFS) MkdirAll(path string, perm os.FileMode) error {
	return t.inner.MkdirAll(path, perm)
}
func (t *timingFS) ReadDir(name string) ([]os.DirEntry, error) { return t.inner.ReadDir(name) }
func (t *timingFS) Stat(name string) (os.FileInfo, error)      { return t.inner.Stat(name) }

type timedFile struct {
	durable.File
	fs *timingFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	el := time.Since(t)
	f.fs.mu.Lock()
	f.fs.writeT += el
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	el := time.Since(t)
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.syncT += el
	f.fs.mu.Unlock()
	return err
}
