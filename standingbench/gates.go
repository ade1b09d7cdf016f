package main

// Correctness gates: the run is only valid if the system answered
// correctly while it was being measured.

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/siapi"
)

// probeAnswers is a reader's answers to the fixed probe set.
type probeAnswers struct {
	forms    []core.Result
	keywords [][]siapi.DocHit
}

// probe asks r every probe form and keyword query as the population's
// first user.
func (rn *runner) probe(ctx context.Context, r reader) (probeAnswers, error) {
	var a probeAnswers
	user := rn.pop.users[0]
	n := min(rn.cfg.Probes, len(rn.pop.forms))
	for _, q := range rn.pop.forms[:n] {
		res, err := r.SearchCtx(ctx, user, q)
		if err != nil {
			return a, fmt.Errorf("probe %+v: %w", q, err)
		}
		a.forms = append(a.forms, res)
	}
	for _, kw := range rn.pop.keywords[:min(rn.cfg.Probes, len(rn.pop.keywords))] {
		a.keywords = append(a.keywords, r.KeywordSearchCtx(ctx, kw, 20))
	}
	return a, nil
}

// sameAnswers reports the first probe whose answers differ, float-exactly.
func sameAnswers(a, b probeAnswers) error {
	if len(a.forms) != len(b.forms) || len(a.keywords) != len(b.keywords) {
		return fmt.Errorf("probe sets differ in size")
	}
	for i := range a.forms {
		if !reflect.DeepEqual(a.forms[i], b.forms[i]) {
			return fmt.Errorf("form probe %d answered differently", i)
		}
	}
	for i := range a.keywords {
		if !reflect.DeepEqual(a.keywords[i], b.keywords[i]) {
			return fmt.Errorf("keyword probe %d answered differently", i)
		}
	}
	return nil
}

// checkAcked verifies that every acknowledged document is indexed on the
// primary.
func (rn *runner) checkAcked() error {
	rn.ackMu.Lock()
	defer rn.ackMu.Unlock()
	for _, a := range rn.acked {
		if !rn.d.lookup(a.deal, a.path) {
			return fmt.Errorf("acknowledged document %s missing on the primary", a.path)
		}
	}
	return nil
}

// checkFollower waits until every follower shard has applied the primary's
// last record, then requires the follower to answer the probe set exactly
// as the primary does.
func (rn *runner) checkFollower(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for i, s := range rn.d.cluster.Shards {
		f := rn.d.follower.Followers()[i]
		for {
			_, want := s.ReplPosition()
			if _, got := f.Position(); got >= want {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("follower shard %d did not catch up: %w", i, ctx.Err())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := rn.d.follower.WaitSynced(ctx, 0); err != nil {
		return fmt.Errorf("follower sync: %w", err)
	}
	prim, err := rn.probe(ctx, rn.d.cluster)
	if err != nil {
		return err
	}
	foll, err := rn.probe(ctx, rn.d.follower)
	if err != nil {
		return err
	}
	if err := sameAnswers(prim, foll); err != nil {
		return fmt.Errorf("follower vs primary: %w", err)
	}
	return nil
}
