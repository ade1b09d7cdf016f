package core

// Synopsis query memoization. Form queries repeat heavily (the search form
// offers a finite vocabulary of towers, industries, and consultants), while
// the synopsis store only changes when a deal is re-analyzed — so the core
// engine memoizes synopsis search results in one LRU per shard, keyed on a
// canonical query encoding plus that shard's store generation counter.
// Writers invalidate by bumping the counter; they never touch the cache.

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/lru"
	"repro/internal/synopsis"
)

// synopsisMemoSize bounds the memo; the form vocabulary is small, so a
// few hundred entries covers the working set.
const synopsisMemoSize = 256

// shardSynopsisSearch is shard i's Synopses.Search behind that shard's
// epoch-invalidated memo; n is the shard count. The second result reports
// whether the memo served the hits (trace spans record it).
func (e *Engine) shardSynopsisSearch(ctx context.Context, i, n int, sb *ShardBackend, sq synopsis.Query) ([]synopsis.Hit, bool, error) {
	e.synShardOnce.Do(func() {
		e.synShardMemos = make([]*lru.Cache[string, []synopsis.Hit], n)
		for j := range e.synShardMemos {
			e.synShardMemos[j] = lru.New[string, []synopsis.Hit](synopsisMemoSize)
		}
	})
	memo := e.synShardMemos[i]
	key := synopsisKey(sq)
	epoch := sb.Synopses.Generation()
	if hits, ok := memo.Get(key, epoch); ok {
		e.Metrics.Counter("synopsis_cache_hits_total").Inc()
		return cloneSynHits(hits), true, nil
	}
	e.Metrics.Counter("synopsis_cache_misses_total").Inc()
	hits, err := sb.Synopses.SearchCtx(ctx, sq)
	if err != nil {
		return nil, false, err
	}
	memo.Put(key, epoch, cloneSynHits(hits))
	return hits, false, nil
}

// synopsisKey encodes a synopsis query injectively (length-prefixed parts).
func synopsisKey(sq synopsis.Query) string {
	var b strings.Builder
	write := func(v string) {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	write(sq.Tower)
	write(sq.SubTower)
	write(sq.Industry)
	write(sq.Consultant)
	write(sq.Geography)
	write(sq.Country)
	write(sq.PersonName)
	write(sq.PersonOrg)
	b.WriteString(strconv.Itoa(len(sq.RestrictTo)))
	for _, d := range sq.RestrictTo {
		b.WriteByte(':')
		write(d)
	}
	return b.String()
}

// cloneSynHits deep-copies a hit list (MatchedTowers included) so cached
// entries stay isolated from caller mutation.
func cloneSynHits(hits []synopsis.Hit) []synopsis.Hit {
	if hits == nil {
		return nil
	}
	out := make([]synopsis.Hit, len(hits))
	copy(out, hits)
	for i := range out {
		if out[i].MatchedTowers != nil {
			out[i].MatchedTowers = append([]string(nil), out[i].MatchedTowers...)
		}
	}
	return out
}
