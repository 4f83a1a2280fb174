// Streaming source capabilities. The materialized Source interface ships a
// whole document (Fetch) or a whole pushed result (Push) in one piece;
// sources that additionally implement the interfaces below can deliver the
// same data as a sequence of bounded chunks, which is what lets the
// streaming evaluator in internal/exec keep peak memory independent of
// result size and surface first rows before the wrapper has finished.
package algebra

import (
	"context"
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/tab"
)

// ForestCursor is a pull iterator over a document's trees: Next returns the
// next non-empty batch of trees, io.EOF at the end, any other error is
// terminal. Close is idempotent and cancels the underlying transfer.
type ForestCursor interface {
	Next() (data.Forest, error)
	Close() error
}

// StreamSource is a source that can ship a bound document incrementally
// instead of as one forest. Sources without it fall back to FetchContext /
// Fetch (the evaluator chunks the materialized forest itself).
type StreamSource interface {
	Source
	// FetchStream opens a tree stream over doc. The cursor honours ctx:
	// cancelling it aborts the transfer.
	FetchStream(ctx context.Context, doc string) (ForestCursor, error)
}

// PushStreamSource is a source that can evaluate a pushed plan and return
// its rows incrementally. Sources without it fall back to PushContext /
// Push (one-shot result, chunked mediator-side).
type PushStreamSource interface {
	Source
	// PushStream evaluates plan under params at the source and streams the
	// result rows. The cursor honours ctx: cancelling it aborts the
	// evaluation and the transfer.
	PushStream(ctx context.Context, plan Op, params map[string]tab.Cell) (tab.Cursor, error)
}

// sliceForestCursor streams an already-materialized forest in batches.
type sliceForestCursor struct {
	f     data.Forest
	chunk int
	pos   int
}

// NewSliceForestCursor chunks a materialized forest (batch trees per Next,
// DefaultStreamChunk trees when batch < 1). It is the fallback adapter used
// when a source cannot stream natively.
func NewSliceForestCursor(f data.Forest, batch int) ForestCursor {
	if batch < 1 {
		batch = tab.DefaultStreamChunk
	}
	return &sliceForestCursor{f: f, chunk: batch}
}

func (c *sliceForestCursor) Next() (data.Forest, error) {
	if c.pos >= len(c.f) {
		return nil, io.EOF
	}
	end := c.pos + c.chunk
	if end > len(c.f) {
		end = len(c.f)
	}
	out := c.f[c.pos:end:end]
	c.pos = end
	return out, nil
}

func (c *sliceForestCursor) Close() error {
	c.pos = len(c.f)
	return nil
}

// funcForestCursor adapts closures to ForestCursor.
type funcForestCursor struct {
	next   func() (data.Forest, error)
	close  func() error
	closed bool
}

func (c *funcForestCursor) Next() (data.Forest, error) {
	if c.closed {
		return nil, io.EOF
	}
	return c.next()
}

func (c *funcForestCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.close != nil {
		return c.close()
	}
	return nil
}

// InputStream resolves a named document as a tree stream when the exporting
// source supports it. The second return is false when the document is
// catalog-resident, unknown, or exported by a source without FetchStream —
// callers then fall back to the materialized Input. Accounting matches
// Input: one SourceFetches per opened stream, BytesShipped and Store
// registration per tree as batches arrive, retry counters drained when the
// stream ends.
func (c *Context) InputStream(name string) (ForestCursor, bool, error) {
	if _, ok := c.Catalog[name]; ok {
		return nil, false, nil
	}
	for _, s := range c.Sources {
		for _, d := range s.Documents() {
			if d != name {
				continue
			}
			ss, ok := s.(StreamSource)
			if !ok {
				return nil, false, nil
			}
			cctx := c.Ctx
			if cctx == nil {
				cctx = context.Background()
			}
			fc, err := ss.FetchStream(cctx, name)
			drainRetryStats(c, s)
			if err != nil {
				return nil, false, err
			}
			c.Stats.SourceFetches++
			traceCounts(c, obs.Counts{Fetches: 1})
			src := s
			done := false
			fin := func() {
				if !done {
					done = true
					drainRetryStats(c, src)
				}
			}
			return &funcForestCursor{
				next: func() (data.Forest, error) {
					f, err := fc.Next()
					if err != nil {
						fin()
						return nil, err
					}
					for _, n := range f {
						c.Stats.BytesShipped += int64(n.Size()) * 16
						c.Store.Register(n)
					}
					return f, nil
				},
				close: func() error {
					fin()
					return fc.Close()
				},
			}, true, nil
		}
	}
	return nil, false, nil
}

// StreamDoc opens a streaming evaluation of a document Bind: trees arrive
// in batches through InputStream and are matched against the filter batch
// by batch, so neither the document nor the binding table need be whole in
// memory. Matching navigates references through the store, so a batch is
// held back while any reference seen so far points at a tree that has not
// arrived yet (an O₂ extent's root refers to objects shipped after it);
// held batches are matched, in order, once every such reference resolves
// or the document ends. Returns ok=false when b is not a document Bind or
// the document cannot stream; callers fall back to Load.
func (b *Bind) StreamDoc(ctx *Context) (tab.Cursor, bool, error) {
	if b.Doc == "" {
		return nil, false, nil
	}
	fc, ok, err := ctx.InputStream(b.Doc)
	if err != nil || !ok {
		return nil, ok, err
	}
	f := b.filter(ctx)
	var held data.Forest
	dangling := map[string]bool{} // reference targets not in the store yet
	match := func() *tab.Tab {
		t := f.MatchForest(ctx.Store, held)
		ctx.Stats.BindRows += t.Len()
		held = nil
		return t
	}
	// One tree can bind many rows (a single-rooted document binds them
	// all): Rechunk restores the bounded-chunk invariant downstream.
	return tab.Rechunk(&tab.FuncCursor{
		Columns: b.Columns(),
		NextFn: func() (*tab.Tab, error) {
			for {
				forest, err := fc.Next()
				if err == io.EOF && len(held) > 0 {
					// A reference unresolved at the end dangles in the
					// whole document too.
					return match(), nil
				}
				if err != nil {
					return nil, err
				}
				for id := range dangling {
					if ctx.Store.Lookup(id) != nil {
						delete(dangling, id)
					}
				}
				for _, n := range forest {
					n.Walk(func(m *data.Node) bool {
						if m.IsRef() && ctx.Store.Lookup(m.Ref) == nil {
							dangling[m.Ref] = true
						}
						return true
					})
				}
				held = append(held, forest...)
				if len(dangling) == 0 {
					return match(), nil
				}
			}
		},
		CloseFn: fc.Close,
	}, tab.DefaultStreamChunk), true, nil
}

// Stream opens a streaming evaluation of a pushed subplan when the
// connected source implements PushStreamSource. A result-cache hit is
// answered locally (chunked over the cached table); a miss streams from the
// source, and with a cache installed the chunks are collected as they pass
// and the whole result is cached at clean end of stream — never on error
// or abandon, so a partially consumed stream cannot poison the cache.
// Returns ok=false when the source cannot stream; callers fall back to
// Load. Accounting matches Load: one SourcePushes per opened stream,
// TuplesShipped/BytesShipped per chunk as it arrives, CheckWire applied to
// every chunk before it is released downstream.
func (q *SourceQuery) Stream(ctx *Context) (tab.Cursor, bool, error) {
	src, ok := ctx.Sources[q.Source]
	if !ok {
		return nil, false, fmt.Errorf("algebra: unknown source %q", q.Source)
	}
	ss, ok := src.(PushStreamSource)
	if !ok {
		return nil, false, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	var key string
	if ctx.Cache != nil {
		if p := q.Prepared(); p.Enc != "" {
			key = CacheKey(q.Source, p.Enc, ParamsKey(p.Vars, ctx.Params))
			if t, ok := ctx.Cache.Get(key); ok {
				ctx.Stats.CacheHits++
				traceCounts(ctx, obs.Counts{CacheHits: 1})
				traceAnnotate(ctx, "cache", "hit")
				return tab.NewSliceCursor(t, 0), true, nil
			}
			ctx.Stats.CacheMisses++
			traceCounts(ctx, obs.Counts{CacheMisses: 1})
		}
	}
	if sr, ok := src.(StateReporter); ok {
		traceAnnotate(ctx, "breaker", sr.SourceState())
	}
	cctx := ctx.Ctx
	if cctx == nil {
		cctx = context.Background()
	}
	cur, err := ss.PushStream(cctx, q.Plan, ctx.Params)
	drainRetryStats(ctx, src)
	if err != nil {
		return nil, false, fmt.Errorf("source %s: %w", q.Source, err)
	}
	ctx.Stats.SourcePushes++
	traceCounts(ctx, obs.Counts{Pushes: 1})
	done := false
	fin := func() {
		if !done {
			done = true
			drainRetryStats(ctx, src)
		}
	}
	var fill *tab.Tab // the result so far, cached at clean EOF
	if key != "" {
		fill = tab.New(cur.Cols()...)
	}
	return &tab.FuncCursor{
		Columns: cur.Cols(),
		NextFn: func() (*tab.Tab, error) {
			t, err := cur.Next()
			if err != nil {
				fin()
				if err != io.EOF {
					return nil, fmt.Errorf("source %s: %w", q.Source, err)
				}
				if fill != nil {
					if ctx.Cache.Put(key, fill) {
						ctx.Stats.CacheEvictions++
					}
					fill = nil
				}
				return nil, err
			}
			countShipped(ctx, t)
			if ctx.CheckWire != nil {
				// Validate each chunk the moment it arrives, mirroring the
				// before-return check of the one-shot path.
				if cerr := ctx.CheckWire(q, t); cerr != nil {
					fill = nil
					cur.Close()
					return nil, cerr
				}
			}
			if fill != nil {
				fill.Rows = append(fill.Rows, t.Rows...)
			}
			return t, nil
		},
		CloseFn: func() error {
			fill = nil
			fin()
			return cur.Close()
		},
	}, true, nil
}
