// Streaming (chunked-batch pull) evaluation: the engine's one evaluator.
// Engine.Stream returns a tab.Cursor: operators pull chunks of about
// tab.DefaultStreamChunk rows from their inputs, transform them and hand
// them on, so peak memory is bounded by chunk size × pipeline depth rather
// than by result size, and the first rows surface before the sources have
// finished answering.
//
// Every operator either pipelines — Bind, Select, Project, Map, Distinct,
// a keyed star-free Tree, the probe side of a Join, DJoin outer bites and a
// Union's branches, each in input order — or drains its streamed input and
// calls its kernel once: Group, Sort, Intersect, the Join build side,
// per-row DJoin and a grouping Tree. Leaves without a streaming protocol
// (a whole Doc, a parameter Bind, a source without PushStream/FetchStream)
// load in one piece and are served in chunks.
//
// Row fidelity: the rows, their order and their chunking are the same at
// every Parallelism. Push accounting is per DJoin bite (one outer chunk):
// binding sets are deduplicated within a bite, so a set recurring in a
// later bite costs another push unless the shared result cache absorbs it.
package exec

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/algebra"
	"repro/internal/obs"
	"repro/internal/tab"
)

// Stream evaluates a plan as a chunk stream. The cursor must be drained or
// closed: Close cancels the query context, which aborts in-flight source
// I/O (client-abandon propagates to wrappers). Under AllowPartial a
// mid-stream source failure ends the stream instead of erroring — the rows
// already delivered stand, and the failure is recorded in actx.Partial.
func (e *Engine) Stream(ctx context.Context, plan algebra.Op, actx *algebra.Context) (tab.Cursor, error) {
	var cancel context.CancelFunc
	if e.opts.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	ectx := actx.WithContext(ctx)
	if e.opts.BatchChunk > 0 {
		ectx.BatchChunk = e.opts.BatchChunk
	}
	if e.opts.PerRowDJoin {
		ectx.PerRowDJoin = true
	}
	if e.opts.AllowPartial && ectx.Partial == nil {
		// The caller usually pre-attaches a report (to read it back after
		// the run); degrade into a private one otherwise.
		ectx.Partial = algebra.NewPartialReport()
	}
	cur, err := e.stream(plan, ectx)
	if err != nil {
		cancel()
		if e.degrade(ectx, err) {
			// The whole plan roots in unreachable sources: the rows
			// derivable from live sources are exactly none.
			return tab.NewSliceCursor(tab.New(plan.Columns()...), 0), nil
		}
		return nil, err
	}
	return &rootCursor{e: e, ectx: ectx, cur: cur, cancel: cancel}, nil
}

// rootCursor is the top of a streamed evaluation: it owns the query
// context (cancelled at end-of-stream, on error, and on Close) and applies
// root-level graceful degradation.
type rootCursor struct {
	e      *Engine
	ectx   *algebra.Context
	cur    tab.Cursor
	cancel context.CancelFunc
	done   bool
}

func (c *rootCursor) Cols() []string { return c.cur.Cols() }

func (c *rootCursor) Next() (*tab.Tab, error) {
	if c.done {
		return nil, io.EOF
	}
	t, err := c.cur.Next()
	if err == nil {
		return t, nil
	}
	c.done = true
	c.cur.Close()
	c.cancel()
	if err != io.EOF && c.e.degrade(c.ectx, err) {
		// The rows already streamed stand; the failed source is on record.
		err = io.EOF
	}
	return nil, err
}

func (c *rootCursor) Close() error {
	if c.done {
		return nil
	}
	c.done = true
	err := c.cur.Close()
	c.cancel()
	return err
}

// stream opens a cursor over one plan node, wrapping it in a span when
// tracing: the span finishes when the cursor ends, carries the produced row
// count, and records the instant the first chunk left the operator — the
// per-operator time-to-first-row shown by EXPLAIN ANALYZE. The span is
// threaded through actx.Ctx too, so the wire client tags outgoing frames
// with the trace id.
func (e *Engine) stream(op algebra.Op, actx *algebra.Context) (tab.Cursor, error) {
	if err := actx.Err(); err != nil {
		return nil, err
	}
	if actx.Trace == nil {
		return e.streamNode(op, actx)
	}
	if _, ok := op.(*algebra.Literal); ok {
		return e.streamNode(op, actx)
	}
	sp := actx.Trace.NewChild(algebra.OpKind(op), op.Detail())
	cc := *actx
	cc.Trace = sp
	cc.Ctx = obs.WithSpan(actx.Ctx, sp)
	cur, err := e.streamNode(op, &cc)
	if err != nil {
		sp.Finish(-1, err)
		return nil, err
	}
	return &spanCursor{cur: cur, sp: sp}, nil
}

// spanCursor ties a span's lifetime to a cursor's: rows are counted as they
// pass, the first non-empty chunk stamps the first-row time, and the span
// finishes when the stream ends (or is abandoned).
type spanCursor struct {
	cur  tab.Cursor
	sp   *obs.Span
	rows int
	fin  bool
}

func (c *spanCursor) Cols() []string { return c.cur.Cols() }

func (c *spanCursor) finish(err error) {
	if c.fin {
		return
	}
	c.fin = true
	c.sp.Finish(c.rows, err)
}

func (c *spanCursor) Next() (*tab.Tab, error) {
	t, err := c.cur.Next()
	if err != nil {
		if err == io.EOF {
			c.finish(nil)
		} else {
			c.finish(err)
		}
		return nil, err
	}
	if t.Len() > 0 {
		c.sp.MarkFirstRow()
		c.rows += t.Len()
	}
	return t, nil
}

func (c *spanCursor) Close() error {
	err := c.cur.Close()
	c.finish(nil)
	return err
}

// drain evaluates op to one table: the input of a blocking operator.
func (e *Engine) drain(op algebra.Op, actx *algebra.Context) (*tab.Tab, error) {
	cur, err := e.stream(op, actx)
	if err != nil {
		return nil, err
	}
	return tab.Drain(cur)
}

// whole serves a table computed in one piece as chunks.
func whole(t *tab.Tab, err error) (tab.Cursor, error) {
	if err != nil {
		return nil, err
	}
	return tab.NewSliceCursor(t, 0), nil
}

// mapCursor streams in through a per-chunk transform (the 1:1 pipeline
// shape of Bind/Select/Project/Map/Tree and the Join probe).
func mapCursor(in tab.Cursor, cols []string, f func(*tab.Tab) (*tab.Tab, error)) tab.Cursor {
	return &tab.FuncCursor{
		Columns: cols,
		NextFn: func() (*tab.Tab, error) {
			t, err := in.Next()
			if err != nil {
				return nil, err
			}
			out, err := f(t)
			if err != nil {
				in.Close()
				return nil, err
			}
			return out, nil
		},
		CloseFn: in.Close,
	}
}

// streamNode opens a cursor for one plan node. The switch is exhaustive
// over the algebra (yat-lint enforces it).
func (e *Engine) streamNode(op algebra.Op, actx *algebra.Context) (tab.Cursor, error) {
	switch x := op.(type) {
	case *algebra.Literal:
		return tab.NewSliceCursor(x.T, 0), nil
	case *algebra.Doc:
		// Whole-document leaf: the forest is needed as one value.
		return whole(x.Load(actx))
	case *algebra.SourceQuery:
		cur, ok, err := x.Stream(actx)
		if err != nil || ok {
			return cur, err
		}
		return whole(x.Load(actx))
	case *algebra.Bind:
		if x.Doc != "" {
			cur, ok, err := x.StreamDoc(actx)
			if err != nil || ok {
				return cur, err
			}
		}
		if x.Doc != "" || x.From == nil {
			return whole(x.Load(actx)) // document or parameter leaf
		}
		in, err := e.stream(x.From, actx)
		if err != nil {
			return nil, err
		}
		return mapCursor(in, x.Columns(), func(t *tab.Tab) (*tab.Tab, error) {
			return x.Apply(actx, t)
		}), nil
	case *algebra.Select:
		in, err := e.stream(x.From, actx)
		if err != nil {
			return nil, err
		}
		return mapCursor(in, x.Columns(), func(t *tab.Tab) (*tab.Tab, error) {
			return x.Apply(actx, t)
		}), nil
	case *algebra.Project:
		in, err := e.stream(x.From, actx)
		if err != nil {
			return nil, err
		}
		return mapCursor(in, x.Columns(), func(t *tab.Tab) (*tab.Tab, error) {
			return x.Apply(t), nil
		}), nil
	case *algebra.MapExpr:
		in, err := e.stream(x.From, actx)
		if err != nil {
			return nil, err
		}
		return mapCursor(in, x.Columns(), func(t *tab.Tab) (*tab.Tab, error) {
			return x.Apply(actx, t)
		}), nil
	case *algebra.TreeOp:
		if !x.Pipelines() {
			// Grouping construction: a group may gather rows from
			// anywhere in the input, so the forest is built once.
			in, err := e.drain(x.From, actx)
			if err != nil {
				return nil, err
			}
			return whole(x.Apply(actx, in))
		}
		in, err := e.stream(x.From, actx)
		if err != nil {
			return nil, err
		}
		ts := x.Stream()
		return mapCursor(in, x.Columns(), func(t *tab.Tab) (*tab.Tab, error) {
			return ts.Apply(actx, t)
		}), nil
	case *algebra.Distinct:
		in, err := e.stream(x.From, actx)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		return mapCursor(in, x.Columns(), func(t *tab.Tab) (*tab.Tab, error) {
			out := tab.New(t.Cols...)
			for _, r := range t.Rows {
				k := r.Key()
				if !seen[k] {
					seen[k] = true
					out.Rows = append(out.Rows, r)
				}
			}
			return out, nil
		}), nil
	case *algebra.Group:
		in, err := e.drain(x.From, actx)
		if err != nil {
			return nil, err
		}
		return whole(x.Apply(in), nil)
	case *algebra.Sort:
		in, err := e.drain(x.From, actx)
		if err != nil {
			return nil, err
		}
		return whole(x.Apply(in), nil)
	case *algebra.Intersect:
		l, err := e.drain(x.L, actx)
		if err != nil {
			return nil, err
		}
		r, err := e.drain(x.R, actx)
		if err != nil {
			return nil, err
		}
		return whole(x.Apply(l, r))
	case *algebra.Join:
		// Hash join: drain the build side (R) once, stream the probe side
		// — probe order is input order.
		r, err := e.drain(x.R, actx)
		if err != nil {
			return nil, err
		}
		in, err := e.stream(x.L, actx)
		if err != nil {
			return nil, err
		}
		build := x.Build(r)
		return mapCursor(in, x.Columns(), func(t *tab.Tab) (*tab.Tab, error) {
			return build.Probe(actx, t)
		}), nil
	case *algebra.Union:
		return e.streamUnion(x, actx)
	case *algebra.DJoin:
		return e.streamDJoin(x, actx)
	default:
		return nil, fmt.Errorf("exec: unknown operator %T", op)
	}
}

// streamDJoin resolves the outer input bite by bite (djoinCursor). The
// per-row baseline (PerRowDJoin) exists to measure what batching saves; it
// drains the outer and evaluates the inner plan once per row.
func (e *Engine) streamDJoin(x *algebra.DJoin, actx *algebra.Context) (tab.Cursor, error) {
	outer, err := e.stream(x.L, actx)
	if err != nil {
		return nil, err
	}
	if actx.PerRowDJoin {
		l, err := tab.Drain(outer)
		if err != nil {
			return nil, err
		}
		return whole(e.djoinPerRow(x, actx, l))
	}
	c := &djoinCursor{e: e, x: x, actx: actx, cols: x.Columns(),
		outer: tab.Rechunk(outer, tab.DefaultStreamChunk), ahead: 1,
		serial: e.opts.Parallelism <= 1 || mintsSkolems(x.R)}
	if e.opts.Parallelism > 1 && !mintsSkolems(x) {
		c.ahead = e.opts.Parallelism
	}
	return c, nil
}

// djoinCursor is a streaming DJoin. It takes the outer input chunk by chunk
// (a bite: at most tab.DefaultStreamChunk rows), deduplicates each bite to
// distinct binding sets and resolves them in units — one batched push of up to
// BatchChunk sets, or one inner evaluation per set — then re-expands in
// outer order. Output is emitted in pieces: after each unit, the outer
// rows whose sets are all resolved, so the first rows cost one bite plus
// one round trip. A parallel engine reads up to Parallelism bites ahead and
// fans all their units out at once; the bites, the units (so the pushes)
// and the pieces are the serial ones. A DJoin that mints Skolem
// identifiers is never read ahead (mint order is observable).
type djoinCursor struct {
	e      *Engine
	x      *algebra.DJoin
	actx   *algebra.Context
	cols   []string
	outer  tab.Cursor
	ahead  int
	serial bool // units run one at a time, in order

	// The run of bites being resolved: per bite its binding sets, and per
	// binding set the index of the unit resolving it (-1: the cache did).
	ls    []*tab.Tab
	sets  []*algebra.DJoinSet
	at    [][]int
	units []djoinUnit
	ran   int // units evaluated so far
	// pieces lists, in emission order, the (bite, unit) boundaries after
	// which rows are emitted; p is the next one.
	pieces [][2]int
	p      int
	row    int // next row of the bite being emitted
}

type djoinUnit struct {
	set   *algebra.DJoinSet
	chunk []int // batched: the binding sets of one push
	i     int   // otherwise: one binding set
}

func (c *djoinCursor) Cols() []string { return c.cols }

func (c *djoinCursor) Close() error { return c.outer.Close() }

func (c *djoinCursor) Next() (*tab.Tab, error) {
	for {
		if c.p == len(c.pieces) {
			if err := c.load(); err != nil {
				return nil, err
			}
		}
		b, k := c.pieces[c.p][0], c.pieces[c.p][1]
		c.p++
		if k >= c.ran {
			if err := c.run(k); err != nil {
				c.outer.Close()
				return nil, err
			}
		}
		l, set, at := c.ls[b], c.sets[b], c.at[b]
		lo, hi := c.row, c.row
		for hi < l.Len() && at[set.Bindings.Row[hi]] <= k {
			hi++
		}
		c.row = hi
		if c.p == len(c.pieces) || c.pieces[c.p][0] != b {
			c.row = 0 // the bite's last unit has run: hi reached its end
		}
		if hi > lo {
			return set.ExpandRows(l, lo, hi, c.cols), nil
		}
	}
}

// load reads the next run of bites and plans its units and pieces.
func (c *djoinCursor) load() error {
	// Drop the spent run first: it must not stay reachable while the next
	// bites are pulled through the pipeline below.
	c.ls, c.sets, c.at, c.units, c.pieces = nil, nil, nil, nil, nil
	var ls []*tab.Tab
	for len(ls) < c.ahead {
		t, err := c.outer.Next()
		if err == io.EOF && len(ls) > 0 {
			break
		}
		if err != nil {
			return err
		}
		if t.Len() > 0 {
			ls = append(ls, t)
		}
	}
	c.ls, c.sets, c.at, c.units, c.ran = ls, make([]*algebra.DJoinSet, len(ls)), make([][]int, len(ls)), nil, 0
	c.pieces, c.p, c.row = nil, 0, 0
	for b, l := range ls {
		set := algebra.NewDJoinSet(c.actx, c.x, l)
		c.sets[b] = set
		at := make([]int, len(set.Bindings.Sets))
		c.at[b] = at
		c.pieces = append(c.pieces, [2]int{b, len(c.units) - 1})
		if !set.Batchable() {
			for i := range at {
				at[i] = len(c.units)
				c.pieces = append(c.pieces, [2]int{b, len(c.units)})
				c.units = append(c.units, djoinUnit{set: set, i: i})
			}
			continue
		}
		chunks, err := set.PendingChunks(c.actx)
		if err != nil {
			return err
		}
		for i := range at {
			at[i] = -1 // answered by the cache unless a chunk claims it
		}
		for _, ch := range chunks {
			for _, i := range ch {
				at[i] = len(c.units)
			}
			c.pieces = append(c.pieces, [2]int{b, len(c.units)})
			c.units = append(c.units, djoinUnit{set: set, chunk: ch})
		}
	}
	return nil
}

// run evaluates the units up to k: just unit k when serial (the earlier
// ones have run), every remaining unit at once otherwise.
func (c *djoinCursor) run(k int) error {
	lo, hi := c.ran, len(c.units)
	if c.serial {
		hi = k + 1
	}
	c.ran = hi
	return c.e.fanOut(c.actx, hi-lo, c.serial, func(u *algebra.Context, i int) error {
		un := c.units[lo+i]
		if un.chunk != nil {
			return un.set.EvalChunk(u, un.chunk)
		}
		return un.set.EvalSet(u, un.i, c.x.R, func(cc *algebra.Context, op algebra.Op) (*tab.Tab, error) {
			return c.e.drain(op, cc)
		})
	})
}

// djoinPerRow is the pre-batching baseline: one inner evaluation per outer
// row with the full row bound as parameters.
func (e *Engine) djoinPerRow(x *algebra.DJoin, actx *algebra.Context, l *tab.Tab) (*tab.Tab, error) {
	subs := make([]*tab.Tab, len(l.Rows))
	err := e.fanOut(actx, len(l.Rows), mintsSkolems(x.R), func(u *algebra.Context, i int) error {
		params := make(map[string]tab.Cell, len(l.Cols))
		for j, c := range l.Cols {
			params[c] = l.Rows[i][j]
		}
		sub, err := e.drain(x.R, u.WithParams(params))
		subs[i] = sub
		return err
	})
	if err != nil {
		return nil, err
	}
	out := tab.New(x.Columns()...)
	for i, sub := range subs {
		for _, rr := range sub.Rows {
			out.AddRow(append(l.Rows[i].Clone(), rr...))
		}
	}
	return out, nil
}

// streamUnion plays the branches in plan order — left exhausted, then
// right — which is the bag union in a deterministic order. A parallel
// engine with a free worker prefetches the right branch while the left one
// streams (unless the right branch mints Skolem identifiers, which must not
// run ahead). Under AllowPartial an unavailable branch is recorded and
// contributes what it managed to stream; the other branch still plays out.
func (e *Engine) streamUnion(x *algebra.Union, actx *algebra.Context) (tab.Cursor, error) {
	if len(x.L.Columns()) != len(x.R.Columns()) {
		return nil, fmt.Errorf("exec: union of incompatible inputs %v / %v", x.L.Columns(), x.R.Columns())
	}
	u := &unionCursor{e: e, actx: actx, cols: x.Columns(), branches: []algebra.Op{x.L, x.R}}
	if e.opts.Parallelism > 1 && !mintsSkolems(x.R) {
		select {
		case e.tokens <- struct{}{}:
			u.right = e.prefetch(x.R, actx)
		default:
			// pool saturated: the right branch opens in its turn
		}
	}
	return u, nil
}

// unionCursor plays its branches in order, opening each lazily unless it
// is being prefetched.
type unionCursor struct {
	e        *Engine
	actx     *algebra.Context
	cols     []string
	branches []algebra.Op
	right    tab.Cursor // the prefetched last branch, if any
	cur      tab.Cursor
	i        int
}

func (c *unionCursor) Cols() []string { return c.cols }

func (c *unionCursor) open() (tab.Cursor, error) {
	i := c.i
	c.i++
	if i == len(c.branches)-1 && c.right != nil {
		return c.right, nil
	}
	return c.e.stream(c.branches[i], c.actx)
}

func (c *unionCursor) Next() (*tab.Tab, error) {
	for {
		if c.cur == nil {
			if c.i >= len(c.branches) {
				return nil, io.EOF
			}
			cur, err := c.open()
			if err != nil {
				if c.e.degrade(c.actx, err) {
					continue
				}
				return nil, err
			}
			c.cur = cur
		}
		t, err := c.cur.Next()
		if err == io.EOF {
			c.cur.Close()
			c.cur = nil
			continue
		}
		if err != nil {
			c.cur.Close()
			c.cur = nil
			if c.e.degrade(c.actx, err) {
				continue
			}
			return nil, err
		}
		return t, nil
	}
}

func (c *unionCursor) Close() error {
	var err error
	if c.cur != nil {
		err = c.cur.Close()
		c.cur = nil
	}
	if c.right != nil && c.i < len(c.branches) {
		c.right.Close() // prefetched but never reached
	}
	c.i = len(c.branches)
	return err
}

// prefetch runs op on a forked worker (the caller has taken its pool
// token) and buffers a bounded number of its chunks for a consumer that
// gets to them later. Its Stats fork merges into actx exactly once, when
// the consumer reaches the end or closes it.
func (e *Engine) prefetch(op algebra.Op, actx *algebra.Context) tab.Cursor {
	type item struct {
		t   *tab.Tab
		err error
	}
	ctx, cancel := context.WithCancel(actx.Ctx)
	fctx := actx.Fork() // Partial and Cache are shared; Stats is forked
	fctx.Ctx = ctx
	// Two chunks: the branch runs at most that far ahead of its turn, which
	// bounds the memory prefetching costs.
	ch := make(chan item, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { <-e.tokens }()
		defer close(ch)
		send := func(it item) bool {
			select {
			case ch <- it:
				return true
			case <-ctx.Done():
				return false
			}
		}
		cur, err := e.stream(op, fctx)
		if err != nil {
			send(item{err: err})
			return
		}
		defer cur.Close()
		for {
			t, err := cur.Next()
			if err == io.EOF {
				return
			}
			if !send(item{t: t, err: err}) || err != nil {
				return
			}
		}
	}()
	var once sync.Once
	finish := func() {
		once.Do(func() {
			cancel()
			<-done
			actx.Stats.Add(*fctx.Stats)
		})
	}
	return &tab.FuncCursor{
		Columns: op.Columns(),
		NextFn: func() (*tab.Tab, error) {
			it, ok := <-ch
			if !ok {
				finish()
				return nil, io.EOF
			}
			if it.err != nil {
				finish()
				return nil, it.err
			}
			return it.t, nil
		},
		CloseFn: func() error {
			finish()
			return nil
		},
	}
}
