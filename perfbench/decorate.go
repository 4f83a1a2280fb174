package main

import (
	"context"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/tab"
)

// Timing decorators around algebra.Source: one kind around each wire.Client
// the mediator connects ("wire.client" spans), one around each wrapper's
// source inside wire.Exported ("wrapper.eval" spans). A decorator
// implements exactly the optional interfaces its inner source implements,
// so the mediator plans and pushes exactly as it would undecorated.

// meter records the spans of one source on one side of the wire.
type meter struct {
	rec    *recorder
	name   string // "wire.client" or "wrapper.eval"
	source string
}

// open starts the span of one call. A client span belongs to the current
// mediator-level span; a wrapper span to the latest client span of its
// source, the call that caused it.
func (m *meter) open() *span {
	r := m.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.name != "wire.client" {
		return r.add(m.name, m.source, r.open[m.source])
	}
	s := r.add(m.name, m.source, r.cur)
	r.open[m.source] = s
	return s
}

// done records one interval spent in the call, from `from` to now, applies
// the call's counts, and closes the span when last is set.
func (m *meter) done(s *span, from int64, last bool, count func(*span)) {
	r := m.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	s.Busy = append(s.Busy, [2]int64{from, now})
	if count != nil {
		count(s)
	}
	if last && s.End == 0 {
		s.End = now
	}
}

type tracedSource struct {
	inner algebra.Source
	m     *meter
}

func (t *tracedSource) Name() string        { return t.inner.Name() }
func (t *tracedSource) Documents() []string { return t.inner.Documents() }

func (t *tracedSource) Fetch(doc string) (data.Forest, error) {
	return t.fetch(func() (data.Forest, error) { return t.inner.Fetch(doc) })
}

func (t *tracedSource) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	return t.push(params, func() (*tab.Tab, error) { return t.inner.Push(plan, params) })
}

func (t *tracedSource) fetch(call func() (data.Forest, error)) (data.Forest, error) {
	s := t.m.open()
	f, err := call()
	t.m.done(s, s.Start, true, func(s *span) {
		if err == nil {
			s.Fetches++
		}
	})
	return f, err
}

func (t *tracedSource) push(params map[string]tab.Cell, call func() (*tab.Tab, error)) (*tab.Tab, error) {
	s := t.m.open()
	res, err := call()
	t.m.done(s, s.Start, true, func(s *span) {
		if err == nil {
			s.Pushes++
			s.Tuples += res.Len()
			if len(params) > 0 {
				s.ParamPushes++
				s.Bindings++
			}
		}
	})
	return res, err
}

func (t *tracedSource) pushBatch(ctx context.Context, useCtx bool, plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	bs := t.inner.(algebra.BatchSource)
	s := t.m.open()
	var res []*tab.Tab
	var err error
	if useCtx {
		res, err = bs.PushBatchContext(ctx, plan, bindings)
	} else {
		res, err = bs.PushBatch(plan, bindings)
	}
	t.m.done(s, s.Start, true, func(s *span) {
		if err == nil {
			s.Pushes++
			if n := bindingSets(bindings); n > 0 {
				s.ParamPushes++
				s.Bindings += n
			}
			for _, r := range res {
				s.Tuples += r.Len()
			}
		}
	})
	return res, err
}

func (t *tracedSource) pushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	s := t.m.open()
	cur, err := t.inner.(algebra.PushStreamSource).PushStream(ctx, plan, params)
	t.m.done(s, s.Start, err != nil, func(s *span) {
		if err == nil {
			s.Pushes++
			if len(params) > 0 {
				s.ParamPushes++
				s.Bindings++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return &tracedCursor{m: t.m, s: s, inner: cur}, nil
}

// bindingSets counts the bindings of a batch that carry parameters.
func bindingSets(bindings []map[string]tab.Cell) int {
	n := 0
	for _, b := range bindings {
		if len(b) > 0 {
			n++
		}
	}
	return n
}

// tracedCursor keeps a streamed push's span open until the stream ends,
// recording each pull as a busy interval and each chunk's rows as tuples.
type tracedCursor struct {
	m     *meter
	s     *span
	inner tab.Cursor
}

func (c *tracedCursor) Cols() []string { return c.inner.Cols() }

func (c *tracedCursor) Next() (*tab.Tab, error) {
	from := c.m.rec.now()
	t, err := c.inner.Next()
	c.m.done(c.s, from, err != nil, func(s *span) {
		if err == nil {
			s.Tuples += t.Len()
		}
	})
	return t, err
}

func (c *tracedCursor) Close() error {
	from := c.m.rec.now()
	err := c.inner.Close()
	c.m.done(c.s, from, true, nil)
	return err
}

// tracedForestCursor is tracedCursor for a streamed fetch.
type tracedForestCursor struct {
	m     *meter
	s     *span
	inner algebra.ForestCursor
}

func (c *tracedForestCursor) Next() (data.Forest, error) {
	from := c.m.rec.now()
	f, err := c.inner.Next()
	c.m.done(c.s, from, err != nil, nil)
	return f, err
}

func (c *tracedForestCursor) Close() error {
	from := c.m.rec.now()
	err := c.inner.Close()
	c.m.done(c.s, from, true, nil)
	return err
}

// batchSource is the decorator of a source with native batch evaluation
// (the O₂ wrapper).
type batchSource struct{ *tracedSource }

func (b batchSource) PushBatch(plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	return b.pushBatch(context.Background(), false, plan, bindings)
}

func (b batchSource) PushBatchContext(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	return b.pushBatch(ctx, true, plan, bindings)
}

// batchStreamSource adds streamed pushes (the Wais and feed wrappers).
type batchStreamSource struct{ batchSource }

func (b batchStreamSource) PushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	return b.pushStream(ctx, plan, params)
}

// clientSource adds cancellable calls, streamed fetches and retry
// reporting (the wire client).
type clientSource struct{ batchStreamSource }

func (c clientSource) FetchContext(ctx context.Context, doc string) (data.Forest, error) {
	return c.fetch(func() (data.Forest, error) {
		return c.inner.(algebra.ContextSource).FetchContext(ctx, doc)
	})
}

func (c clientSource) PushContext(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	return c.push(params, func() (*tab.Tab, error) {
		return c.inner.(algebra.ContextSource).PushContext(ctx, plan, params)
	})
}

func (c clientSource) FetchStream(ctx context.Context, doc string) (algebra.ForestCursor, error) {
	s := c.m.open()
	cur, err := c.inner.(algebra.StreamSource).FetchStream(ctx, doc)
	c.m.done(s, s.Start, err != nil, func(s *span) {
		if err == nil {
			s.Fetches++
		}
	})
	if err != nil {
		return nil, err
	}
	return &tracedForestCursor{m: c.m, s: s, inner: cur}, nil
}

func (c clientSource) TakeRetryStats() (retries, redials int) {
	return c.inner.(algebra.RetryReporter).TakeRetryStats()
}

// capabilities lists which optional source interfaces src implements.
func capabilities(src algebra.Source) [6]bool {
	_, ctx := src.(algebra.ContextSource)
	_, batch := src.(algebra.BatchSource)
	_, fetchStream := src.(algebra.StreamSource)
	_, pushStream := src.(algebra.PushStreamSource)
	_, retry := src.(algebra.RetryReporter)
	_, state := src.(algebra.StateReporter)
	return [6]bool{ctx, batch, fetchStream, pushStream, retry, state}
}

// decorate wraps src in the decorator with exactly its optional
// interfaces; a combination no decorator covers is an error, not a
// silently different plan.
func decorate(src algebra.Source, m *meter) (algebra.Source, error) {
	t := &tracedSource{inner: src, m: m}
	var out algebra.Source
	switch capabilities(src) {
	case [6]bool{false, true, false, false, false, false}:
		out = batchSource{t}
	case [6]bool{false, true, false, true, false, false}:
		out = batchStreamSource{batchSource{t}}
	case [6]bool{true, true, true, true, true, false}:
		out = clientSource{batchStreamSource{batchSource{t}}}
	default:
		return nil, fmt.Errorf("no decorator keeps the optional interfaces of %T", src)
	}
	if capabilities(out) != capabilities(src) {
		return nil, fmt.Errorf("decorator of %T changes its optional interfaces", src)
	}
	return out, nil
}
