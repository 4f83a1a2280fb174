package mediator

import (
	"context"
	"io"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tab"
)

// Stream is one live streamed query: result chunks arrive on a bounded
// channel as the pipeline produces them, so the consumer's pace
// backpressures the whole plan down to the wrappers and the mediator never
// holds more than the buffer. The consumer ranges over Chunks() and then
// reads the terminal outcome from Result (or Err); abandoning early via
// Close cancels the producing pipeline, which propagates to in-flight
// wrapper streams.
type Stream struct {
	cols   []string
	chunks chan *tab.Tab

	cancel   context.CancelFunc
	stop     chan struct{} // closed by Close: unblocks a pump mid-send
	stopOnce sync.Once
	done     chan struct{} // closed when the pump exits

	mu  sync.Mutex
	err error
	res *Result
}

// Cols reports the result column set, known before the first chunk.
func (s *Stream) Cols() []string { return append([]string(nil), s.cols...) }

// Chunks is the bounded result channel. It is closed after the last chunk
// (or after a failure — check Err or Result then).
func (s *Stream) Chunks() <-chan *tab.Tab { return s.chunks }

// Err reports the stream's failure, if any; valid once Chunks is closed.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Result blocks until the stream terminates and returns the query outcome:
// plans, statistics, trace and partial-failure report. Result.Tab is nil —
// the rows went through Chunks and were never retained. An AllowPartial
// stream that degraded reports the unreachable sources in SourceErrors; the
// rows already streamed stand as a lower bound of the complete answer.
func (s *Stream) Result() (*Result, error) {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	return s.res, nil
}

// Close abandons the stream: the producing pipeline is cancelled, in-flight
// wrapper streams are torn down, and the chunk channel drains and closes.
// Closing a finished stream is a no-op. Safe to call concurrently with a
// consumer blocked on Chunks.
func (s *Stream) Close() {
	s.stopOnce.Do(func() {
		s.cancel()
		close(s.stop)
	})
	<-s.done
}

// StreamContext composes, optimizes and executes a query, returning the
// result as a Stream (ExecuteContext is this stream drained to a table):
// chunks surface as the pipelined engine produces them, peak memory is
// bounded by the chunk buffer (ExecOptions.StreamBuffer rows; default
// 2×tab.DefaultStreamChunk), and the first row arrives long before the last
// wrapper finishes. Retries, circuit breakers, AllowPartial degradation,
// wire conformance checking, tracing and the result cache all apply.
func (m *Mediator) StreamContext(ctx context.Context, querySrc string, opts ExecOptions) (*Stream, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.CacheSize > 0 {
		m.ensureCache(opts.CacheSize)
	}
	naive, opt, err := m.plan(querySrc, nil)
	if err != nil {
		return nil, err
	}
	return m.streamPlan(ctx, m.newContext(), naive, opt, opts)
}

// StreamPlan is StreamContext for an already-built plan (the ExecutePlan
// analogue).
func (m *Mediator) StreamPlan(ctx context.Context, plan algebra.Op, opts ExecOptions) (*Stream, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.CacheSize > 0 {
		m.ensureCache(opts.CacheSize)
	}
	if err := m.lintBeforeExec("custom", plan); err != nil {
		return nil, err
	}
	return m.streamPlan(ctx, m.newContext(), nil, plan, opts)
}

// streamPlan starts opt on a fresh engine under the evaluation context
// actx — every query entry point ends here. naive, when non-nil, is only
// described in the Result.
func (m *Mediator) streamPlan(ctx context.Context, actx *algebra.Context, naive, opt algebra.Op, opts ExecOptions) (*Stream, error) {
	if opts.AllowPartial {
		actx.Partial = algebra.NewPartialReport()
	}
	m.installWireChecker(actx, opt, opts)
	root := m.attachTrace(actx, opts)
	// The cancel lever covers the whole pipeline: Close (abandon) cancels
	// it, which unblocks any in-flight pull down to the wrapper reads.
	sctx, cancel := context.WithCancel(ctx)
	start := time.Now()
	cur, err := exec.New(opts).Stream(sctx, opt, actx)
	if err != nil {
		cancel()
		if root != nil {
			root.Finish(-1, err)
		}
		m.recordQuery(time.Since(start), *actx.Stats, err)
		return nil, err
	}
	buf := opts.StreamBuffer
	if buf <= 0 {
		buf = 2 * tab.DefaultStreamChunk
	}
	depth := buf / tab.DefaultStreamChunk
	if depth < 1 {
		depth = 1
	}
	s := &Stream{
		cols:   cur.Cols(),
		chunks: make(chan *tab.Tab, depth),
		cancel: cancel,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	res := &Result{Plan: algebra.Describe(opt), Trace: root}
	if naive != nil {
		res.NaivePlan = algebra.Describe(naive)
	}
	go s.pump(cur, m, actx, root, res, start)
	return s, nil
}

// pump pulls chunks from the pipeline into the bounded channel until EOF,
// failure or abandon, then settles the stream's outcome: trace root closed
// with the row count, metrics recorded, statistics and the partial report
// snapshotted into the Result.
func (s *Stream) pump(cur tab.Cursor, m *Mediator, actx *algebra.Context, root *obs.Span, res *Result, start time.Time) {
	defer close(s.done)
	defer close(s.chunks)
	rows := 0
	var err error
pull:
	for {
		t, nerr := cur.Next()
		if nerr == io.EOF {
			break
		}
		if nerr != nil {
			err = nerr
			break
		}
		if t.Len() == 0 {
			continue
		}
		select {
		case s.chunks <- t:
			rows += t.Len()
		case <-s.stop:
			break pull // abandoned: the consumer is gone
		}
	}
	cur.Close()
	if root != nil {
		if err != nil {
			root.Finish(-1, err)
		} else {
			root.Finish(rows, nil)
		}
	}
	m.recordQuery(time.Since(start), *actx.Stats, err)
	res.Stats = *actx.Stats
	if actx.Partial != nil {
		res.SourceErrors = actx.Partial.Failures()
	}
	s.mu.Lock()
	s.err = err
	s.res = res
	s.mu.Unlock()
}
