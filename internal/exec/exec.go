// Package exec is the mediator's plan evaluator: every plan runs through
// Engine.Stream, a chunked pull pipeline with a bounded worker pool and
// cancellation (see stream.go). Operators pull chunks of about
// tab.DefaultStreamChunk rows from their inputs and hand results on, so a
// query's memory is bounded by chunk size × pipeline depth unless an
// operator must see its whole input (Group, Sort, Intersect, a Join's build
// side, per-row DJoin, a grouping Tree) — those drain their streamed input
// and call their kernel once. Callers wanting one table drain the stream
// (Collect, or Mediator.ExecuteContext).
//
// Over the TCP wrappers of internal/wire, every push is a network round
// trip (the information-passing cost model of Section 5.3), so the engine
// overlaps independent work:
//
//   - DJoin resolves up to Parallelism outer bites at once, fanning their
//     batched pushes (or per-binding inner evaluations) out with a
//     configurable in-flight bound;
//   - a Union's right branch is prefetched while the left one streams;
//   - a context.Context threads from Stream through algebra.Context into
//     the wire client, so a per-query timeout or cancellation aborts
//     in-flight source I/O instead of hanging the query on a dead wrapper.
//
// Results are deterministic: a parallel engine returns exactly the rows of
// a serial one, in the same order and chunking, with the same statistics —
// concurrent units are collected and then emitted in plan order, which also
// preserves the paper's bag semantics. Counter accounting stays exact
// because every worker accumulates into a forked algebra.Stats that the
// parent merges (per-worker merge instead of shared atomics). Subplans that
// mint Skolem identifiers are the one limit on overlap: their mint order is
// observable in the output, so the engine never runs minting work ahead of
// its serial turn (see mintsSkolems).
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/obs"
	"repro/internal/tab"
)

// Options configure one engine.
type Options struct {
	// Parallelism bounds the number of concurrently evaluating workers.
	// 1 forces serial evaluation; values below 1 default to GOMAXPROCS.
	Parallelism int
	// FanOut bounds the in-flight inner evaluations of one DJoin. Zero or
	// negative means "use Parallelism". The effective bound is never larger
	// than Parallelism: fan-out workers come from the same pool. With
	// batched pushes it bounds the number of chunks in flight.
	FanOut int
	// Timeout is the per-query deadline applied by Stream; zero disables it.
	Timeout time.Duration
	// BatchChunk bounds the binding sets per batched DJoin push; zero means
	// "use the evaluation context's default" (algebra.DefaultBatchChunk).
	// Negative values are configuration errors, rejected by Validate —
	// never silently replaced downstream. Deliberately independent of
	// Parallelism/FanOut so push counts stay identical between serial and
	// parallel runs of the same query.
	BatchChunk int
	// PerRowDJoin restores the one-push-per-outer-row DJoin baseline
	// (no deduplication, no batched pushes); comparison experiments and
	// benchmarks use it to measure what batching saves.
	PerRowDJoin bool
	// CacheSize, when positive, asks the mediator to install a shared
	// wrapper-result cache bounded to this many entries (see
	// algebra.ResultCache). The engine itself does not consume it: the
	// cache must outlive individual queries to be useful.
	CacheSize int
	// AllowPartial enables graceful per-source degradation: when a plan
	// branch fails because a source is unreachable
	// (algebra.UnavailableError — transport failure after retries, or an
	// open circuit breaker), the failure is recorded in the context's
	// PartialReport and the branch contributes no rows, instead of the
	// whole query failing. Degradation happens at Union branches and at
	// the plan root, so a union across sources returns the live sources'
	// rows; a plan rooted entirely in a dead source returns zero rows.
	// Every returned row is still correct — the result is a lower bound.
	AllowPartial bool
	// Trace enables per-operator span collection (see internal/obs): every
	// evaluated operator gets a span under the root the caller attaches to
	// algebra.Context.Trace (the mediator mints one and returns it in
	// Result.Trace), fan-out workers get spans parented to the operator
	// that forked them, and the trace id rides the wire frames so
	// wrapper-side work is attributed to its cause. Off by default;
	// when off the engine's only extra work is a nil check per node.
	Trace bool
	// StreamBuffer bounds the row buffer between the streaming evaluator
	// and the consumer of Mediator.StreamContext (backpressure: producers
	// stall once the buffer is full). Zero means 2×tab.DefaultStreamChunk;
	// negative values are rejected by Validate.
	StreamBuffer int
	// CheckTypes enables wire conformance checking: the mediator infers a
	// pattern type for every operator (internal/typecheck) and installs a
	// validator on the evaluation context that checks each shipped
	// wrapper row against the SourceQuery's inferred type, turning a
	// schema-violating response into a structured error (and a
	// type_violations_total metric) instead of a silently wrong answer.
	// Off by default; the engine itself does not consume it.
	CheckTypes bool
}

// Validate rejects option values that cannot mean anything before they sink
// into an evaluation: chunk and buffer sizes must not be negative (zero is
// the documented "use the default" sentinel; explicit non-positive values
// arriving from flags are rejected at flag-parse time by the consoles).
// Mediator entry points call it on every query, so a bad configuration
// fails loudly at the edge instead of silently running with a substituted
// default deep in the batch evaluator.
func (o Options) Validate() error {
	if o.BatchChunk < 0 {
		return fmt.Errorf("exec: BatchChunk must be positive (or 0 for the default %d), got %d", algebra.DefaultBatchChunk, o.BatchChunk)
	}
	if o.StreamBuffer < 0 {
		return fmt.Errorf("exec: StreamBuffer must be positive (or 0 for the default %d), got %d", 2*tab.DefaultStreamChunk, o.StreamBuffer)
	}
	return nil
}

// Engine evaluates algebra plans with a bounded worker pool. It is safe for
// concurrent use, and the queries sharing one engine share its pool; the
// mediator builds one engine per query, so the bound holds per query.
type Engine struct {
	opts Options
	// tokens is the pool of *extra* workers: the goroutine pulling the
	// stream counts as one worker, so capacity is Parallelism-1. A unit of
	// work forks only when a token is free, otherwise it runs inline —
	// this never deadlocks, however deep the plan.
	tokens chan struct{}
}

// New returns an engine over the given options.
func New(opts Options) *Engine {
	if opts.Parallelism < 1 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.FanOut < 1 || opts.FanOut > opts.Parallelism {
		opts.FanOut = opts.Parallelism
	}
	return &Engine{opts: opts, tokens: make(chan struct{}, opts.Parallelism-1)}
}

// Options reports the engine's effective configuration.
func (e *Engine) Options() Options { return e.opts }

// Collect evaluates a plan on a serial engine and drains the stream into
// one table, under actx.Ctx when the context carries one. It is the
// one-call form for wrappers answering pushed plans, tools and tests.
func Collect(plan algebra.Op, actx *algebra.Context) (*tab.Tab, error) {
	ctx := actx.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	cur, err := New(Options{Parallelism: 1}).Stream(ctx, plan, actx)
	if err != nil {
		return nil, err
	}
	return tab.Drain(cur)
}

// degrade reports whether err is a source-availability failure that
// AllowPartial absorbs; if so it is recorded in the partial report.
func (e *Engine) degrade(actx *algebra.Context, err error) bool {
	if !e.opts.AllowPartial || actx.Partial == nil {
		return false
	}
	var ue *algebra.UnavailableError
	if !errors.As(err, &ue) {
		return false
	}
	actx.Partial.Record(ue.Source, err)
	return true
}

// fanOut runs n independent units with at most FanOut in flight (forked
// units come from the shared worker pool; the dispatching goroutine runs
// the overflow inline, so it is never idle and never deadlocks). Each unit
// receives the context to evaluate under — a Stats fork when running
// concurrently — and its index. Units must only write disjoint state.
// Serial execution (Parallelism 1, a single unit, or serialOnly) calls the
// units in order on actx itself.
func (e *Engine) fanOut(actx *algebra.Context, n int, serialOnly bool, unit func(*algebra.Context, int) error) error {
	run := func(u *algebra.Context, i int) error {
		if err := actx.Err(); err != nil {
			return err
		}
		return unit(u, i)
	}
	if e.opts.Parallelism <= 1 || n <= 1 || serialOnly {
		for i := 0; i < n; i++ {
			if err := run(actx, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var forked algebra.Stats
	// local caps this operator's own fan-out below the global pool: at
	// most FanOut-1 forked units in flight (the inline unit is the
	// FanOut-th).
	local := make(chan struct{}, e.opts.FanOut-1)
	for i := 0; i < n; i++ {
		i := i
		forkable := false
		select {
		case local <- struct{}{}:
			forkable = true
		default:
		}
		if forkable {
			select {
			case e.tokens <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-e.tokens; <-local }()
					rctx := actx.Fork()
					if actx.Trace != nil {
						// Parent the forked unit's work to a worker span
						// under the fanned-out operator, so a profile shows
						// which units actually ran concurrently.
						ws := actx.Trace.NewChild("worker", fmt.Sprintf("unit %d", i))
						rctx.Trace = ws
						if rctx.Ctx != nil {
							rctx.Ctx = obs.WithSpan(rctx.Ctx, ws)
						}
						defer func() { ws.Finish(-1, errs[i]) }()
					}
					errs[i] = run(rctx, i)
					mu.Lock()
					forked.Add(*rctx.Stats)
					mu.Unlock()
				}()
				continue
			default:
				<-local // global pool saturated: give the slot back
			}
		}
		// No free worker: run this unit inline. This both bounds the
		// fan-out and keeps the dispatching goroutine productive.
		errs[i] = run(actx, i)
	}
	wg.Wait()
	actx.Stats.Add(forked)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mintsSkolems reports whether evaluating the plan can mint Skolem
// identifiers (only the Tree operator does). Minting draws numbers from the
// context's shared registry in evaluation order, and those numbers appear
// in the constructed trees — so minting work must never run ahead of its
// serial turn if the engine is to reproduce serial output exactly. The
// check descends into SourceQuery subplans too; that is conservative
// (pushed plans evaluate at the source), never wrong.
func mintsSkolems(op algebra.Op) bool {
	found := false
	algebra.Walk(op, func(o algebra.Op) bool {
		if _, ok := o.(*algebra.TreeOp); ok {
			found = true
			return false
		}
		return true
	})
	return found
}
