// Command yat-experiments regenerates every table of EXPERIMENTS.md: the
// per-figure experiments (F7, F8, F9), the transfer sweep (E10), the
// information-passing crossover (E11), the source-index ablation (E12),
// the optimizer-round ablation (E13), the parallel-engine worker sweep
// (E15, over live TCP wrappers), the batched-pushdown/cache sweep (E16),
// the fault-tolerance experiment (E17, Q2 under injected transport
// faults) and the profiling experiment (E18, Q2's per-operator span tree
// and the cost of tracing itself). Each table reports measured wall time,
// shipped bytes/tuples and source calls; correctness is asserted against
// the generator's ground truth on every run.
//
// Usage:
//
//	yat-experiments [-quick]
//	yat-experiments -bench-json BENCH_PR7.json
//
// With -bench-json, only the Fig. 9 Q2 measurements run (per-row, batched,
// parallel, warm cache, a 1%-fault-rate recovery variant, plus the same
// query compiled from XQuery-FLWR text) and the results are written as
// JSON for CI trend tracking instead of the human-readable tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/mediator"
	"repro/internal/o2wrap"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/tab"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

func main() {
	quick := flag.Bool("quick", false, "smaller sizes, fewer repetitions")
	benchOut := flag.String("bench-json", "", "write Fig. 9 Q2 benchmark results as JSON to this file and exit")
	feedBenchOut := flag.String("feed-bench-json", "", "write the E23 feed-family benchmark results as JSON to this file and exit")
	streamSmoke := flag.Bool("stream-smoke", false, "assert the streaming engine's memory/latency/identity promises on a large-n Q2 and exit")
	wrappersDir := flag.String("wrappers", "", "directory with prebuilt o2-wrapper and xmlwais-wrapper binaries for out-of-process memory measurements (empty: build them once with the local toolchain)")
	flag.Parse()
	if *streamSmoke {
		if err := runStreamSmoke(*wrappersDir); err != nil {
			fmt.Fprintf(os.Stderr, "yat-experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *feedBenchOut != "" {
		n, sweep := 10000, []int{2000, 6000, 20000}
		if *quick {
			n, sweep = 2000, []int{400, 1200, 4000}
		}
		if err := feedBenchJSON(*feedBenchOut, n, sweep); err != nil {
			fmt.Fprintf(os.Stderr, "yat-experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchOut != "" {
		n := 1000
		if *quick {
			n = 200
		}
		if err := benchJSON(*benchOut, n, *wrappersDir); err != nil {
			fmt.Fprintf(os.Stderr, "yat-experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	sizes := []int{250, 1000, 4000}
	sweep := []int{250, 500, 1000, 2000, 4000}
	if *quick {
		sizes = []int{100, 400}
		sweep = []int{100, 200, 400}
	}
	if err := run(sizes, sweep); err != nil {
		fmt.Fprintf(os.Stderr, "yat-experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(sizes, sweep []int) error {
	fmt.Println("YAT reproduction experiments — regenerating the EXPERIMENTS.md tables")
	fmt.Println("(deterministic workload: datagen.DefaultParams, seed 42)")
	if err := figure7(sizes); err != nil {
		return err
	}
	if err := figure8(sizes); err != nil {
		return err
	}
	if err := figure9(sizes); err != nil {
		return err
	}
	if err := e10(sweep); err != nil {
		return err
	}
	if err := e11(); err != nil {
		return err
	}
	if err := e12(); err != nil {
		return err
	}
	if err := e13(sizes[len(sizes)-1]); err != nil {
		return err
	}
	if err := e15(sizes[len(sizes)-2]); err != nil {
		return err
	}
	if err := e16(sizes[len(sizes)-2]); err != nil {
		return err
	}
	if err := e17(sizes[len(sizes)-2]); err != nil {
		return err
	}
	if err := e18(sizes[len(sizes)-2]); err != nil {
		return err
	}
	return nil
}

// e18 profiles Fig. 9's Q2 over the wire deployment: where the time goes
// (the rendered per-operator span tree) and what tracing itself costs
// (batched Q2 timed with tracing off vs. on, plus the accounting invariant
// that span counts sum to global Stats).
func e18(n int) error {
	const latency = 2 * time.Millisecond
	fmt.Printf("\n== E18: profiled Q2 over wire (artifacts=%d, per-call latency %s) ==\n", n, latency)
	m, _, teardown, err := wireDeploy(n, latency)
	if err != nil {
		return err
	}
	defer teardown()
	ctx := context.Background()

	off := mediator.ExecOptions{Parallelism: 1}
	on := mediator.ExecOptions{Parallelism: 1, Trace: true}
	plain, dOff, err := med(func() (*mediator.Result, error) {
		return m.ExecuteContext(ctx, datagen.Q2Src, off)
	})
	if err != nil {
		return fmt.Errorf("E18 untraced: %w", err)
	}
	traced, dOn, err := med(func() (*mediator.Result, error) {
		return m.ExecuteContext(ctx, datagen.Q2Src, on)
	})
	if err != nil {
		return fmt.Errorf("E18 traced: %w", err)
	}
	if !plain.Tab.Equal(traced.Tab) {
		return fmt.Errorf("E18: tracing changed the result rows")
	}
	if traced.Trace == nil {
		return fmt.Errorf("E18: no trace collected")
	}
	tc := traced.Trace.TreeCounts()
	if tc.Pushes != traced.Stats.SourcePushes || tc.Tuples != traced.Stats.TuplesShipped ||
		tc.Fetches != traced.Stats.SourceFetches {
		return fmt.Errorf("E18: span counts %+v do not sum to Stats %+v", tc, traced.Stats)
	}
	fmt.Printf("%-22s %12s %8s %8s\n", "variant", "time", "rows", "spans")
	fmt.Printf("%-22s %12s %8d %8s\n", "trace off", dOff.Round(10*time.Microsecond), plain.Tab.Len(), "-")
	fmt.Printf("%-22s %12s %8d %8d\n", "trace on", dOn.Round(10*time.Microsecond), traced.Tab.Len(), traced.Trace.SpanCount())
	fmt.Println("\nprofile (trace", traced.Trace.ID+"):")
	fmt.Print(obs.Render(traced.Trace))
	return nil
}

func setup(n int) (*mediator.Mediator, *datagen.Workload, error) {
	w := datagen.Generate(datagen.DefaultParams(n))
	m, err := culturalMediator(w)
	return m, w, err
}

func culturalMediator(w *datagen.Workload) (*mediator.Mediator, error) {
	ow := o2wrap.New("o2artifact", w.DB)
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	m := mediator.New()
	if err := m.Connect(ow, ow.ExportInterface()); err != nil {
		return nil, err
	}
	if err := m.Connect(ww, ww.ExportInterface()); err != nil {
		return nil, err
	}
	schema := ow.ExportSchema()
	m.ImportStructure("artifacts", schema, "Artifact")
	m.ImportStructure("persons", schema, "Person")
	m.ImportStructure("works", ww.ExportStructure(), "Works")
	m.RegisterFunc("contains", waiswrap.Contains)
	for name, fn := range ow.Funcs() {
		m.RegisterFunc(name, fn)
	}
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		return nil, err
	}
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	return m, nil
}

func med(fn func() (*mediator.Result, error)) (*mediator.Result, time.Duration, error) {
	start := time.Now()
	res, err := fn()
	return res, time.Since(start), err
}

const rowFmt = "%-26s %8d %12s %10d %8d %8d %8d\n"
const headFmt = "%-26s %8s %12s %10s %8s %8s %8s\n"

func printHead(title string) {
	fmt.Printf("\n== %s ==\n", title)
	fmt.Printf(headFmt, "plan", "rows", "time", "bytes", "tuples", "fetches", "pushes")
}

func printRow(name string, res *mediator.Result, d time.Duration) {
	fmt.Printf(rowFmt, name, res.Tab.Len(), d.Round(10*time.Microsecond),
		res.Stats.BytesShipped, res.Stats.TuplesShipped,
		res.Stats.SourceFetches, res.Stats.SourcePushes)
}

// figure7 times the three equivalent Figure 7 plans (monolithic Bind,
// DJoin split, Join with the persons extent).
func figure7(sizes []int) error {
	fmt.Println("\n== F7: Bind splitting and DJoin-to-Join (Figure 7, upper row) ==")
	fmt.Printf("%-10s %20s %20s %20s\n", "artifacts", "monolithic Bind", "DJoin split", "Join w/ extent")
	for _, n := range sizes {
		w := datagen.Generate(datagen.DefaultParams(n))
		plans := fig7Plans()
		var times [3]time.Duration
		var rows [3]int
		for i, plan := range plans {
			p := &algebra.Project{From: plan, Cols: []string{"$t", "$o"}}
			ctx := sourceCtx(w)
			start := time.Now()
			res, err := exec.Collect(p, ctx)
			if err != nil {
				return err
			}
			times[i] = time.Since(start)
			rows[i] = res.Len()
		}
		if rows[0] != rows[1] || rows[0] != rows[2] {
			return fmt.Errorf("F7 plans disagree: %v", rows)
		}
		fmt.Printf("%-10d %20s %20s %20s   (%d rows each)\n", n,
			times[0].Round(10*time.Microsecond), times[1].Round(10*time.Microsecond),
			times[2].Round(10*time.Microsecond), rows[0])
	}
	return nil
}

func fig7Plans() [3]algebra.Op {
	mono := algebra.Op(&algebra.Bind{Doc: "artifacts", F: filter.MustParse(
		`set[ *class[ artifact.tuple[ title: $t,
		      owners.list[ *class[ person.tuple[ name: $o ] ] ] ] ] ]`)})
	split := algebra.Op(&algebra.DJoin{
		L: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
			`set[ *class[ artifact.tuple[ title: $t, owners@$ow ] ] ]`)},
		R: &algebra.Bind{Col: "$ow", F: filter.MustParse(
			`owners.list[ *class[ person.tuple[ name: $o ] ] ]`)},
	})
	join := algebra.Op(&algebra.Join{
		L: &algebra.MapExpr{
			From: &algebra.DJoin{
				L: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
					`set[ *class[ artifact.tuple[ title: $t, owners@$ow ] ] ]`)},
				R: &algebra.Bind{Col: "$ow", F: filter.MustParse(`owners.list[ *%@$ref ]`)},
			},
			Col: "$rid", E: algebra.MustParseExpr(`id($ref)`),
		},
		R: &algebra.MapExpr{
			From: &algebra.Bind{Doc: "persons", F: filter.MustParse(
				`set[ *class@$p[ person.tuple[ name: $o ] ] ]`)},
			Col: "$pid", E: algebra.MustParseExpr(`id($p)`),
		},
		Pred: algebra.MustParseExpr(`$rid = $pid`),
	})
	return [3]algebra.Op{mono, split, join}
}

func sourceCtx(w *datagen.Workload) *algebra.Context {
	ctx := algebra.NewContext()
	ctx.Sources["o2artifact"] = o2wrap.New("o2artifact", w.DB)
	ctx.Sources["xmlartwork"] = waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	ctx.Funcs["contains"] = waiswrap.Contains
	return ctx
}

func figure8(sizes []int) error {
	for _, n := range sizes {
		m, w, err := setup(n)
		if err != nil {
			return err
		}
		printHead(fmt.Sprintf("F8: Q1 naive vs optimized (artifacts=%d, ground truth %d rows)", n, len(w.GivernyTitles)))
		naive, nd, err := med(func() (*mediator.Result, error) { return m.QueryNaive(datagen.Q1Src) })
		if err != nil {
			return err
		}
		opt, od, err := med(func() (*mediator.Result, error) { return m.Query(datagen.Q1Src) })
		if err != nil {
			return err
		}
		printRow("naive (materialize view)", naive, nd)
		printRow("optimized (Fig. 8)", opt, od)
		if naive.Tab.Len() != len(w.GivernyTitles) || !naive.Tab.EqualUnordered(opt.Tab) {
			return fmt.Errorf("F8 correctness check failed at n=%d", n)
		}
	}
	return nil
}

func figure9(sizes []int) error {
	for _, n := range sizes {
		m, w, err := setup(n)
		if err != nil {
			return err
		}
		printHead(fmt.Sprintf("F9: Q2 naive vs pushdown (artifacts=%d, ground truth %d rows)", n, len(w.Q2Titles)))
		naive, nd, err := med(func() (*mediator.Result, error) { return m.QueryNaive(datagen.Q2Src) })
		if err != nil {
			return err
		}
		opt, od, err := med(func() (*mediator.Result, error) { return m.Query(datagen.Q2Src) })
		if err != nil {
			return err
		}
		printRow("naive (materialize view)", naive, nd)
		printRow("pushdown + info passing", opt, od)
		if naive.Tab.Len() != len(w.Q2Titles) || !naive.Tab.EqualUnordered(opt.Tab) {
			return fmt.Errorf("F9 correctness check failed at n=%d", n)
		}
	}
	return nil
}

func e10(sweep []int) error {
	fmt.Println("\n== E10: transfer volume sweep (Q2 bytes shipped, naive vs optimized) ==")
	fmt.Printf("%-10s %12s %12s %8s\n", "artifacts", "naive", "optimized", "ratio")
	for _, n := range sweep {
		m, _, err := setup(n)
		if err != nil {
			return err
		}
		naive, err := m.QueryNaive(datagen.Q2Src)
		if err != nil {
			return err
		}
		opt, err := m.Query(datagen.Q2Src)
		if err != nil {
			return err
		}
		ratio := float64(naive.Stats.BytesShipped) / float64(maxI64(opt.Stats.BytesShipped, 1))
		fmt.Printf("%-10d %12d %12d %7.1fx\n", n, naive.Stats.BytesShipped, opt.Stats.BytesShipped, ratio)
	}
	return nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func e11() error {
	fmt.Println("\n== E11: information passing crossover (bind join vs fetch-all join, artifacts=2000) ==")
	fmt.Printf("%-8s %14s %14s %14s %14s\n", "left", "bindjoin time", "fetchall time", "bindjoin tup", "fetchall tup")
	w := datagen.Generate(datagen.DefaultParams(2000))
	o2Bind := func() algebra.Op {
		return &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
			`set[ *class[ artifact.tuple[ title: $t2, price: $p ] ] ]`)}
	}
	for _, k := range []int{1, 16, 128, 1024, 1600} {
		left := tab.New("$t")
		for i := 0; i < k && i < len(w.Works); i++ {
			title := w.Works[i].Child("title")
			left.Add(tab.AtomCell(*title.Atom))
		}
		bind := &algebra.DJoin{
			L: &algebra.Literal{T: left},
			R: &algebra.SourceQuery{Source: "o2artifact",
				Plan: &algebra.Select{From: o2Bind(), Pred: algebra.MustParseExpr(`$t2 = $t`)}},
		}
		fetch := &algebra.Join{
			L:    &algebra.Literal{T: left},
			R:    &algebra.SourceQuery{Source: "o2artifact", Plan: o2Bind()},
			Pred: algebra.MustParseExpr(`$t = $t2`),
		}
		ctx1, ctx2 := sourceCtx(w), sourceCtx(w)
		t1 := time.Now()
		r1, err := exec.Collect(bind, ctx1)
		if err != nil {
			return err
		}
		d1 := time.Since(t1)
		t2 := time.Now()
		r2, err := exec.Collect(fetch, ctx2)
		if err != nil {
			return err
		}
		d2 := time.Since(t2)
		if !r1.EqualUnordered(r2) {
			return fmt.Errorf("E11 plans disagree at left=%d (%d vs %d rows)", k, r1.Len(), r2.Len())
		}
		fmt.Printf("%-8d %14s %14s %14d %14d\n", k,
			d1.Round(10*time.Microsecond), d2.Round(10*time.Microsecond),
			ctx1.Stats.TuplesShipped, ctx2.Stats.TuplesShipped)
	}
	return nil
}

func e12() error {
	fmt.Println("\n== E12: source index ablation (pushed point query, artifacts=5000) ==")
	fmt.Printf("%-10s %14s\n", "variant", "time/query")
	for _, indexed := range []bool{false, true} {
		p := datagen.DefaultParams(5000)
		p.NoIndexes = !indexed
		w := datagen.Generate(p)
		ow := o2wrap.New("o2artifact", w.DB)
		plan := &algebra.Select{
			From: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
				`set[ *class[ artifact.tuple[ title: $t, price: $p ] ] ]`)},
			Pred: algebra.MustParseExpr(`$t = "Painting 777"`),
		}
		const reps = 50
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := ow.Push(plan, nil); err != nil {
				return err
			}
		}
		name := "scan"
		if indexed {
			name = "indexed"
		}
		fmt.Printf("%-10s %14s\n", name, (time.Since(start) / reps).Round(time.Microsecond))
	}
	return nil
}

// e13 isolates the optimizer rounds on Q2: composition only, plus
// capability pushdown, plus information passing.
func e13(n int) error {
	m, w, err := setup(n)
	if err != nil {
		return err
	}
	printHead(fmt.Sprintf("E13: optimizer-round ablation on Q2 (artifacts=%d)", n))
	variants := []struct {
		name string
		tune func(*optimizer.Options)
	}{
		{"round 1 only", func(o *optimizer.Options) { o.DisablePushdown = true; o.InfoPassing = false }},
		{"rounds 1+2", func(o *optimizer.Options) { o.InfoPassing = false }},
		{"rounds 1+2+3 (full)", nil},
	}
	var first *mediator.Result
	for _, v := range variants {
		res, d, err := med(func() (*mediator.Result, error) { return m.QueryCustom(datagen.Q2Src, v.tune) })
		if err != nil {
			return err
		}
		printRow(v.name, res, d)
		if first == nil {
			first = res
		} else if !first.Tab.EqualUnordered(res.Tab) {
			return fmt.Errorf("E13 variants disagree (%s)", v.name)
		}
	}
	if first.Tab.Len() != len(w.Q2Titles) {
		return fmt.Errorf("E13 correctness check failed")
	}
	return nil
}

// delaySource adds a fixed service latency to every fetch and push — the
// wide-area round trip the parallel engine overlaps.
type delaySource struct {
	algebra.Source
	d time.Duration
}

func (s *delaySource) Fetch(doc string) (data.Forest, error) {
	time.Sleep(s.d)
	return s.Source.Fetch(doc)
}

func (s *delaySource) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	time.Sleep(s.d)
	return s.Source.Push(plan, params)
}

// PushBatch pays the latency once per batch — a batched push is a single
// round trip in the Section 5.3 cost model; the per-binding evaluation is
// local work at the wrapper.
func (s *delaySource) PushBatch(plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	return s.PushBatchContext(context.Background(), plan, bindings)
}

func (s *delaySource) PushBatchContext(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	time.Sleep(s.d)
	if bs, ok := s.Source.(algebra.BatchSource); ok {
		return bs.PushBatchContext(ctx, plan, bindings)
	}
	out := make([]*tab.Tab, len(bindings))
	for i, b := range bindings {
		t, err := s.Source.Push(plan, b)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// FetchStream keeps the wrapped source's streaming capability visible
// through the latency shim (embedding the Source interface would hide it):
// the round-trip cost is paid once at open, the chunks flow at memory speed.
func (s *delaySource) FetchStream(ctx context.Context, doc string) (algebra.ForestCursor, error) {
	time.Sleep(s.d)
	if ss, ok := s.Source.(algebra.StreamSource); ok {
		return ss.FetchStream(ctx, doc)
	}
	f, err := s.Source.Fetch(doc)
	if err != nil {
		return nil, err
	}
	return algebra.NewSliceForestCursor(f, tab.DefaultStreamChunk), nil
}

// PushStream is FetchStream for pushed plans.
func (s *delaySource) PushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	time.Sleep(s.d)
	if ps, ok := s.Source.(algebra.PushStreamSource); ok {
		return ps.PushStream(ctx, plan, params)
	}
	t, err := s.Source.Push(plan, params)
	if err != nil {
		return nil, err
	}
	return tab.NewSliceCursor(t, tab.DefaultStreamChunk), nil
}

// wireDeploy stands up the Figure 2 scenario over real TCP — both wrappers
// behind wire servers with the given per-round-trip latency — and returns a
// mediator connected through wire clients plus a teardown function.
func wireDeploy(n int, latency time.Duration) (*mediator.Mediator, *datagen.Workload, func(), error) {
	return wireDeployFaulty(n, latency, [2]*faults.Injector{}, nil)
}

// wireDeployFaulty is wireDeploy with per-wrapper fault injectors (nil =
// clean) and an optional transport retry policy override for the mediator's
// wire clients (nil = default).
func wireDeployFaulty(n int, latency time.Duration, inj [2]*faults.Injector, retry *wire.RetryPolicy) (*mediator.Mediator, *datagen.Workload, func(), error) {
	w := datagen.Generate(datagen.DefaultParams(n))
	ow := o2wrap.New("o2artifact", w.DB)
	schema := ow.ExportSchema()
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	exps := []wire.Exported{
		{Source: &delaySource{Source: ow, d: latency}, Interface: ow.ExportInterface(),
			Structures: map[string]wire.StructureRef{
				"artifacts": {Model: schema, Pattern: "Artifact"},
				"persons":   {Model: schema, Pattern: "Person"},
			}},
		{Source: &delaySource{Source: ww, d: latency}, Interface: ww.ExportInterface(),
			Structures: map[string]wire.StructureRef{
				"works": {Model: ww.ExportStructure(), Pattern: "Works"},
			}},
	}
	m := mediator.New()
	var closers []func()
	teardown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	for i, exp := range exps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			teardown()
			return nil, nil, nil, err
		}
		var serveLn net.Listener = ln
		if inj[i] != nil {
			serveLn = inj[i].Listener(ln)
		}
		srv := wire.Serve(serveLn, exp)
		closers = append(closers, srv.Close)
		c, err := wire.DialWith(context.Background(), srv.Addr(), wire.Options{Retry: retry})
		if err != nil {
			teardown()
			return nil, nil, nil, err
		}
		closers = append(closers, func() { c.Close() })
		iface, err := c.ImportInterface()
		if err != nil {
			teardown()
			return nil, nil, nil, err
		}
		if err := m.Connect(c, iface); err != nil {
			teardown()
			return nil, nil, nil, err
		}
		sts, err := c.ImportStructures()
		if err != nil {
			teardown()
			return nil, nil, nil, err
		}
		for doc, ref := range sts {
			m.ImportStructure(doc, ref.Model, ref.Pattern)
		}
	}
	m.RegisterFunc("contains", waiswrap.Contains)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		teardown()
		return nil, nil, nil, err
	}
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	return m, w, teardown, nil
}

// e15 sweeps the parallel execution engine's worker count on Q2's pushdown
// plan against wire wrappers with a simulated 2ms service latency. Per-row
// information passing is forced (PerRowDJoin) so the experiment keeps
// measuring what it always measured — the engine overlapping one round trip
// per DJoin outer row; E16 measures what batching saves on top. Rows and
// push counts are asserted identical to serial at every point.
func e15(n int) error {
	const latency = 2 * time.Millisecond
	m, w, teardown, err := wireDeploy(n, latency)
	if err != nil {
		return err
	}
	defer teardown()

	printHead(fmt.Sprintf("E15: parallel engine on Q2 over wire, per-row passing, %v source latency (artifacts=%d)", latency, n))
	var serial *mediator.Result
	for _, workers := range []int{1, 2, 4, 8} {
		opts := mediator.ExecOptions{Parallelism: workers, Timeout: time.Minute, PerRowDJoin: true}
		res, d, err := med(func() (*mediator.Result, error) {
			return m.ExecuteContext(context.Background(), datagen.Q2Src, opts)
		})
		if err != nil {
			return err
		}
		printRow(fmt.Sprintf("workers=%d", workers), res, d)
		if serial == nil {
			serial = res
		} else if !serial.Tab.Equal(res.Tab) || serial.Stats.SourcePushes != res.Stats.SourcePushes {
			return fmt.Errorf("E15: workers=%d diverges from serial", workers)
		}
	}
	if serial.Tab.Len() != len(w.Q2Titles) {
		return fmt.Errorf("E15 correctness check failed")
	}
	return nil
}

// e16 measures set-at-a-time information passing on Q2 over the same wire
// deployment as E15: per-row pushes (batch size 1) versus batched pushes at
// chunk sizes 8 and 64, cold versus warm wrapper-result cache. Every variant
// is asserted row-identical to the per-row baseline.
func e16(n int) error {
	const latency = 2 * time.Millisecond
	m, w, teardown, err := wireDeploy(n, latency)
	if err != nil {
		return err
	}
	defer teardown()

	printHead(fmt.Sprintf("E16: batched DJoin pushdown on Q2 over wire, %v source latency (artifacts=%d)", latency, n))
	baseline, d, err := med(func() (*mediator.Result, error) {
		return m.ExecuteContext(context.Background(), datagen.Q2Src,
			mediator.ExecOptions{Parallelism: 1, PerRowDJoin: true})
	})
	if err != nil {
		return err
	}
	printRow("batch=1 (per row)", baseline, d)
	if baseline.Tab.Len() != len(w.Q2Titles) {
		return fmt.Errorf("E16 correctness check failed")
	}
	for _, chunk := range []int{8, 64} {
		res, d, err := med(func() (*mediator.Result, error) {
			return m.ExecuteContext(context.Background(), datagen.Q2Src,
				mediator.ExecOptions{Parallelism: 1, BatchChunk: chunk})
		})
		if err != nil {
			return err
		}
		printRow(fmt.Sprintf("batch=%d", chunk), res, d)
		if !res.Tab.Equal(baseline.Tab) {
			return fmt.Errorf("E16: batch=%d diverges from per-row rows", chunk)
		}
	}
	// Cold fills the mediator's result cache, warm reruns against it.
	cold, d, err := med(func() (*mediator.Result, error) {
		return m.ExecuteContext(context.Background(), datagen.Q2Src,
			mediator.ExecOptions{Parallelism: 1, CacheSize: 4096})
	})
	if err != nil {
		return err
	}
	printRow("batch=64, cache cold", cold, d)
	warm, d, err := med(func() (*mediator.Result, error) {
		return m.ExecuteContext(context.Background(), datagen.Q2Src,
			mediator.ExecOptions{Parallelism: 1, CacheSize: 4096})
	})
	if err != nil {
		return err
	}
	printRow("batch=64, cache warm", warm, d)
	if !warm.Tab.Equal(baseline.Tab) {
		return fmt.Errorf("E16: warm-cache rows diverge")
	}
	if warm.Stats.CacheHits == 0 || warm.Stats.SourcePushes != 0 {
		return fmt.Errorf("E16: warm cache hits=%d pushes=%d, want >0 and 0",
			warm.Stats.CacheHits, warm.Stats.SourcePushes)
	}
	fmt.Printf("   warm cache: hits=%d misses=%d (cold run: misses=%d)\n",
		warm.Stats.CacheHits, warm.Stats.CacheMisses, cold.Stats.CacheMisses)
	return nil
}

// e17 exercises the fault-tolerance layer on Q2 over the wire deployment:
// first a clean run with the retry layer disabled versus enabled (the retry
// machinery must cost nothing and change nothing when the network behaves),
// then per-row Q2 under 1% and 10% injected transport faults (dropped
// connections, truncated frames, garbled payloads). Every faulted run must
// return rows identical to the clean baseline — the client absorbs the
// faults with retries and redials, which the table reports.
func e17(n int) error {
	const latency = 500 * time.Microsecond
	fmt.Printf("\n== E17: fault tolerance on Q2 over wire, per-row passing (artifacts=%d) ==\n", n)
	fmt.Printf("%-26s %8s %12s %9s %8s %8s\n", "variant", "rows", "time", "injected", "retries", "redials")

	opts := mediator.ExecOptions{Parallelism: 1, PerRowDJoin: true, Timeout: time.Minute}
	run := func(name string, rate float64, seeds [2]int64, retry *wire.RetryPolicy) (*tab.Tab, int, error) {
		var inj [2]*faults.Injector
		if rate > 0 {
			for i := range inj {
				inj[i] = faults.New(faults.Config{
					Seed:  seeds[i],
					Rate:  rate,
					Kinds: []faults.Kind{faults.Drop, faults.Truncate, faults.Garble},
					// Let the hello/interface/structures setup exchanges
					// through so faults land on query traffic.
					After: 3,
				})
			}
		}
		m, w, teardown, err := wireDeployFaulty(n, latency, inj, retry)
		if err != nil {
			return nil, 0, err
		}
		defer teardown()
		res, d, err := med(func() (*mediator.Result, error) {
			return m.ExecuteContext(context.Background(), datagen.Q2Src, opts)
		})
		if err != nil {
			return nil, 0, fmt.Errorf("E17 %s: %w", name, err)
		}
		if res.Tab.Len() != len(w.Q2Titles) {
			return nil, 0, fmt.Errorf("E17 %s: got %d rows, ground truth %d", name, res.Tab.Len(), len(w.Q2Titles))
		}
		injected := 0
		for _, in := range inj {
			if in != nil {
				injected += in.Injected()
			}
		}
		fmt.Printf("%-26s %8d %12s %9d %8d %8d\n", name, res.Tab.Len(),
			d.Round(10*time.Microsecond), injected, res.Stats.Retries, res.Stats.Redials)
		return res.Tab, injected, nil
	}

	noRetry := wire.DefaultRetryPolicy
	noRetry.MaxAttempts = 1
	clean, _, err := run("clean, retries off", 0, [2]int64{}, &noRetry)
	if err != nil {
		return err
	}
	base, _, err := run("clean, retries on", 0, [2]int64{}, nil)
	if err != nil {
		return err
	}
	if !base.Equal(clean) {
		return fmt.Errorf("E17: the retry layer changed clean results")
	}
	// At 10% the default 3 attempts leave a small chance of three faults in
	// a row exhausting the budget; a deeper budget makes recovery certain.
	hard := wire.DefaultRetryPolicy
	hard.MaxAttempts = 6
	for _, f := range []struct {
		name  string
		rate  float64
		seeds [2]int64
		retry *wire.RetryPolicy
	}{
		{"faults 1%", 0.01, [2]int64{17, 23}, nil},
		{"faults 10%", 0.10, [2]int64{29, 31}, &hard},
	} {
		got, injected, err := run(f.name, f.rate, f.seeds, f.retry)
		if err != nil {
			return err
		}
		if !got.Equal(base) {
			return fmt.Errorf("E17 %s: rows diverge from clean baseline", f.name)
		}
		if injected == 0 && f.rate >= 0.05 {
			return fmt.Errorf("E17 %s: no faults injected — nothing was exercised", f.name)
		}
	}
	return nil
}

// benchRecord is one -bench-json measurement of Q2 over the wire deployment.
type benchRecord struct {
	Name      string  `json:"name"`
	NsPerOp   int64   `json:"ns_per_op"`
	Pushes    int     `json:"source_pushes"`
	CacheHits int     `json:"cache_hits"`
	Rows      int     `json:"rows"`
	Speedup   float64 `json:"speedup_vs_per_row"`
	Retries   int     `json:"retries"`
	Redials   int     `json:"redials"`
	Injected  int     `json:"faults_injected,omitempty"`
	PeakAlloc int64   `json:"peak_alloc_bytes,omitempty"`
	FirstRow  int64   `json:"first_row_ns,omitempty"`
}

// liveSampler tracks the live-heap high-water mark of a measurement by
// forcing a collection at every sample and reading /gc/heap/live:bytes —
// the bytes the completed mark found reachable. (HeapAlloc right after a
// forced GC would also include whatever the still-running query goroutines
// allocated during the collection, a noise term that grows with allocation
// rate and run length; the per-mark live metric does not.) The recorded
// peak is therefore the largest set of rows and trees simultaneously
// retained — the quantity streaming bounds and materialization does not.
// The pre-run baseline is subtracted, so the workload and deployment
// themselves do not count.
type liveSampler struct {
	stop chan struct{}
	done chan struct{}
	base uint64
	peak uint64
}

// liveHeap forces a collection and returns the bytes its mark phase found
// reachable.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func startLiveSampler(period time.Duration) *liveSampler {
	s := &liveSampler{stop: make(chan struct{}), done: make(chan struct{}), base: liveHeap()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if live := liveHeap(); live > s.peak {
					s.peak = live
				}
			}
		}
	}()
	return s
}

// stopPeak ends sampling, takes one final forced-GC sample (so short runs
// whose result is still retained are measured even if no tick fired) and
// returns the peak live bytes above the baseline.
func (s *liveSampler) stopPeak() int64 {
	close(s.stop)
	<-s.done
	if live := liveHeap(); live > s.peak {
		s.peak = live
	}
	if s.peak <= s.base {
		return 0
	}
	return int64(s.peak - s.base)
}

// hashRow folds one row into an order-sensitive hash; cell and row
// separators keep ("ab","c") distinct from ("a","bc").
func hashRow(h hash.Hash64, r tab.Row) {
	for _, c := range r {
		io.WriteString(h, c.String())
		h.Write([]byte{0x1f})
	}
	h.Write([]byte{0x1e})
}

func tabHash(t *tab.Tab) uint64 {
	h := fnv.New64a()
	for _, r := range t.Rows {
		hashRow(h, r)
	}
	return h.Sum64()
}

// streamRun is one drained streamed query: row count and order-sensitive
// content hash (the rows themselves are never retained — that is the point),
// first-row and total latency, and the settled Result.
type streamRun struct {
	rows     int
	sum      uint64
	firstRow time.Duration
	total    time.Duration
	res      *mediator.Result
}

// streamMeasure runs src on the pipelined path without materializing: rows
// are counted and hashed as chunks arrive and then dropped, so the live set
// stays bounded while byte-identity against a materialized run remains
// checkable via tabHash.
func streamMeasure(m *mediator.Mediator, src string, opts mediator.ExecOptions) (*streamRun, error) {
	start := time.Now()
	s, err := m.StreamContext(context.Background(), src, opts)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	r := &streamRun{}
	for c := range s.Chunks() {
		if r.rows == 0 && c.Len() > 0 {
			r.firstRow = time.Since(start)
		}
		for _, row := range c.Rows {
			hashRow(h, row)
		}
		r.rows += c.Len()
	}
	r.total = time.Since(start)
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	r.res = res
	r.sum = h.Sum64()
	return r, nil
}

// benchJSON runs the Fig. 9 Q2 variants (per-row serial and parallel,
// batched serial and parallel, warm cache, per-row under a 1% injected
// fault rate, batched with tracing on, and the same query compiled from
// XQuery-FLWR text) over the wire deployment and writes machine-readable
// results — the CI artifact BENCH_PR7.json.
func benchJSON(path string, n int, wrappers string) error {
	const latency = 2 * time.Millisecond
	m, _, teardown, err := wireDeploy(n, latency)
	if err != nil {
		return err
	}
	defer teardown()

	variants := []struct {
		name   string
		src    string
		opts   mediator.ExecOptions
		stream bool
	}{
		{name: "q2_per_row_serial", src: datagen.Q2Src, opts: mediator.ExecOptions{Parallelism: 1, PerRowDJoin: true}},
		{name: "q2_per_row_parallel4", src: datagen.Q2Src, opts: mediator.ExecOptions{Parallelism: 4, Timeout: time.Minute, PerRowDJoin: true}},
		{name: "q2_batched_serial", src: datagen.Q2Src, opts: mediator.ExecOptions{Parallelism: 1}},
		{name: "q2_batched_traced", src: datagen.Q2Src, opts: mediator.ExecOptions{Parallelism: 1, Trace: true}},
		{name: "q2_batched_parallel4", src: datagen.Q2Src, opts: mediator.ExecOptions{Parallelism: 4, Timeout: time.Minute}},
		// The pipelined engine, serial and parallel: rows never materialize
		// mediator-side (counted and hashed as chunks arrive), so these two
		// also report the live-heap peak and the first-row latency.
		{name: "q2_stream_serial", src: datagen.Q2Src, opts: mediator.ExecOptions{Parallelism: 1}, stream: true},
		{name: "q2_stream_parallel4", src: datagen.Q2Src, opts: mediator.ExecOptions{Parallelism: 4, Timeout: time.Minute}, stream: true},
		// The same query compiled from XQuery-FLWR text: parse + compile
		// overhead included, rows must match the hand-built plan exactly.
		// These run before the warm-cache variant: enabling the result
		// cache is sticky, and the compiled plan is identical to the
		// hand-built one, so it would be answered from cache.
		{name: "q2_xquery_batched_serial", src: datagen.Q2XQuerySrc, opts: mediator.ExecOptions{Parallelism: 1}},
		{name: "q2_xquery_batched_parallel4", src: datagen.Q2XQuerySrc, opts: mediator.ExecOptions{Parallelism: 4, Timeout: time.Minute}},
		{name: "q2_warm_cache", src: datagen.Q2Src, opts: mediator.ExecOptions{Parallelism: 1, CacheSize: 4096}},
	}
	var records []benchRecord
	var baseline *mediator.Result
	var baselineNs int64
	for _, v := range variants {
		if v.stream {
			sampler := startLiveSampler(25 * time.Millisecond)
			run, err := streamMeasure(m, v.src, v.opts)
			peak := sampler.stopPeak()
			if err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			if run.rows != baseline.Tab.Len() || run.sum != tabHash(baseline.Tab) {
				return fmt.Errorf("%s: streamed rows diverge from per-row baseline", v.name)
			}
			records = append(records, benchRecord{
				Name:      v.name,
				NsPerOp:   run.total.Nanoseconds(),
				Pushes:    run.res.Stats.SourcePushes,
				CacheHits: run.res.Stats.CacheHits,
				Rows:      run.rows,
				Speedup:   float64(baselineNs) / float64(maxI64(run.total.Nanoseconds(), 1)),
				Retries:   run.res.Stats.Retries,
				Redials:   run.res.Stats.Redials,
				PeakAlloc: peak,
				FirstRow:  run.firstRow.Nanoseconds(),
			})
			continue
		}
		// The warm-cache variant measures its second run; the first fills
		// the cache.
		res, d, err := med(func() (*mediator.Result, error) {
			return m.ExecuteContext(context.Background(), v.src, v.opts)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		if v.opts.CacheSize > 0 {
			if res, d, err = med(func() (*mediator.Result, error) {
				return m.ExecuteContext(context.Background(), v.src, v.opts)
			}); err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
		}
		if baseline == nil {
			baseline, baselineNs = res, d.Nanoseconds()
		} else if !res.Tab.Equal(baseline.Tab) {
			return fmt.Errorf("%s: rows diverge from per-row baseline", v.name)
		}
		records = append(records, benchRecord{
			Name:      v.name,
			NsPerOp:   d.Nanoseconds(),
			Pushes:    res.Stats.SourcePushes,
			CacheHits: res.Stats.CacheHits,
			Rows:      res.Tab.Len(),
			Speedup:   float64(baselineNs) / float64(maxI64(d.Nanoseconds(), 1)),
			Retries:   res.Stats.Retries,
			Redials:   res.Stats.Redials,
		})
	}

	// The fault variant gets its own deployment: both wrappers behind a 1%
	// injector, per-row passing so faults land on real query traffic. Rows
	// must still match the clean baseline exactly.
	var inj [2]*faults.Injector
	for i, seed := range []int64{17, 23} {
		inj[i] = faults.New(faults.Config{
			Seed:  seed,
			Rate:  0.01,
			Kinds: []faults.Kind{faults.Drop, faults.Truncate, faults.Garble},
			After: 3,
		})
	}
	fm, _, fteardown, err := wireDeployFaulty(n, latency, inj, nil)
	if err != nil {
		return err
	}
	defer fteardown()
	res, d, err := med(func() (*mediator.Result, error) {
		return fm.ExecuteContext(context.Background(), datagen.Q2Src,
			mediator.ExecOptions{Parallelism: 1, PerRowDJoin: true, Timeout: time.Minute})
	})
	if err != nil {
		return fmt.Errorf("q2_per_row_faults_1pct: %w", err)
	}
	if !res.Tab.Equal(baseline.Tab) {
		return fmt.Errorf("q2_per_row_faults_1pct: rows diverge from clean baseline")
	}
	records = append(records, benchRecord{
		Name:      "q2_per_row_faults_1pct",
		NsPerOp:   d.Nanoseconds(),
		Pushes:    res.Stats.SourcePushes,
		CacheHits: res.Stats.CacheHits,
		Rows:      res.Tab.Len(),
		Speedup:   float64(baselineNs) / float64(maxI64(d.Nanoseconds(), 1)),
		Retries:   res.Stats.Retries,
		Redials:   res.Stats.Redials,
		Injected:  inj[0].Injected() + inj[1].Injected(),
	})
	// The streaming memory dimension: Q2 across a ≥10× result-size sweep,
	// materialized versus pipelined, against out-of-process wrappers so the
	// mediator's live set is measured alone. The streaming live-heap peak
	// must stay roughly flat while the materialized one grows with the
	// result.
	sweep, err := memorySweep([]int{400, 1200, 4000}, wrappers)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(map[string]any{
		"experiment":   "fig9_q2_batched_pushdown",
		"artifacts":    n,
		"latency_ms":   latency.Milliseconds(),
		"results":      records,
		"memory_sweep": sweep,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d variants, artifacts=%d, %d sweep points)\n", path, len(records), n, len(sweep))
	return nil
}

// memRecord is one point of the streaming memory sweep: Q2 at one workload
// size, materialized versus pipelined, with live-heap peaks and latencies.
type memRecord struct {
	Artifacts        int   `json:"artifacts"`
	Rows             int   `json:"rows"`
	MaterializedPeak int64 `json:"materialized_peak_bytes"`
	StreamingPeak    int64 `json:"streaming_peak_bytes"`
	MaterializedNs   int64 `json:"materialized_ns"`
	StreamingNs      int64 `json:"streaming_ns"`
	FirstRowNs       int64 `json:"first_row_ns"`
}

// memorySweep measures Q2 at each workload size on a fresh out-of-process
// deployment (the wrapper binaries run as child processes, so the sampled
// heap is the mediator's alone): the materialized baseline first
// (materializedRun over one-shot responses; its result hashed, then
// dropped), the streamed query second, rows asserted byte-identical via the
// hash.
func memorySweep(sizes []int, wrappers string) ([]memRecord, error) {
	dir, cleanup, err := ensureWrappers(wrappers)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	var out []memRecord
	for _, n := range sizes {
		m, oneShot, teardown, err := externalDeploy(dir, n)
		if err != nil {
			return nil, err
		}
		rec, err := memPoint(m, oneShot, n)
		teardown()
		if err != nil {
			return nil, err
		}
		out = append(out, *rec)
	}
	return out, nil
}

func memPoint(m, oneShot *mediator.Mediator, n int) (*memRecord, error) {
	opts := mediator.ExecOptions{Parallelism: 1, Timeout: time.Minute}
	sampler := startLiveSampler(10 * time.Millisecond)
	base, d, err := med(func() (*mediator.Result, error) {
		return materializedRun(oneShot, datagen.Q2Src, opts)
	})
	matPeak := sampler.stopPeak()
	if err != nil {
		return nil, err
	}
	baseSum, baseRows := tabHash(base.Tab), base.Tab.Len()
	// Drop the materialized result before sampling the streamed run, so the
	// streamed baseline starts from the same live set.
	base = nil
	_ = base
	sampler = startLiveSampler(10 * time.Millisecond)
	run, serr := streamMeasure(m, datagen.Q2Src, opts)
	streamPeak := sampler.stopPeak()
	if serr != nil {
		return nil, serr
	}
	if run.rows != baseRows || run.sum != baseSum {
		return nil, fmt.Errorf("memory sweep n=%d: streamed rows diverge from materialized", n)
	}
	return &memRecord{
		Artifacts:        n,
		Rows:             baseRows,
		MaterializedPeak: matPeak,
		StreamingPeak:    streamPeak,
		MaterializedNs:   d.Nanoseconds(),
		StreamingNs:      run.total.Nanoseconds(),
		FirstRowNs:       run.firstRow.Nanoseconds(),
	}, nil
}

// materializedRun is the baseline the memory sweep compares streaming
// against: bottom-up materialized evaluation, where every operator's inputs
// are whole tables before the operator runs. It evaluates each input of the
// optimized plan to a table (ExecutePlan), keeps it alive as a Literal in
// the rebuilt plan, and runs the operator over those Literals; given a
// mediator over oneShotClients, every source response arrives whole too.
// Inner DJoin plans and pushed subplans stay as they are: they run per
// binding, at the sources.
func materializedRun(m *mediator.Mediator, src string, opts mediator.ExecOptions) (*mediator.Result, error) {
	naive, err := m.Compose(src)
	if err != nil {
		return nil, err
	}
	plan, err := materializeInputs(m, m.Optimize(naive), opts)
	if err != nil {
		return nil, err
	}
	return m.ExecutePlan(context.Background(), plan, opts)
}

// materializeInputs rebuilds op over Literals holding its inputs' results.
func materializeInputs(m *mediator.Mediator, op algebra.Op, opts mediator.ExecOptions) (algebra.Op, error) {
	var err error
	whole := func(in algebra.Op) algebra.Op {
		if err != nil {
			return nil
		}
		var p algebra.Op
		if p, err = materializeInputs(m, in, opts); err != nil {
			return nil
		}
		var res *mediator.Result
		if res, err = m.ExecutePlan(context.Background(), p, opts); err != nil {
			return nil
		}
		return &algebra.Literal{T: res.Tab}
	}
	var out algebra.Op
	switch x := op.(type) {
	case *algebra.Doc, *algebra.Literal, *algebra.SourceQuery:
		out = op
	case *algebra.Bind:
		out = op
		if x.From != nil {
			out = &algebra.Bind{From: whole(x.From), Doc: x.Doc, Col: x.Col, F: x.F}
		}
	case *algebra.Select:
		out = &algebra.Select{From: whole(x.From), Pred: x.Pred}
	case *algebra.Project:
		out = &algebra.Project{From: whole(x.From), Cols: x.Cols}
	case *algebra.MapExpr:
		out = &algebra.MapExpr{From: whole(x.From), Col: x.Col, E: x.E}
	case *algebra.Distinct:
		out = &algebra.Distinct{From: whole(x.From)}
	case *algebra.Group:
		out = &algebra.Group{From: whole(x.From), Keys: x.Keys, Into: x.Into}
	case *algebra.Sort:
		out = &algebra.Sort{From: whole(x.From), Cols: x.Cols}
	case *algebra.TreeOp:
		out = &algebra.TreeOp{From: whole(x.From), C: x.C, OutCol: x.OutCol}
	case *algebra.Join:
		out = &algebra.Join{L: whole(x.L), R: whole(x.R), Pred: x.Pred}
	case *algebra.Union:
		out = &algebra.Union{L: whole(x.L), R: whole(x.R)}
	case *algebra.Intersect:
		out = &algebra.Intersect{L: whole(x.L), R: whole(x.R)}
	case *algebra.DJoin:
		out = &algebra.DJoin{L: whole(x.L), R: x.R}
	default:
		return nil, fmt.Errorf("materializeInputs: unknown operator %T", op)
	}
	return out, err
}

// runStreamSmoke is the -stream-smoke mode: one large-n Q2 against
// out-of-process wrappers, materialized then pipelined, asserting the three
// streaming promises — byte-identical rows (checked inside memPoint),
// bounded memory (mediator live-heap peak under half the materialized
// run's) and low time-to-first-row (under 25% of total query time).
func runStreamSmoke(wrappers string) error {
	const n = 4000
	fmt.Printf("stream-smoke: Q2 over wire, artifacts=%d\n", n)
	recs, err := memorySweep([]int{n}, wrappers)
	if err != nil {
		return err
	}
	r := recs[0]
	fmt.Printf("  materialized: live-heap peak %d bytes, %s\n",
		r.MaterializedPeak, time.Duration(r.MaterializedNs).Round(time.Millisecond))
	fmt.Printf("  streaming:    live-heap peak %d bytes, %s (first row after %s)\n",
		r.StreamingPeak, time.Duration(r.StreamingNs).Round(time.Millisecond),
		time.Duration(r.FirstRowNs).Round(time.Millisecond))
	if r.StreamingPeak >= r.MaterializedPeak/2 {
		return fmt.Errorf("stream-smoke: streaming live-heap peak %d bytes is not under half the materialized %d",
			r.StreamingPeak, r.MaterializedPeak)
	}
	if 4*r.FirstRowNs >= r.StreamingNs {
		return fmt.Errorf("stream-smoke: first row after %v of a %v query, want < 25%%",
			time.Duration(r.FirstRowNs), time.Duration(r.StreamingNs))
	}
	fmt.Println("stream-smoke: OK")
	return nil
}
