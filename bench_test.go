package yat

// The benchmark harness of EXPERIMENTS.md: one benchmark (or benchmark
// family) per reproduced figure of the paper, plus the transfer/crossover
// sweeps the claims of Section 5.3 imply. Absolute numbers depend on this
// substrate; the *shapes* (who wins, by what factor, where the crossover
// falls) are the reproduction targets recorded in EXPERIMENTS.md.
//
// Run with:
//
//	go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/mediator"
	"repro/internal/o2wrap"
	"repro/internal/tab"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// benchSetup wires the cultural mediator over a generated workload.
func benchSetup(b *testing.B, n int) (*mediator.Mediator, *datagen.Workload) {
	b.Helper()
	w := datagen.Generate(datagen.DefaultParams(n))
	m, _, _, err := NewCulturalMediator(w.DB, w.Works)
	if err != nil {
		b.Fatal(err)
	}
	return m, w
}

// sourceCtx builds an evaluation context backed by the two wrappers.
func sourceCtx(w *datagen.Workload) *algebra.Context {
	ctx := algebra.NewContext()
	ow := o2wrap.New("o2artifact", w.DB)
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	ctx.Sources["o2artifact"] = ow
	ctx.Sources["xmlartwork"] = ww
	ctx.Funcs["contains"] = waiswrap.Contains
	return ctx
}

func mustEval(b *testing.B, op algebra.Op, ctx *algebra.Context) int {
	b.Helper()
	res, err := exec.Collect(op, ctx)
	if err != nil {
		b.Fatal(err)
	}
	return res.Len()
}

// ---------------------------------------------------------------------------
// Figure 4 — the Bind and Tree operators
// ---------------------------------------------------------------------------

func BenchmarkFig4Bind(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("works=%d", n), func(b *testing.B) {
			w := datagen.Generate(datagen.DefaultParams(n))
			ctx := algebra.NewContext()
			ctx.Catalog["works"] = w.Works
			bind := &algebra.Bind{Doc: "works", F: filter.MustParse(
				`works[ *work[ artist: $a, title: $t, style: $s, size: $si, *($fields) ] ]`)}
			ctx.Catalog["works"] = wrapWorks(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustEval(b, bind, ctx)
			}
		})
	}
}

func BenchmarkFig4Tree(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("works=%d", n), func(b *testing.B) {
			w := datagen.Generate(datagen.DefaultParams(n))
			ctx := algebra.NewContext()
			ctx.Catalog["works"] = wrapWorks(w)
			plan := &algebra.TreeOp{
				From: &algebra.Bind{Doc: "works", F: filter.MustParse(
					`works[ *work[ artist: $a, title: $t ] ]`)},
				C: algebra.MustParseCons(`artists[ *($a) artist[ name: $a, *($t) title: $t ] ]`),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustEval(b, plan, ctx)
			}
		})
	}
}

func wrapWorks(w *datagen.Workload) []*Node {
	root := &Node{Label: "works"}
	root.Kids = append(root.Kids, w.Works...)
	return []*Node{root}
}

// ---------------------------------------------------------------------------
// Figure 7 (upper) — Bind vs DJoin split vs Join with the extent
// ---------------------------------------------------------------------------

// fig7Plans builds the three equivalent plans of Figure 7's upper row: the
// monolithic Bind navigating owner references, its DJoin split, and the
// Join against the persons extent with hashable identifier columns.
func fig7Plans() (mono, split, join algebra.Op) {
	mono = &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
		`set[ *class[ artifact.tuple[ title: $t,
		      owners.list[ *class[ person.tuple[ name: $o ] ] ] ] ] ]`)}
	split = &algebra.DJoin{
		L: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
			`set[ *class[ artifact.tuple[ title: $t, owners@$ow ] ] ]`)},
		R: &algebra.Bind{Col: "$ow", F: filter.MustParse(
			`owners.list[ *class[ person.tuple[ name: $o ] ] ]`)},
	}
	join = &algebra.Join{
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
	}
	return mono, split, join
}

func BenchmarkFig7BindSplitJoin(b *testing.B) {
	mono, split, join := fig7Plans()
	for _, n := range []int{100, 1000} {
		w := datagen.Generate(datagen.DefaultParams(n))
		for _, bench := range []struct {
			name string
			plan algebra.Op
			proj []string
		}{
			{"MonolithicBind", mono, []string{"$t", "$o"}},
			{"DJoinSplit", split, []string{"$t", "$o"}},
			{"JoinWithExtent", join, []string{"$t", "$o"}},
		} {
			b.Run(fmt.Sprintf("%s/artifacts=%d", bench.name, n), func(b *testing.B) {
				plan := &algebra.Project{From: bench.plan, Cols: bench.proj}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ctx := sourceCtx(w) // fresh fetch each round: store population included
					b.StartTimer()
					mustEval(b, plan, ctx)
				}
			})
		}
	}
}

// TestFig7PlansEquivalent pins the equivalence the benchmark relies on.
func TestFig7PlansEquivalent(t *testing.T) {
	mono, split, join := fig7Plans()
	w := datagen.Generate(datagen.DefaultParams(60))
	var results []*Tab
	for _, plan := range []algebra.Op{mono, split, join} {
		p := &algebra.Project{From: plan, Cols: []string{"$t", "$o"}}
		res, err := exec.Collect(p, sourceCtx(w))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !results[0].EqualUnordered(results[1]) || !results[0].EqualUnordered(results[2]) {
		t.Fatalf("Figure 7 plans disagree: %d / %d / %d rows",
			results[0].Len(), results[1].Len(), results[2].Len())
	}
	if results[0].Len() == 0 {
		t.Fatal("empty benchmark fixture")
	}
}

// ---------------------------------------------------------------------------
// Figure 7 (lower middle) — projection/type-driven Bind simplification
// ---------------------------------------------------------------------------

func BenchmarkFig7TypeSimplification(b *testing.B) {
	full := filter.MustParse(
		`works[ *work[ artist: $a, title: $t, style: $s, size: $si, *($fields) ] ]`)
	simplified := filter.MustParse(`works[ *work[ title: $t ] ]`)
	for _, n := range []int{1000, 10000} {
		w := datagen.Generate(datagen.DefaultParams(n))
		forest := wrapWorks(w)
		for _, bench := range []struct {
			name string
			f    *filter.Filter
		}{
			{"FullFilter", full},
			{"SimplifiedFilter", simplified},
		} {
			b.Run(fmt.Sprintf("%s/works=%d", bench.name, n), func(b *testing.B) {
				ctx := algebra.NewContext()
				ctx.Catalog["works"] = forest
				plan := &algebra.Project{
					From: &algebra.Bind{Doc: "works", F: bench.f},
					Cols: []string{"$t"},
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustEval(b, plan, ctx)
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 8 — Q1: naive composition vs optimized
// ---------------------------------------------------------------------------

func BenchmarkFig8Q1(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		m, _ := benchSetup(b, n)
		b.Run(fmt.Sprintf("Naive/artifacts=%d", n), func(b *testing.B) {
			benchQuery(b, m, Q1, true)
		})
		b.Run(fmt.Sprintf("Optimized/artifacts=%d", n), func(b *testing.B) {
			benchQuery(b, m, Q1, false)
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 9 — Q2: naive vs mediator-side optimized vs capability pushdown
// ---------------------------------------------------------------------------

func BenchmarkFig9Q2(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		w := datagen.Generate(datagen.DefaultParams(n))
		m, _, _, err := NewCulturalMediator(w.DB, w.Works)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Naive/artifacts=%d", n), func(b *testing.B) {
			benchQuery(b, m, Q2, true)
		})
		b.Run(fmt.Sprintf("Pushdown/artifacts=%d", n), func(b *testing.B) {
			benchQuery(b, m, Q2, false)
		})
	}
}

func benchQuery(b *testing.B, m *mediator.Mediator, src string, naive bool) {
	b.Helper()
	run := func() *mediator.Result {
		var res *mediator.Result
		var err error
		if naive {
			res, err = m.QueryNaive(src)
		} else {
			res, err = m.Query(src)
		}
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	first := run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(first.Stats.BytesShipped), "bytes-shipped")
	b.ReportMetric(float64(first.Stats.TuplesShipped), "tuples-shipped")
	b.ReportMetric(float64(first.Stats.SourceFetches), "fetches")
	b.ReportMetric(float64(first.Stats.SourcePushes), "pushes")
}

// ---------------------------------------------------------------------------
// Figure 9 (parallel) — Q2 pushdown on the parallel execution engine
// ---------------------------------------------------------------------------

// delaySource adds a fixed service latency to every fetch and push — the
// wide-area round trip of the paper's setting, where sources are remote and
// Section 5.3's costs are dominated by per-query round trips. The latency is
// what the parallel engine overlaps; the work stays identical.
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

// PushBatch pays the latency once for the whole batch — a batched push is one
// round trip (Section 5.3's cost model); the per-binding evaluation itself is
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
	for i, bd := range bindings {
		t, err := s.Source.Push(plan, bd)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// wireMediator deploys the Figure 2 scenario over real TCP with the given
// per-request source latency and returns a mediator whose sources are wire
// clients.
func wireMediator(b *testing.B, w *datagen.Workload, latency time.Duration) *mediator.Mediator {
	b.Helper()
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
	for _, exp := range exps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := wire.Serve(ln, exp)
		b.Cleanup(srv.Close)
		c, err := wire.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		iface, err := c.ImportInterface()
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Connect(c, iface); err != nil {
			b.Fatal(err)
		}
		sts, err := c.ImportStructures()
		if err != nil {
			b.Fatal(err)
		}
		for doc, ref := range sts {
			m.ImportStructure(doc, ref.Model, ref.Pattern)
		}
	}
	m.RegisterFunc("contains", waiswrap.Contains)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		b.Fatal(err)
	}
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	return m
}

// BenchmarkFig9Q2Parallel runs Q2's pushdown plan — a DJoin pushing one O₂
// sub-query per qualifying work — on the parallel engine against wire
// wrappers with a 2ms service latency. Serial evaluation pays the latency
// once per outer row; the engine overlaps up to `workers` rows. Rows and
// push counts are asserted identical to serial before timing.
func BenchmarkFig9Q2Parallel(b *testing.B) {
	const latency = 2 * time.Millisecond
	w := datagen.Generate(datagen.DefaultParams(1000))
	m := wireMediator(b, w, latency)
	serial, err := m.ExecuteContext(context.Background(), Q2, mediator.ExecOptions{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	if serial.Tab.Len() == 0 || serial.Stats.SourcePushes == 0 {
		b.Fatalf("degenerate fixture: %d rows, %d pushes", serial.Tab.Len(), serial.Stats.SourcePushes)
	}
	workers := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		workers = append(workers, g)
	}
	for _, n := range workers {
		opts := mediator.ExecOptions{Parallelism: n, Timeout: time.Minute}
		res, err := m.ExecuteContext(context.Background(), Q2, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Tab.Equal(serial.Tab) || res.Stats.SourcePushes != serial.Stats.SourcePushes {
			b.Fatalf("workers=%d diverges from serial: %d vs %d rows, %d vs %d pushes",
				n, res.Tab.Len(), serial.Tab.Len(), res.Stats.SourcePushes, serial.Stats.SourcePushes)
		}
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.ExecuteContext(context.Background(), Q2, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(serial.Stats.SourcePushes), "pushes")
		})
	}
}

// ---------------------------------------------------------------------------
// E16 — set-at-a-time information passing: batched DJoin pushdown + cache
// ---------------------------------------------------------------------------

// BenchmarkFig9Q2Batched compares Q2's pushdown DJoin under per-row
// information passing (one wire round trip per outer row), batched pushes
// (the plan ships once per chunk of distinct binding sets), and a warm
// wrapper-result cache (no round trips at all). Rows must be byte-identical
// and ordered across all paths; the batched path must cut round trips
// (Stats.SourcePushes) by at least 5×.
func BenchmarkFig9Q2Batched(b *testing.B) {
	const latency = 2 * time.Millisecond
	w := datagen.Generate(datagen.DefaultParams(1000))
	m := wireMediator(b, w, latency)
	ctx := context.Background()

	perRowOpts := mediator.ExecOptions{Parallelism: 1, PerRowDJoin: true}
	perRow, err := m.ExecuteContext(ctx, Q2, perRowOpts)
	if err != nil {
		b.Fatal(err)
	}
	batchOpts := mediator.ExecOptions{Parallelism: 1}
	batched, err := m.ExecuteContext(ctx, Q2, batchOpts)
	if err != nil {
		b.Fatal(err)
	}
	if !perRow.Tab.Equal(batched.Tab) {
		b.Fatalf("batched rows diverge from per-row:\n%s\nvs\n%s", batched.Tab, perRow.Tab)
	}
	if perRow.Stats.SourcePushes < 5*batched.Stats.SourcePushes {
		b.Fatalf("batching saves too little: per-row %d pushes, batched %d",
			perRow.Stats.SourcePushes, batched.Stats.SourcePushes)
	}
	parOpts := mediator.ExecOptions{Parallelism: 4, Timeout: time.Minute}
	par, err := m.ExecuteContext(ctx, Q2, parOpts)
	if err != nil {
		b.Fatal(err)
	}
	if !par.Tab.Equal(batched.Tab) || par.Stats.SourcePushes != batched.Stats.SourcePushes {
		b.Fatalf("parallel batched diverges: %d vs %d pushes", par.Stats.SourcePushes, batched.Stats.SourcePushes)
	}

	cases := []struct {
		name   string
		opts   mediator.ExecOptions
		pushes int
	}{
		{"PerRow", perRowOpts, perRow.Stats.SourcePushes},
		{"Batched", batchOpts, batched.Stats.SourcePushes},
		{"Batched/workers=4", parOpts, par.Stats.SourcePushes},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.ExecuteContext(ctx, Q2, c.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.pushes), "pushes")
		})
	}

	// Warm cache last: once installed it persists in the mediator.
	warmOpts := mediator.ExecOptions{Parallelism: 1, CacheSize: 1024}
	if _, err := m.ExecuteContext(ctx, Q2, warmOpts); err != nil {
		b.Fatal(err) // cold run fills the cache
	}
	warm, err := m.ExecuteContext(ctx, Q2, warmOpts)
	if err != nil {
		b.Fatal(err)
	}
	if !warm.Tab.Equal(batched.Tab) {
		b.Fatalf("warm-cache rows diverge")
	}
	if warm.Stats.CacheHits == 0 || warm.Stats.SourcePushes != 0 {
		b.Fatalf("warm cache: hits=%d pushes=%d, want >0 and 0", warm.Stats.CacheHits, warm.Stats.SourcePushes)
	}
	b.Run("WarmCache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.ExecuteContext(ctx, Q2, warmOpts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(warm.Stats.CacheHits), "cache-hits")
		b.ReportMetric(0, "pushes")
	})
}

// ---------------------------------------------------------------------------
// E11 — information passing crossover: bind join vs fetch-all join
// ---------------------------------------------------------------------------

func BenchmarkE11JoinCrossover(b *testing.B) {
	// Left side cardinality varies (the number of works surviving the
	// contains selection); the right side is the O₂ source. The bind join
	// (DJoin) queries O₂ once per left row with parameters; the fetch-all
	// join ships the whole pushed extent once and joins at the mediator.
	const n = 2000
	w := datagen.Generate(datagen.DefaultParams(n))
	o2Bind := func() algebra.Op {
		return &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
			`set[ *class[ artifact.tuple[ title: $t2, price: $p ] ] ]`)}
	}
	for _, k := range []int{1, 16, 256, 1024} {
		left := leftRows(w, k)
		b.Run(fmt.Sprintf("BindJoin/left=%d", k), func(b *testing.B) {
			plan := &algebra.DJoin{
				L: &algebra.Literal{T: left},
				R: &algebra.SourceQuery{Source: "o2artifact",
					Plan: &algebra.Select{From: o2Bind(), Pred: algebra.MustParseExpr(`$t2 = $t`)}},
			}
			runCrossover(b, plan, w)
		})
		b.Run(fmt.Sprintf("FetchAllJoin/left=%d", k), func(b *testing.B) {
			plan := &algebra.Join{
				L:    &algebra.Literal{T: left},
				R:    &algebra.SourceQuery{Source: "o2artifact", Plan: o2Bind()},
				Pred: algebra.MustParseExpr(`$t = $t2`),
			}
			runCrossover(b, plan, w)
		})
	}
}

func leftRows(w *datagen.Workload, k int) *tab.Tab {
	t := tab.New("$t")
	for i := 0; i < k && i < len(w.Works); i++ {
		title := w.Works[i].Child("title")
		t.Add(tab.AtomCell(data.String(title.Atom.S)))
	}
	return t
}

func runCrossover(b *testing.B, plan algebra.Op, w *datagen.Workload) {
	b.Helper()
	ctx := sourceCtx(w)
	res, err := exec.Collect(plan, ctx)
	if err != nil {
		b.Fatal(err)
	}
	if res.Len() == 0 {
		b.Fatal("empty crossover result")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Collect(plan, sourceCtx(w)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctx.Stats.TuplesShipped), "tuples-shipped")
}

// ---------------------------------------------------------------------------
// E12 — source indexes under pushdown (Section 5.3's associative access)
// ---------------------------------------------------------------------------

func BenchmarkE12SourceIndex(b *testing.B) {
	const n = 5000
	for _, indexed := range []bool{false, true} {
		name := "Scan"
		if indexed {
			name = "Indexed"
		}
		b.Run(fmt.Sprintf("%s/artifacts=%d", name, n), func(b *testing.B) {
			w := datagen.Generate(datagen.DefaultParams(n))
			if indexed {
				if err := w.DB.BuildIndex("Artifact", "title"); err != nil {
					b.Fatal(err)
				}
			}
			ow := o2wrap.New("o2artifact", w.DB)
			plan := &algebra.Select{
				From: &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
					`set[ *class[ artifact.tuple[ title: $t, price: $p ] ] ]`)},
				Pred: algebra.MustParseExpr(`$t = "Painting 777"`),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ow.Push(plan, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E14 — optimizer overhead (the "simple linear search strategy" of §6)
// ---------------------------------------------------------------------------

func BenchmarkE14OptimizerOverhead(b *testing.B) {
	m, _ := benchSetup(b, 100)
	for _, q := range []struct{ name, src string }{
		{"Q1", Q1},
		{"Q2", Q2},
	} {
		naive, err := m.Compose(q.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Optimize(naive)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E18: tracing overhead
// ---------------------------------------------------------------------------

// BenchmarkTraceOverhead measures what per-operator tracing costs on Fig. 9's
// Q2 over live wire wrappers (no injected latency, so the mediator-side work
// dominates and any tracing cost is maximally visible). With Trace off, the
// only addition to the hot path is one nil check per operator evaluation —
// Off must stay within noise of the pre-observability baseline (the <2%
// acceptance bound on BenchmarkFig9Q2Batched); On prices the full span tree.
func BenchmarkTraceOverhead(b *testing.B) {
	w := datagen.Generate(datagen.DefaultParams(1000))
	m := wireMediator(b, w, 0)
	ctx := context.Background()

	off := mediator.ExecOptions{Parallelism: 1}
	on := mediator.ExecOptions{Parallelism: 1, Trace: true}
	plain, err := m.ExecuteContext(ctx, Q2, off)
	if err != nil {
		b.Fatal(err)
	}
	traced, err := m.ExecuteContext(ctx, Q2, on)
	if err != nil {
		b.Fatal(err)
	}
	if !plain.Tab.Equal(traced.Tab) {
		b.Fatal("tracing changed the result rows")
	}
	if traced.Trace == nil || traced.Trace.SpanCount() < 2 {
		b.Fatal("traced run collected no span tree")
	}
	spans := traced.Trace.SpanCount()

	b.Run("Off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.ExecuteContext(ctx, Q2, off); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("On", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.ExecuteContext(ctx, Q2, on); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(spans), "spans")
	})
}

// BenchmarkTypeCheckOverhead measures what wire conformance checking costs on
// Fig. 9's Q2 over live wire wrappers: with ExecOptions.CheckTypes every row a
// wrapper ships is validated cell-by-cell against the operator's inferred
// pattern type (typecheck.CellConforms), so the On case prices one conformance
// walk per shipped cell plus the one-time plan inference. Off must stay within
// noise of the plain baseline — the only addition to the hot path is a nil
// check on Context.CheckWire per source result.
func BenchmarkTypeCheckOverhead(b *testing.B) {
	w := datagen.Generate(datagen.DefaultParams(1000))
	m := wireMediator(b, w, 0)
	ctx := context.Background()

	off := mediator.ExecOptions{Parallelism: 1}
	on := mediator.ExecOptions{Parallelism: 1, CheckTypes: true}
	plain, err := m.ExecuteContext(ctx, Q2, off)
	if err != nil {
		b.Fatal(err)
	}
	checked, err := m.ExecuteContext(ctx, Q2, on)
	if err != nil {
		b.Fatal(err)
	}
	if !plain.Tab.Equal(checked.Tab) {
		b.Fatal("conformance checking changed the result rows")
	}

	b.Run("Off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.ExecuteContext(ctx, Q2, off); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("On", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.ExecuteContext(ctx, Q2, on); err != nil {
				b.Fatal(err)
			}
		}
	})
}
