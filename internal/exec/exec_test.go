package exec_test

// The engine's contract is that parallelism changes nothing observable: same
// rows, same order, same statistics as a serial engine — only faster against
// network sources. The tests run parallel plans against live wire wrappers
// (real TCP, real XML frames) and compare row for row with the serial
// engine; the cancellation tests park a wrapper forever and demand a prompt
// deadline error. All of this is meant to run under -race: the engine, the
// wire client pool and the wrappers share every code path the mediator uses.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/o2wrap"
	"repro/internal/tab"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// serveWrappers brings up the two Figure 2 wrappers on ephemeral ports and
// returns an evaluation context whose sources are wire clients.
func serveWrappers(t *testing.T, w *datagen.Workload) *algebra.Context {
	t.Helper()
	ow := o2wrap.New("o2artifact", w.DB)
	schema := ow.ExportSchema()
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	exps := []wire.Exported{
		{Source: ow, Interface: ow.ExportInterface(), Structures: map[string]wire.StructureRef{
			"artifacts": {Model: schema, Pattern: "Artifact"},
			"persons":   {Model: schema, Pattern: "Person"},
		}},
		{Source: ww, Interface: ww.ExportInterface(), Structures: map[string]wire.StructureRef{
			"works": {Model: ww.ExportStructure(), Pattern: "Works"},
		}},
	}
	ctx := algebra.NewContext()
	ctx.Funcs["contains"] = waiswrap.Contains
	for _, exp := range exps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.Serve(ln, exp)
		t.Cleanup(srv.Close)
		c, err := wire.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		ctx.Sources[c.Name()] = c
	}
	return ctx
}

// titleRows builds a one-column table of the first k work titles — the
// outer side of the information-passing DJoin of E11.
func titleRows(w *datagen.Workload, k int) *tab.Tab {
	t := tab.New("$t")
	for i := 0; i < k && i < len(w.Works); i++ {
		t.Add(tab.AtomCell(data.String(w.Works[i].Child("title").Atom.S)))
	}
	return t
}

func o2TitlePrice() algebra.Op {
	return &algebra.Bind{Doc: "artifacts", F: filter.MustParse(
		`set[ *class[ artifact.tuple[ title: $t2, price: $p ] ] ]`)}
}

// run drains one evaluation of plan on an engine with the given options.
func run(ctx context.Context, opts exec.Options, plan algebra.Op, actx *algebra.Context) (*tab.Tab, error) {
	cur, err := exec.New(opts).Stream(ctx, plan, actx)
	if err != nil {
		return nil, err
	}
	return tab.Drain(cur)
}

// runBoth evaluates the plan on a serial engine and on one configured by
// opts, asserting identical rows in identical order and identical source
// accounting.
func runBoth(t *testing.T, plan algebra.Op, mk func() *algebra.Context, opts exec.Options) {
	t.Helper()
	sctx := mk()
	serial, err := exec.Collect(plan, sctx)
	if err != nil {
		t.Fatal(err)
	}
	pctx := mk()
	par, err := run(context.Background(), opts, plan, pctx)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Equal(par) {
		t.Fatalf("parallel result diverges from serial:\nserial (%d rows):\n%s\nparallel (%d rows):\n%s",
			serial.Len(), serial, par.Len(), par)
	}
	if serial.Len() == 0 {
		t.Fatal("empty fixture: the comparison is vacuous")
	}
	if sctx.Stats.SourcePushes != pctx.Stats.SourcePushes {
		t.Errorf("pushes: serial %d parallel %d", sctx.Stats.SourcePushes, pctx.Stats.SourcePushes)
	}
	if sctx.Stats.SourceFetches != pctx.Stats.SourceFetches {
		t.Errorf("fetches: serial %d parallel %d", sctx.Stats.SourceFetches, pctx.Stats.SourceFetches)
	}
}

func TestParallelDJoinFanOutWire(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(120))
	ctx := serveWrappers(t, w)
	mk := func() *algebra.Context { c := *ctx; c.Stats = &algebra.Stats{}; return &c }
	plan := &algebra.DJoin{
		L: &algebra.Literal{T: titleRows(w, 40)},
		R: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$t2 = $t`)}},
	}
	runBoth(t, plan, mk, exec.Options{Parallelism: 8})
	// a tighter fan-out bound must not change the answer either
	runBoth(t, plan, mk, exec.Options{Parallelism: 8, FanOut: 2})
}

func TestParallelJoinAndUnionWire(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(120))
	ctx := serveWrappers(t, w)
	mk := func() *algebra.Context { c := *ctx; c.Stats = &algebra.Stats{}; return &c }
	join := &algebra.Join{
		L:    &algebra.Literal{T: titleRows(w, 30)},
		R:    &algebra.SourceQuery{Source: "o2artifact", Plan: o2TitlePrice()},
		Pred: algebra.MustParseExpr(`$t = $t2`),
	}
	runBoth(t, join, mk, exec.Options{Parallelism: 4})
	union := &algebra.Union{
		L: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$p < 100000`)}},
		R: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$p >= 100000`)}},
	}
	runBoth(t, union, mk, exec.Options{Parallelism: 4})
}

// stuckSource is a wrapper whose push never answers — a dead source that
// must not be able to hang a query once a deadline is set.
type stuckSource struct {
	release chan struct{}
}

func (s *stuckSource) Name() string        { return "stuck" }
func (s *stuckSource) Documents() []string { return []string{"pit"} }
func (s *stuckSource) Fetch(doc string) (data.Forest, error) {
	<-s.release
	return data.Forest{data.Elem("pit")}, nil
}
func (s *stuckSource) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	<-s.release
	return tab.New(plan.Columns()...), nil
}

func TestTimeoutCancelsStuckWrapper(t *testing.T) {
	stuck := &stuckSource{release: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(ln, wire.Exported{Source: stuck})
	t.Cleanup(srv.Close)
	// LIFO: unblock the parked handlers before Close waits for them
	t.Cleanup(func() { close(stuck.release) })
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ctx := algebra.NewContext()
	ctx.Sources["stuck"] = c
	plan := &algebra.SourceQuery{Source: "stuck",
		Plan: &algebra.Bind{Doc: "pit", F: filter.MustParse(`pit@$x`)}}
	start := time.Now()
	_, err = run(context.Background(), exec.Options{Parallelism: 4, Timeout: 200 * time.Millisecond}, plan, ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v: the stuck wrapper hung the query", elapsed)
	}
}

func TestCancelPropagatesToFanOut(t *testing.T) {
	// Cancel mid-fan-out: a DJoin over a stuck inner source must return the
	// cancellation error, not deadlock waiting for its workers.
	stuck := &stuckSource{release: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(ln, wire.Exported{Source: stuck})
	t.Cleanup(srv.Close)
	// LIFO: unblock the parked handlers before Close waits for them
	t.Cleanup(func() { close(stuck.release) })
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	actx := algebra.NewContext()
	actx.Sources["stuck"] = c
	left := tab.New("$t")
	for i := 0; i < 8; i++ {
		left.Add(tab.AtomCell(data.String("x")))
	}
	plan := &algebra.DJoin{
		L: &algebra.Literal{T: left},
		R: &algebra.SourceQuery{Source: "stuck",
			Plan: &algebra.Bind{Doc: "pit", F: filter.MustParse(`pit@$x`)}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(100 * time.Millisecond); cancel() }()
	_, err = run(ctx, exec.Options{Parallelism: 4}, plan, actx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSerialEngineIsPlainEval(t *testing.T) {
	// Parallelism 1 is the plain serial path, skolem minting and all: a
	// Tree-constructing plan is the strictest order witness.
	w := datagen.Generate(datagen.DefaultParams(60))
	mk := func() *algebra.Context {
		ctx := algebra.NewContext()
		ctx.Sources["o2artifact"] = o2wrap.New("o2artifact", w.DB)
		ctx.Sources["xmlartwork"] = waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
		ctx.Funcs["contains"] = waiswrap.Contains
		return ctx
	}
	plan := &algebra.TreeOp{
		From: &algebra.DJoin{
			L: &algebra.Literal{T: titleRows(w, 10)},
			R: &algebra.SourceQuery{Source: "o2artifact",
				Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$t2 = $t`)}},
		},
		C: algebra.MustParseCons(`hit[ title: $t, price: $p ]`),
	}
	runBoth(t, plan, mk, exec.Options{Parallelism: 1})
	// and the skolem gate must keep parallel engines equal too
	runBoth(t, plan, mk, exec.Options{Parallelism: 8})
}
