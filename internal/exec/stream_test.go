package exec_test

// Streaming fidelity: draining the cursor chunk by chunk yields the rows of
// a serial drain, in order, at every parallelism. These tests drain the
// cursor over live wire wrappers so the chunked framing, the conn pinning
// and the pull-driven wrapper calls all run under -race.

import (
	"context"
	"testing"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/tab"
)

func TestStreamDJoinWire(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(120))
	ctx := serveWrappers(t, w)
	mk := func() *algebra.Context { c := *ctx; c.Stats = &algebra.Stats{}; return &c }
	plan := &algebra.DJoin{
		L: &algebra.Literal{T: titleRows(w, 40)},
		R: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$t2 = $t`)}},
	}
	runBoth(t, plan, mk, exec.Options{Parallelism: 1})
	runBoth(t, plan, mk, exec.Options{Parallelism: 8, FanOut: 2})
}

func TestStreamJoinAndUnionWire(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(120))
	ctx := serveWrappers(t, w)
	mk := func() *algebra.Context { c := *ctx; c.Stats = &algebra.Stats{}; return &c }
	join := &algebra.Join{
		L:    &algebra.Literal{T: titleRows(w, 30)},
		R:    &algebra.SourceQuery{Source: "o2artifact", Plan: o2TitlePrice()},
		Pred: algebra.MustParseExpr(`$t = $t2`),
	}
	runBoth(t, join, mk, exec.Options{Parallelism: 1})
	runBoth(t, join, mk, exec.Options{Parallelism: 4})
	union := &algebra.Union{
		L: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$p < 100000`)}},
		R: &algebra.SourceQuery{Source: "o2artifact",
			Plan: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$p >= 100000`)}},
	}
	// Union plays left branch then right at any parallelism (the parallel
	// engine prefetches the right branch meanwhile).
	runBoth(t, union, mk, exec.Options{Parallelism: 1})
	runBoth(t, union, mk, exec.Options{Parallelism: 4})
}

func TestStreamOperatorsOverWire(t *testing.T) {
	// The 1:1 streaming operators (Select, Project, Distinct over a fetched
	// document) keep serial row order chunk by chunk.
	w := datagen.Generate(datagen.DefaultParams(150))
	ctx := serveWrappers(t, w)
	mk := func() *algebra.Context { c := *ctx; c.Stats = &algebra.Stats{}; return &c }
	plan := &algebra.Distinct{
		From: &algebra.Project{
			Cols: []string{"$t2"},
			From: &algebra.Select{From: o2TitlePrice(), Pred: algebra.MustParseExpr(`$p >= 0`)},
		},
	}
	runBoth(t, plan, mk, exec.Options{Parallelism: 1})
	runBoth(t, plan, mk, exec.Options{Parallelism: 4})
}

func TestStreamFirstChunkBeforeEOF(t *testing.T) {
	// Pipelining, not batch-then-chunk: the first chunk of a multi-chunk
	// result must be available from the cursor before the stream ends.
	w := datagen.Generate(datagen.DefaultParams(400))
	ctx := serveWrappers(t, w)
	c := *ctx
	c.Stats = &algebra.Stats{}
	cur, err := exec.New(exec.Options{Parallelism: 1}).Stream(context.Background(), o2TitlePrice(), &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	first, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 || first.Len() > tab.DefaultStreamChunk {
		t.Fatalf("first chunk has %d rows, want 1..%d", first.Len(), tab.DefaultStreamChunk)
	}
	rest, err := tab.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if rest.Len() == 0 {
		t.Fatalf("whole result fit one chunk (%d rows); fixture too small", first.Len())
	}
}

func TestStreamCloseEarlyReleasesPipeline(t *testing.T) {
	// Abandoning a cursor mid-stream must not wedge anything: a later query
	// on the same wire clients still works (the pinned stream conn was
	// discarded or released, not leaked in a bad state). The parallel case
	// abandons a Union whose right branch is being prefetched and never
	// reached: Close must stop that worker too.
	w := datagen.Generate(datagen.DefaultParams(400))
	ctx := serveWrappers(t, w)
	union := &algebra.Union{
		L: &algebra.SourceQuery{Source: "o2artifact", Plan: o2TitlePrice()},
		R: &algebra.SourceQuery{Source: "o2artifact", Plan: o2TitlePrice()},
	}
	for _, tc := range []struct {
		plan algebra.Op
		opts exec.Options
	}{
		{o2TitlePrice(), exec.Options{Parallelism: 1}},
		{union, exec.Options{Parallelism: 4}},
	} {
		c := *ctx
		c.Stats = &algebra.Stats{}
		cur, err := exec.New(tc.opts).Stream(context.Background(), tc.plan, &c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		c2 := *ctx
		c2.Stats = &algebra.Stats{}
		res, err := exec.Collect(o2TitlePrice(), &c2)
		if err != nil {
			t.Fatalf("query after abandoned stream: %v", err)
		}
		if res.Len() == 0 {
			t.Fatal("query after abandoned stream returned no rows")
		}
	}
}
