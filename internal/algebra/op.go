package algebra

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// Source is a wrapped external source as seen by the algebra: it exports
// named documents and can either ship a whole document (Fetch, the costly
// path) or evaluate a pushed subplan natively (Push, the capability-based
// path of Section 5.3).
type Source interface {
	// Name identifies the source ("o2artifact", "xmlartwork", ...).
	Name() string
	// Documents lists the document names the source exports.
	Documents() []string
	// Fetch ships an entire named document to the mediator.
	Fetch(doc string) (data.Forest, error)
	// Push evaluates a plan at the source. The plan only contains
	// operations the source declared in its capability interface; params
	// carries bindings passed sideways by a DJoin (information passing).
	Push(plan Op, params map[string]tab.Cell) (*tab.Tab, error)
}

// ContextSource is the optional cancellable extension of Source: sources
// that perform I/O (the wire client above TCP wrappers) implement it so a
// query deadline or cancellation propagates into in-flight requests instead
// of hanging the evaluation on a dead wrapper. Evaluation uses these
// variants whenever the evaluation context carries a context.Context.
type ContextSource interface {
	Source
	// FetchContext is Fetch under a cancellation context.
	FetchContext(ctx context.Context, doc string) (data.Forest, error)
	// PushContext is Push under a cancellation context.
	PushContext(ctx context.Context, plan Op, params map[string]tab.Cell) (*tab.Tab, error)
}

// Stats counts the externally observable work of a plan execution; the
// experiments of EXPERIMENTS.md report these counters.
type Stats struct {
	SourceFetches int   // whole documents shipped to the mediator
	SourcePushes  int   // push requests issued to sources (a batched push counts once)
	TuplesShipped int   // rows returned by sources
	BytesShipped  int64 // approximate serialized volume received from sources
	FuncCalls     int   // external predicate/method invocations
	BindRows      int   // rows produced by mediator-side Bind operations

	CacheHits      int // pushes answered by the wrapper-result cache
	CacheMisses    int // cache probes that went to the source
	CacheEvictions int // entries displaced by the cache's LRU bound

	Retries int // transport exchanges retried after a transient failure
	Redials int // stale pooled connections transparently redialed
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.SourceFetches += s2.SourceFetches
	s.SourcePushes += s2.SourcePushes
	s.TuplesShipped += s2.TuplesShipped
	s.BytesShipped += s2.BytesShipped
	s.FuncCalls += s2.FuncCalls
	s.BindRows += s2.BindRows
	s.CacheHits += s2.CacheHits
	s.CacheMisses += s2.CacheMisses
	s.CacheEvictions += s2.CacheEvictions
	s.Retries += s2.Retries
	s.Redials += s2.Redials
}

// Skolems mints stable identifiers: one per (function name, argument
// values) pair, as required by Skolem-function semantics (Section 3.1).
type Skolems struct {
	mu  sync.Mutex
	ids map[string]string
	n   int
}

// NewSkolems returns an empty registry.
func NewSkolems() *Skolems { return &Skolems{ids: make(map[string]string)} }

// ID returns the identifier for the given function name and key cells,
// minting a fresh one on first use.
func (s *Skolems) ID(name string, key []tab.Cell) string {
	var b strings.Builder
	b.WriteString(name)
	for _, c := range key {
		b.WriteByte('\x00')
		b.WriteString(c.Key())
	}
	k := b.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[k]; ok {
		return id
	}
	s.n++
	id := fmt.Sprintf("%s_%d", name, s.n)
	s.ids[k] = id
	return id
}

// Len reports the number of minted identifiers.
func (s *Skolems) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// Context carries everything a plan needs to evaluate.
type Context struct {
	// Catalog maps named documents to local forests (mediator-resident
	// data, view materializations, test fixtures).
	Catalog map[string]data.Forest
	// Sources maps source names to connections; named documents not in
	// the catalog are fetched from the source exporting them.
	Sources map[string]Source
	// Store resolves identifiers during Bind navigation.
	Store *data.Store
	// Skolem mints identifiers for Tree construction.
	Skolem *Skolems
	// Funcs holds external functions (contains, current_price, ...).
	Funcs map[string]Func
	// Params holds DJoin information-passing bindings.
	Params map[string]tab.Cell
	// Model resolves named type filters.
	Model *pattern.Model
	// Stats accumulates execution counters.
	Stats *Stats
	// Ctx, when non-nil, carries the query's cancellation context:
	// long-running operators check it between units of work and
	// ContextSource connections receive it for in-flight I/O.
	Ctx context.Context
	// Cache, when non-nil, memoizes pushed-subplan results across rows and
	// queries (see ResultCache); the mediator installs a shared instance.
	Cache *ResultCache
	// BatchChunk bounds the binding sets shipped per batched push; it must
	// be positive (NewContext seeds DefaultBatchChunk; values entering from
	// configuration are validated by exec.Options.Validate and the console
	// flag, never silently defaulted downstream). A fixed default (rather
	// than one derived from worker counts) keeps push counts identical
	// between serial and parallel execution.
	BatchChunk int
	// PerRowDJoin disables set-at-a-time DJoin evaluation, restoring the
	// one-push-per-outer-row baseline (kept for comparison experiments).
	PerRowDJoin bool
	// Partial, when non-nil, enables graceful degradation: source
	// failures marked UnavailableError are recorded here and the failing
	// input replaced by an empty one instead of aborting the query (see
	// exec.Options.AllowPartial). Shared, not forked: every worker
	// records into the same report.
	Partial *PartialReport
	// Trace, when non-nil, is the span the current work belongs to: the
	// engine (internal/exec) opens a child span per operator under it, and
	// the counter-mutation sites mirror their Stats increments into it
	// (see internal/obs). Nil means tracing is off — the only cost is a
	// nil check per operator.
	Trace *obs.Span
	// CheckWire, when non-nil, validates every wrapper response the
	// moment it arrives: SourceQuery.Load and SourceQuery.Stream call it
	// with every shipped table or chunk before caching or returning it,
	// and a non-nil error aborts the query. The mediator installs a
	// checker comparing rows against the plan's inferred types when
	// ExecOptions.CheckTypes is set.
	CheckWire func(q *SourceQuery, t *tab.Tab) error
}

// NewContext returns an empty evaluation context. The builtin function
// id(tree) — the identifier of an identified tree, or the target of a
// reference — is preregistered: it lets queries join references with the
// identified trees they point at (the DJoin-to-Join rewriting of Figure 7
// compares owner references with the persons extent this way).
func NewContext() *Context {
	ctx := &Context{
		Catalog:    make(map[string]data.Forest),
		Sources:    make(map[string]Source),
		Store:      data.NewStore(),
		Skolem:     NewSkolems(),
		Funcs:      make(map[string]Func),
		Stats:      &Stats{},
		BatchChunk: DefaultBatchChunk,
	}
	ctx.Funcs["id"] = func(args []tab.Cell) (tab.Cell, error) {
		if len(args) != 1 || args[0].Kind != tab.CTree {
			return tab.Null(), fmt.Errorf("id expects one tree argument")
		}
		n := args[0].Tree
		switch {
		case n.IsRef():
			return tab.AtomCell(data.String(n.Ref)), nil
		case n.ID != "":
			return tab.AtomCell(data.String(n.ID)), nil
		default:
			return tab.Null(), nil
		}
	}
	return ctx
}

// WithParams returns a shallow copy of the context with extra parameter
// bindings (used by DJoin to pass left-hand values to the right).
func (c *Context) WithParams(extra map[string]tab.Cell) *Context {
	cc := *c
	cc.Params = make(map[string]tab.Cell, len(c.Params)+len(extra))
	for k, v := range c.Params {
		cc.Params[k] = v
	}
	for k, v := range extra {
		cc.Params[k] = v
	}
	return &cc
}

// WithContext returns a shallow copy of the context carrying a cancellation
// context (threaded from Mediator.ExecuteContext down to the sources).
func (c *Context) WithContext(ctx context.Context) *Context {
	cc := *c
	cc.Ctx = ctx
	return &cc
}

// Fork returns a shallow copy with a fresh Stats accumulator. Parallel
// evaluation gives every concurrent worker its own fork so counter updates
// never race; the parent merges the forks back with Stats.Add, keeping the
// accounting exact (per-worker merge instead of shared atomics).
func (c *Context) Fork() *Context {
	cc := *c
	cc.Stats = &Stats{}
	return &cc
}

// Err reports the cancellation state of the attached context; a context-free
// evaluation is never cancelled.
func (c *Context) Err() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// Input resolves a named document: catalog first, then connected sources.
func (c *Context) Input(name string) (data.Forest, error) {
	if f, ok := c.Catalog[name]; ok {
		return f, nil
	}
	var names []string
	for _, s := range c.Sources {
		for _, d := range s.Documents() {
			if d == name {
				var f data.Forest
				var err error
				if cs, ok := s.(ContextSource); ok && c.Ctx != nil {
					f, err = cs.FetchContext(c.Ctx, name)
				} else {
					f, err = s.Fetch(name)
				}
				drainRetryStats(c, s)
				if err != nil {
					return nil, err
				}
				c.Stats.SourceFetches++
				traceCounts(c, obs.Counts{Fetches: 1})
				for _, n := range f {
					c.Stats.BytesShipped += int64(n.Size()) * 16
					c.Store.Register(n)
				}
				return f, nil
			}
			names = append(names, s.Name()+"."+d)
		}
	}
	sort.Strings(names)
	return nil, fmt.Errorf("algebra: unknown input %q (known: %s)", name, strings.Join(names, ", "))
}

// Op is a node of an algebraic plan. Operators carry no evaluator of their
// own: internal/exec streams every plan, calling each operator's
// non-recursive kernel (Load for leaves, Apply/Probe per input chunk, or
// Apply once over a drained input for the blocking operators).
type Op interface {
	// Columns returns the output column names, statically.
	Columns() []string
	// Children returns the input plans.
	Children() []Op
	// Detail renders the operator head for plan printing.
	Detail() string
}

// ---------------------------------------------------------------------------
// Doc: named-document input
// ---------------------------------------------------------------------------

// Doc is the input operation of an algebraic expression: a named document
// (e.g. "artifacts"). It produces one row per tree of the document's forest
// in a single column.
type Doc struct {
	Name string
	Col  string // output column; defaults to "$doc"
}

func (d *Doc) col() string {
	if d.Col == "" {
		return "$doc"
	}
	return d.Col
}

// Columns implements Op.
func (d *Doc) Columns() []string { return []string{d.col()} }

// Children implements Op.
func (d *Doc) Children() []Op { return nil }

// Detail implements Op.
func (d *Doc) Detail() string { return fmt.Sprintf("Doc(%s)", d.Name) }

// Load reads the document: one row per tree of its forest.
func (d *Doc) Load(ctx *Context) (*tab.Tab, error) {
	f, err := ctx.Input(d.Name)
	if err != nil {
		return nil, err
	}
	t := tab.New(d.col())
	for _, n := range f {
		t.Add(tab.TreeCell(n))
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Bind
// ---------------------------------------------------------------------------

// Bind extracts variable bindings from trees using a filter (Figure 4).
// Three input forms exist:
//
//   - Doc != "": bind over a named document (the common leaf of a plan);
//   - From != nil, Col != "": bind over the trees in column Col of each
//     input row, extending the row (the "linear split" form of Figure 7);
//   - From == nil, Doc == "", Col != "": bind over a DJoin parameter.
type Bind struct {
	From Op
	Doc  string
	Col  string
	F    *filter.Filter
}

// Columns implements Op.
func (b *Bind) Columns() []string {
	var out []string
	if b.From != nil {
		out = append(out, b.From.Columns()...)
	}
	return append(out, b.F.Vars()...)
}

// Children implements Op.
func (b *Bind) Children() []Op {
	if b.From == nil {
		return nil
	}
	return []Op{b.From}
}

// Detail implements Op.
func (b *Bind) Detail() string {
	src := b.Doc
	if src == "" {
		src = b.Col
	}
	return fmt.Sprintf("Bind(%s, %s)", src, b.F)
}

// filter returns the Bind's filter, resolving named types through the
// context's model when the filter carries none of its own.
func (b *Bind) filter(ctx *Context) *filter.Filter {
	if b.F.Model == nil && ctx.Model != nil {
		return &filter.Filter{Root: b.F.Root, Model: ctx.Model}
	}
	return b.F
}

// Load evaluates a leaf Bind: over a named document (Doc != "") or over a
// DJoin parameter (From == nil). A dependent Bind (From != nil) is
// evaluated chunk by chunk with Apply instead.
func (b *Bind) Load(ctx *Context) (*tab.Tab, error) {
	var forest data.Forest
	switch {
	case b.Doc != "":
		f, err := ctx.Input(b.Doc)
		if err != nil {
			return nil, err
		}
		forest = f
	case b.From != nil:
		return nil, fmt.Errorf("algebra: Load on a dependent Bind over %s", b.Col)
	default:
		cell, ok := ctx.Params[b.Col]
		if !ok {
			return nil, fmt.Errorf("algebra: Bind over unbound parameter %s", b.Col)
		}
		forest = cell.AsForest()
	}
	t := b.filter(ctx).MatchForest(ctx.Store, forest)
	ctx.Stats.BindRows += t.Len()
	return t, nil
}

// Apply evaluates a dependent Bind over one chunk of its input: every row
// is extended with each binding the filter finds in the trees of column
// Col.
func (b *Bind) Apply(ctx *Context, in *tab.Tab) (*tab.Tab, error) {
	ci := in.ColIndex(b.Col)
	if ci < 0 {
		return nil, fmt.Errorf("algebra: Bind over unknown column %s of %v", b.Col, in.Cols)
	}
	f := b.filter(ctx)
	out := tab.New(b.Columns()...)
	for _, r := range in.Rows {
		sub := f.MatchForest(ctx.Store, r[ci].AsForest())
		for _, sr := range sub.Rows {
			out.AddRow(append(r.Clone(), sr...))
		}
	}
	ctx.Stats.BindRows += out.Len()
	return out, nil
}

// ---------------------------------------------------------------------------
// Select, Project, Map
// ---------------------------------------------------------------------------

// Select filters rows by a predicate.
type Select struct {
	From Op
	Pred Expr
}

// Columns implements Op.
func (s *Select) Columns() []string { return s.From.Columns() }

// Children implements Op.
func (s *Select) Children() []Op { return []Op{s.From} }

// Detail implements Op.
func (s *Select) Detail() string { return fmt.Sprintf("Select(%s)", s.Pred) }

// Apply keeps the rows of one input chunk that satisfy the predicate.
func (s *Select) Apply(ctx *Context, in *tab.Tab) (*tab.Tab, error) {
	cols := colIndex(in.Cols)
	out := tab.New(in.Cols...)
	for _, r := range in.Rows {
		ok, err := truth(s.Pred, ctx, cols, r)
		if err != nil {
			return nil, fmt.Errorf("select: %w", err)
		}
		if ok {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

// Project keeps (and possibly renames, "new=old") the given columns.
type Project struct {
	From Op
	Cols []string
}

// Columns implements Op.
func (p *Project) Columns() []string {
	out := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		if j := strings.IndexByte(c, '='); j >= 0 {
			out[i] = c[:j]
		} else {
			out[i] = c
		}
	}
	return out
}

// Children implements Op.
func (p *Project) Children() []Op { return []Op{p.From} }

// Detail implements Op.
func (p *Project) Detail() string { return fmt.Sprintf("Project(%s)", strings.Join(p.Cols, ", ")) }

// Apply projects one input chunk.
func (p *Project) Apply(in *tab.Tab) *tab.Tab { return in.Project(p.Cols...) }

// MapExpr extends each row with a computed column (the algebra's Map).
type MapExpr struct {
	From Op
	Col  string
	E    Expr
}

// Columns implements Op.
func (m *MapExpr) Columns() []string { return append(m.From.Columns(), m.Col) }

// Children implements Op.
func (m *MapExpr) Children() []Op { return []Op{m.From} }

// Detail implements Op.
func (m *MapExpr) Detail() string { return fmt.Sprintf("Map(%s := %s)", m.Col, m.E) }

// Apply extends every row of one input chunk with the computed column.
func (m *MapExpr) Apply(ctx *Context, in *tab.Tab) (*tab.Tab, error) {
	cols := colIndex(in.Cols)
	out := tab.New(m.Columns()...)
	for _, r := range in.Rows {
		v, err := m.E.Eval(ctx, cols, r)
		if err != nil {
			return nil, fmt.Errorf("map: %w", err)
		}
		out.AddRow(append(r.Clone(), v))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Join, DJoin
// ---------------------------------------------------------------------------

// Join combines two inputs under a predicate. When the predicate contains
// column-column equalities across the two sides, a hash join is used;
// otherwise nested loops.
type Join struct {
	L, R Op
	Pred Expr
}

// Columns implements Op.
func (j *Join) Columns() []string { return append(j.L.Columns(), j.R.Columns()...) }

// Children implements Op.
func (j *Join) Children() []Op { return []Op{j.L, j.R} }

// Detail implements Op.
func (j *Join) Detail() string { return fmt.Sprintf("Join(%s)", j.Pred) }

// Build starts a join over a materialized right (build) input; the left
// input is then probed against it chunk by chunk.
func (j *Join) Build(r *tab.Tab) *JoinTable { return &JoinTable{j: j, r: r} }

// JoinTable is the build side of a Join. When the predicate contains
// column-column equalities across the two sides, the right rows are hashed
// on them (built at the first probe, which fixes the left columns) and the
// remaining conjuncts are checked per candidate pair; otherwise every pair
// is tested (nested loops).
type JoinTable struct {
	j        *Join
	r        *tab.Tab
	built    bool
	cols     map[string]int
	lKeys    []int
	residual Expr
	buckets  map[string][]tab.Row
}

func (b *JoinTable) build(lcols []string) {
	b.built = true
	b.cols = colIndex(b.j.Columns())
	var rKeys []int
	var rest []Expr
	lIdx, rIdx := colIndex(lcols), colIndex(b.r.Cols)
	for _, c := range SplitConj(b.j.Pred) {
		if x, y, ok := EqColumns(c); ok {
			if li, lok := lIdx[x]; lok {
				if ri, rok := rIdx[y]; rok {
					b.lKeys = append(b.lKeys, li)
					rKeys = append(rKeys, ri)
					continue
				}
			}
			if li, lok := lIdx[y]; lok {
				if ri, rok := rIdx[x]; rok {
					b.lKeys = append(b.lKeys, li)
					rKeys = append(rKeys, ri)
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	b.residual = Conj(rest...)
	if len(rKeys) == 0 {
		return
	}
	b.buckets = make(map[string][]tab.Row, len(b.r.Rows))
	for _, rr := range b.r.Rows {
		k := joinKey(rr, rKeys)
		b.buckets[k] = append(b.buckets[k], rr)
	}
}

func joinKey(r tab.Row, keys []int) string {
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(r[k].Key())
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// Probe joins one chunk of left rows with the build side, in left-row
// order (and build-row order within one left row).
func (b *JoinTable) Probe(ctx *Context, l *tab.Tab) (*tab.Tab, error) {
	if !b.built {
		b.build(l.Cols)
	}
	out := tab.New(b.j.Columns()...)
	for _, lr := range l.Rows {
		cand := b.r.Rows
		if b.buckets != nil {
			cand = b.buckets[joinKey(lr, b.lKeys)]
		}
		for _, rr := range cand {
			row := append(lr.Clone(), rr...)
			ok, err := truth(b.residual, ctx, b.cols, row)
			if err != nil {
				return nil, fmt.Errorf("join: %w", err)
			}
			if ok {
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// DJoin is the dependency join: the right-hand plan is evaluated with the
// left rows' columns available as parameters (the "information passing" of
// Section 5.3 and the Bind-split of Figure 7). Evaluation is set-at-a-time
// (DJoinSet): each bite of outer rows is deduplicated to distinct binding
// sets over the inner plan's free variables, each set is evaluated once —
// through one batched push per chunk when the inner plan is a SourceQuery
// over a BatchSource — and the results are re-expanded per outer row, so
// the output is row for row what one-evaluation-per-row produces
// (Context.PerRowDJoin restores that baseline).
type DJoin struct {
	L, R Op

	prepOnce sync.Once
	prep     *PreparedPlan
}

// Prepared returns the per-DJoin preparation of the inner plan (free
// variables, canonical encoding), computed once instead of once per row.
func (j *DJoin) Prepared() *PreparedPlan {
	j.prepOnce.Do(func() { j.prep = PreparePlan(j.R) })
	return j.prep
}

// Columns implements Op.
func (j *DJoin) Columns() []string { return append(j.L.Columns(), j.R.Columns()...) }

// Children implements Op.
func (j *DJoin) Children() []Op { return []Op{j.L, j.R} }

// Detail implements Op.
func (j *DJoin) Detail() string { return "DJoin" }

// ---------------------------------------------------------------------------
// Union, Intersect, Distinct
// ---------------------------------------------------------------------------

// Union concatenates two inputs with identical columns (bag semantics).
type Union struct{ L, R Op }

// Columns implements Op.
func (u *Union) Columns() []string { return u.L.Columns() }

// Children implements Op.
func (u *Union) Children() []Op { return []Op{u.L, u.R} }

// Detail implements Op.
func (u *Union) Detail() string { return "Union" }

// Intersect keeps the distinct rows present in both inputs.
type Intersect struct{ L, R Op }

// Columns implements Op.
func (i *Intersect) Columns() []string { return i.L.Columns() }

// Children implements Op.
func (i *Intersect) Children() []Op { return []Op{i.L, i.R} }

// Detail implements Op.
func (i *Intersect) Detail() string { return "Intersect" }

// Apply intersects the two materialized inputs, keeping left order.
func (i *Intersect) Apply(l, r *tab.Tab) (*tab.Tab, error) {
	if len(r.Cols) != len(l.Cols) {
		return nil, fmt.Errorf("algebra: intersect of incompatible tabs %v / %v", l.Cols, r.Cols)
	}
	inR := make(map[string]bool, len(r.Rows))
	for _, rr := range r.Rows {
		inR[rr.Key()] = true
	}
	out := tab.New(l.Cols...)
	seen := map[string]bool{}
	for _, lr := range l.Rows {
		k := lr.Key()
		if inR[k] && !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, lr)
		}
	}
	return out, nil
}

// Distinct removes duplicate rows.
type Distinct struct{ From Op }

// Columns implements Op.
func (d *Distinct) Columns() []string { return d.From.Columns() }

// Children implements Op.
func (d *Distinct) Children() []Op { return []Op{d.From} }

// Detail implements Op.
func (d *Distinct) Detail() string { return "Distinct" }

// ---------------------------------------------------------------------------
// Group, Sort
// ---------------------------------------------------------------------------

// Group nests the non-key columns of each key group into a nested Tab.
type Group struct {
	From Op
	Keys []string
	Into string
}

// Columns implements Op.
func (g *Group) Columns() []string { return append(append([]string{}, g.Keys...), g.Into) }

// Children implements Op.
func (g *Group) Children() []Op { return []Op{g.From} }

// Detail implements Op.
func (g *Group) Detail() string {
	return fmt.Sprintf("Group(%s ⇒ %s)", strings.Join(g.Keys, ", "), g.Into)
}

// Apply groups the materialized input.
func (g *Group) Apply(in *tab.Tab) *tab.Tab { return in.GroupBy(g.Into, g.Keys...) }

// Sort orders rows by the given columns.
type Sort struct {
	From Op
	Cols []string
}

// Columns implements Op.
func (s *Sort) Columns() []string { return s.From.Columns() }

// Children implements Op.
func (s *Sort) Children() []Op { return []Op{s.From} }

// Detail implements Op.
func (s *Sort) Detail() string { return fmt.Sprintf("Sort(%s)", strings.Join(s.Cols, ", ")) }

// Apply returns the materialized input sorted (a copy; the input may be
// shared).
func (s *Sort) Apply(in *tab.Tab) *tab.Tab {
	out := tab.New(in.Cols...)
	out.Rows = append(out.Rows, in.Rows...)
	out.SortBy(s.Cols...)
	return out
}

// ---------------------------------------------------------------------------
// SourceQuery and Literal
// ---------------------------------------------------------------------------

// SourceQuery wraps a subplan pushed to an external source: the source
// evaluates Plan natively (e.g. by translating it to OQL or to a Wais
// full-text call) and ships back only the result rows.
type SourceQuery struct {
	Source string
	Plan   Op

	prepOnce sync.Once
	prep     *PreparedPlan
}

// Prepared returns the canonical encoding and free variables of the pushed
// plan, computed once per node instead of once per push (cache keys and
// batched pushes both need them).
func (q *SourceQuery) Prepared() *PreparedPlan {
	q.prepOnce.Do(func() { q.prep = PreparePlan(q.Plan) })
	return q.prep
}

// Columns implements Op.
func (q *SourceQuery) Columns() []string { return q.Plan.Columns() }

// Children implements Op.
func (q *SourceQuery) Children() []Op { return []Op{q.Plan} }

// Detail implements Op.
func (q *SourceQuery) Detail() string { return fmt.Sprintf("SourceQuery(%s)", q.Source) }

// Load pushes the subplan to its source in one piece (the one-shot
// protocol, for sources without PushStream) under the context's parameters,
// answering from the result cache when it holds the same push.
func (q *SourceQuery) Load(ctx *Context) (*tab.Tab, error) {
	src, ok := ctx.Sources[q.Source]
	if !ok {
		return nil, fmt.Errorf("algebra: unknown source %q", q.Source)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Probe the wrapper-result cache under (source, canonical plan
	// encoding, free-variable bindings): only the plan's free variables
	// influence what the source computes, so restricting the key to them
	// lets a hit stand in for any parameter environment agreeing on them.
	var key string
	if ctx.Cache != nil {
		if p := q.Prepared(); p.Enc != "" {
			key = CacheKey(q.Source, p.Enc, ParamsKey(p.Vars, ctx.Params))
			if t, ok := ctx.Cache.Get(key); ok {
				ctx.Stats.CacheHits++
				traceCounts(ctx, obs.Counts{CacheHits: 1})
				traceAnnotate(ctx, "cache", "hit")
				return t, nil
			}
			ctx.Stats.CacheMisses++
			traceCounts(ctx, obs.Counts{CacheMisses: 1})
		}
	}
	if sr, ok := src.(StateReporter); ok {
		traceAnnotate(ctx, "breaker", sr.SourceState())
	}
	var t *tab.Tab
	var err error
	if cs, ok := src.(ContextSource); ok && ctx.Ctx != nil {
		t, err = cs.PushContext(ctx.Ctx, q.Plan, ctx.Params)
	} else {
		t, err = src.Push(q.Plan, ctx.Params)
	}
	drainRetryStats(ctx, src)
	if err != nil {
		return nil, fmt.Errorf("source %s: %w", q.Source, err)
	}
	ctx.Stats.SourcePushes++
	traceCounts(ctx, obs.Counts{Pushes: 1})
	countShipped(ctx, t)
	if ctx.CheckWire != nil {
		// Validate before caching: a non-conforming response must not be
		// served from the cache on a later probe.
		if err := ctx.CheckWire(q, t); err != nil {
			return nil, err
		}
	}
	if key != "" {
		if ctx.Cache.Put(key, t) {
			ctx.Stats.CacheEvictions++
		}
	}
	return t, nil
}

// Literal wraps a constant Tab (fixtures, unit tests, explain samples).
type Literal struct{ T *tab.Tab }

// Columns implements Op.
func (l *Literal) Columns() []string { return l.T.Cols }

// Children implements Op.
func (l *Literal) Children() []Op { return nil }

// Detail implements Op.
func (l *Literal) Detail() string { return fmt.Sprintf("Literal(%d rows)", l.T.Len()) }

func colIndex(cols []string) map[string]int {
	m := make(map[string]int, len(cols))
	for i, c := range cols {
		m[c] = i
	}
	return m
}

// Describe renders the plan as an indented operator tree.
func Describe(op Op) string {
	var b strings.Builder
	describe(&b, op, 0)
	return b.String()
}

func describe(b *strings.Builder, op Op, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if op == nil {
		b.WriteString("<nil>\n")
		return
	}
	b.WriteString(op.Detail())
	b.WriteByte('\n')
	for _, c := range op.Children() {
		describe(b, c, depth+1)
	}
}

// Walk visits the plan tree in pre-order.
func Walk(op Op, fn func(Op) bool) {
	if op == nil || !fn(op) {
		return
	}
	for _, c := range op.Children() {
		Walk(c, fn)
	}
}
