package algebra

import (
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/tab"
)

// Cons is a construction pattern: the specification consumed by the Tree
// operator (Figure 4) to build new nested XML structures out of a Tab. It
// supports grouping (the *(vars) primitive), Skolem functions (creating
// identified trees), and references to Skolem-identified trees.
type Cons struct {
	Label      string     // element label ("" for content positions)
	LabelVar   string     // label taken from a variable's value (~$l)
	Var        string     // splice a variable's value (atom, tree or sequence)
	Const      *data.Atom // constant leaf content
	Skolem     string     // Skolem function name: mint an identifier for this node
	SkolemArgs []string   // Skolem function arguments
	RefTo      string     // construct a reference to skolem RefTo(RefArgs...)
	RefArgs    []string
	Kids       []ConsItem
}

// ConsItem is one child of a construction pattern.
type ConsItem struct {
	C    *Cons
	Star bool     // one instance per group of rows
	Keys []string // explicit grouping keys *(keys); defaults to Skolem args or the vars below
}

// DirectVars returns the variables a construction references outside its
// starred children; they define the grouping keys of the enclosing level.
func (c *Cons) DirectVars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var walk func(n *Cons)
	walk = func(n *Cons) {
		if n == nil {
			return
		}
		add(n.LabelVar)
		add(n.Var)
		for _, a := range n.SkolemArgs {
			add(a)
		}
		for _, a := range n.RefArgs {
			add(a)
		}
		for _, it := range n.Kids {
			if !it.Star {
				walk(it.C)
			}
		}
	}
	walk(c)
	return out
}

// AllVars returns every variable referenced anywhere in the construction.
func (c *Cons) AllVars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var walk func(n *Cons)
	walk = func(n *Cons) {
		if n == nil {
			return
		}
		add(n.LabelVar)
		add(n.Var)
		for _, a := range n.SkolemArgs {
			add(a)
		}
		for _, a := range n.RefArgs {
			add(a)
		}
		for _, it := range n.Kids {
			for _, k := range it.Keys {
				add(k)
			}
			walk(it.C)
		}
	}
	walk(c)
	return out
}

// groupKeys returns the grouping keys of a starred item.
func (it ConsItem) groupKeys() []string {
	if len(it.Keys) > 0 {
		return it.Keys
	}
	if it.C != nil && len(it.C.SkolemArgs) > 0 {
		return it.C.SkolemArgs
	}
	return it.C.DirectVars()
}

// BuildForest evaluates the construction over a Tab: rows are partitioned
// by the root's direct variables (one tree per distinct binding), starred
// children by their grouping keys within the parent partition. Skolem
// identifiers are minted through the registry; the same (function, args)
// always yields the same identifier, letting separate rules fuse trees.
func (c *Cons) BuildForest(t *tab.Tab, reg *Skolems) (data.Forest, error) {
	cols := colIndex(t.Cols)
	parts := partition(t.Rows, cols, c.DirectVars())
	var out data.Forest
	for _, p := range parts {
		f, err := build(c, p, cols, reg)
		if err != nil {
			return nil, err
		}
		out = append(out, f...)
	}
	return out, nil
}

// partition splits rows by the values of the key columns, preserving
// first-seen order. With no keys it returns a single partition (possibly
// empty, in which case construction yields an empty skeleton).
func partition(rows []tab.Row, cols map[string]int, keys []string) [][]tab.Row {
	if len(keys) == 0 {
		return [][]tab.Row{rows}
	}
	var order []string
	groups := map[string][]tab.Row{}
	for _, r := range rows {
		k := rowKey(r, cols, keys)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([][]tab.Row, len(order))
	for i, k := range order {
		out[i] = groups[k]
	}
	return out
}

// rowKey renders a row's values of the key columns as a grouping key.
func rowKey(r tab.Row, cols map[string]int, keys []string) string {
	var b strings.Builder
	for _, k := range keys {
		if i, ok := cols[k]; ok && i < len(r) {
			b.WriteString(r[i].Key())
		}
		b.WriteByte('\x00')
	}
	return b.String()
}

// build constructs the forest for one partition of rows.
func build(c *Cons, rows []tab.Row, cols map[string]int, reg *Skolems) (data.Forest, error) {
	cell := func(v string) tab.Cell {
		if len(rows) == 0 {
			return tab.Null()
		}
		if i, ok := cols[v]; ok && i < len(rows[0]) {
			return rows[0][i]
		}
		return tab.Null()
	}
	// Pure variable splice: expand the cell into nodes.
	if c.Var != "" && c.Label == "" && c.LabelVar == "" {
		return spliceCell(cell(c.Var)), nil
	}
	label := c.Label
	if c.LabelVar != "" {
		a, ok := cell(c.LabelVar).AsAtom()
		if !ok {
			return nil, fmt.Errorf("tree: label variable %s is not atomic", c.LabelVar)
		}
		label = a.Text()
	}
	if c.RefTo != "" {
		id := reg.ID(c.RefTo, keyCells(c.RefArgs, rows, cols))
		return data.Forest{data.RefNode(label, id)}, nil
	}
	n := data.Elem(label)
	if c.Skolem != "" {
		n.ID = reg.ID(c.Skolem, keyCells(c.SkolemArgs, rows, cols))
	}
	if c.Const != nil {
		a := *c.Const
		n.Atom = &a
		return data.Forest{n}, nil
	}
	if c.Var != "" { // labeled node spliced with a variable's content
		n.Kids = append(n.Kids, spliceCell(cell(c.Var))...)
	}
	for _, it := range c.Kids {
		if !it.Star {
			f, err := build(it.C, rows, cols, reg)
			if err != nil {
				return nil, err
			}
			n.Kids = append(n.Kids, f...)
			continue
		}
		for _, p := range partition(rows, cols, it.groupKeys()) {
			if len(p) == 0 {
				continue
			}
			f, err := build(it.C, p, cols, reg)
			if err != nil {
				return nil, err
			}
			n.Kids = append(n.Kids, f...)
		}
	}
	normalizeCons(n)
	return data.Forest{n}, nil
}

// normalizeCons collapses a node whose single child is an unlabeled leaf
// into a leaf (so `title: $t` yields <title>Nympheas</title>).
func normalizeCons(n *data.Node) {
	if len(n.Kids) != 1 || n.Kids[0].Label != "" || n.Kids[0].ID != "" {
		return
	}
	switch {
	case n.Kids[0].Atom != nil:
		n.Atom = n.Kids[0].Atom
		n.Kids = nil
	case n.Kids[0].IsRef():
		// `owner: &person($o)` yields <owner ref="..."/>, not a wrapper
		// around an unlabeled reference.
		n.Ref = n.Kids[0].Ref
		n.Kids = nil
	}
}

// spliceCell renders a cell as constructed content.
func spliceCell(c tab.Cell) data.Forest {
	switch c.Kind {
	case tab.CAtom:
		a := c.Atom
		return data.Forest{{Atom: &a}}
	case tab.CTree:
		return data.Forest{c.Tree.Clone()}
	case tab.CSeq:
		return c.Seq.Clone()
	case tab.CTab:
		return c.AsForest()
	default:
		return nil
	}
}

func keyCells(vars []string, rows []tab.Row, cols map[string]int) []tab.Cell {
	out := make([]tab.Cell, len(vars))
	for i, v := range vars {
		out[i] = tab.Null()
		if len(rows) > 0 {
			if j, ok := cols[v]; ok && j < len(rows[0]) {
				out[i] = rows[0][j]
			}
		}
	}
	return out
}

// String renders the construction in the syntax accepted by ParseCons.
func (c *Cons) String() string {
	var b strings.Builder
	c.write(&b)
	return b.String()
}

func (c *Cons) write(b *strings.Builder) {
	if c == nil {
		b.WriteString("<nil>")
		return
	}
	if c.Skolem != "" {
		fmt.Fprintf(b, "%s(%s) := ", c.Skolem, strings.Join(c.SkolemArgs, ", "))
	}
	if c.RefTo != "" {
		if c.Label != "" {
			b.WriteString(c.Label)
			b.WriteString(": ")
		}
		fmt.Fprintf(b, "&%s(%s)", c.RefTo, strings.Join(c.RefArgs, ", "))
		return
	}
	head := false
	switch {
	case c.LabelVar != "":
		b.WriteByte('~')
		b.WriteString(c.LabelVar)
		head = true
	case c.Label != "":
		b.WriteString(c.Label)
		head = true
	}
	switch {
	case c.Const != nil:
		if head {
			b.WriteString(": ")
		}
		if c.Const.Kind == data.KindString {
			fmt.Fprintf(b, "%q", c.Const.S)
		} else {
			b.WriteString(c.Const.Text())
		}
		return
	case c.Var != "":
		if head {
			b.WriteString(": ")
		}
		b.WriteString(c.Var)
		return
	}
	if !head {
		b.WriteString("%")
	}
	if len(c.Kids) == 0 {
		b.WriteString("[]")
		return
	}
	if len(c.Kids) == 1 && !c.Kids[0].Star && isSimpleCons(c.Kids[0].C) {
		b.WriteString(": ")
		c.Kids[0].C.write(b)
		return
	}
	b.WriteString("[ ")
	for i, it := range c.Kids {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteByte('*')
			if len(it.Keys) > 0 {
				fmt.Fprintf(b, "(%s) ", strings.Join(it.Keys, ", "))
			}
		}
		it.C.write(b)
	}
	b.WriteString(" ]")
}

func isSimpleCons(c *Cons) bool {
	return c != nil && c.Skolem == "" && len(c.Kids) == 0
}

// TreeOp is the Tree operator: the inverse frontier operation to Bind,
// generating a collection of trees from a Tab according to a construction
// pattern. Constructed identified trees are registered in the context's
// store so that references created by Skolem functions resolve.
type TreeOp struct {
	From   Op
	C      *Cons
	OutCol string // output column, default "$doc"
}

func (t *TreeOp) col() string {
	if t.OutCol == "" {
		return "$doc"
	}
	return t.OutCol
}

// Columns implements Op.
func (t *TreeOp) Columns() []string { return []string{t.col()} }

// Children implements Op.
func (t *TreeOp) Children() []Op { return []Op{t.From} }

// Detail implements Op.
func (t *TreeOp) Detail() string { return fmt.Sprintf("Tree(%s)", t.C) }

// Apply builds the forest over the whole materialized input and registers
// every constructed tree in the context's store.
func (t *TreeOp) Apply(ctx *Context, in *tab.Tab) (*tab.Tab, error) {
	forest, err := t.C.BuildForest(in, ctx.Skolem)
	if err != nil {
		return nil, err
	}
	return t.emit(ctx, forest), nil
}

func (t *TreeOp) emit(ctx *Context, forest data.Forest) *tab.Tab {
	out := tab.New(t.col())
	for _, n := range forest {
		ctx.Store.Register(n)
		out.Add(tab.TreeCell(n))
	}
	return out
}

// Pipelines reports whether the Tree can be built chunk by chunk: the root
// is keyed (non-empty DirectVars) and no item at any depth is starred. Each
// output tree then depends on the first row of its key group only, so
// building at first sight of a key — in input order — yields exactly
// BuildForest's trees, in its order and with its Skolem mint order. Any
// other construction groups rows across the whole input.
func (t *TreeOp) Pipelines() bool {
	return len(t.C.DirectVars()) > 0 && !t.C.hasStar()
}

func (c *Cons) hasStar() bool {
	for _, it := range c.Kids {
		if it.Star || (it.C != nil && it.C.hasStar()) {
			return true
		}
	}
	return false
}

// TreeStream is the per-evaluation state of a pipelined Tree: the root keys
// already built, kept across chunks.
type TreeStream struct {
	t    *TreeOp
	keys []string
	seen map[string]bool
}

// Stream starts a chunk-by-chunk build; only valid when Pipelines.
func (t *TreeOp) Stream() *TreeStream {
	return &TreeStream{t: t, keys: t.C.DirectVars(), seen: map[string]bool{}}
}

// Apply builds the trees of the root keys first seen in this chunk.
func (s *TreeStream) Apply(ctx *Context, in *tab.Tab) (*tab.Tab, error) {
	cols := colIndex(in.Cols)
	var forest data.Forest
	for _, r := range in.Rows {
		k := rowKey(r, cols, s.keys)
		if s.seen[k] {
			continue
		}
		s.seen[k] = true
		f, err := build(s.t.C, []tab.Row{r}, cols, ctx.Skolem)
		if err != nil {
			return nil, err
		}
		forest = append(forest, f...)
	}
	return s.t.emit(ctx, forest), nil
}
