package algebra_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/tab"
)

// figure1Works reproduces the XML collection of works of Figure 1.
func figure1Works() *data.Node {
	return data.Elem("works",
		data.Elem("work",
			data.Text("artist", "Claude Monet"),
			data.Text("title", "Nympheas"),
			data.Text("style", "Impressionist"),
			data.Text("size", "21 x 61"),
			data.Text("cplace", "Giverny"),
		),
		data.Elem("work",
			data.Text("artist", "Claude Monet"),
			data.Text("title", "Waterloo Bridge"),
			data.Text("style", "Impressionist"),
			data.Text("size", "29.2 x 46.4"),
			data.Elem("history", data.Text("technique", "Oil on canvas")),
		),
		data.Elem("work",
			data.Text("artist", "Edgar Degas"),
			data.Text("title", "Dancers"),
			data.Text("style", "Impressionist"),
			data.Text("size", "10 x 10"),
		),
	)
}

func worksCtx() *algebra.Context {
	ctx := algebra.NewContext()
	ctx.Catalog["artworks"] = data.Forest{figure1Works()}
	return ctx
}

func mustEval(t *testing.T, op algebra.Op, ctx *algebra.Context) *tab.Tab {
	t.Helper()
	res, err := exec.Collect(op, ctx)
	if err != nil {
		t.Fatalf("eval %s: %v", op.Detail(), err)
	}
	return res
}

const fig4FilterSrc = `works[ *work[ artist: $a, title: $t, style: $s, size: $si, *($fields) ] ]`

func TestFigure4BindOperator(t *testing.T) {
	ctx := worksCtx()
	bind := &algebra.Bind{Doc: "artworks", F: filter.MustParse(fig4FilterSrc)}
	got := mustEval(t, bind, ctx)
	if got.Len() != 3 {
		t.Fatalf("rows = %d\n%s", got.Len(), got)
	}
	if strings.Join(got.Cols, " ") != "$a $t $s $si $fields" {
		t.Errorf("cols = %v", got.Cols)
	}
	if ctx.Stats.BindRows != 3 {
		t.Errorf("BindRows stat = %d", ctx.Stats.BindRows)
	}
}

func TestFigure4TreeOperator(t *testing.T) {
	// Tree regroups works per artist: artists[ artist*($a)[ name, titles ] ]
	ctx := worksCtx()
	plan := &algebra.TreeOp{
		From: &algebra.Bind{Doc: "artworks", F: filter.MustParse(fig4FilterSrc)},
		C:    algebra.MustParseCons(`artists[ *($a) artist[ name: $a, *($t) title: $t ] ]`),
	}
	got := mustEval(t, plan, ctx)
	if got.Len() != 1 {
		t.Fatalf("tree rows = %d", got.Len())
	}
	root := got.Rows[0][0].Tree
	if root.Label != "artists" || len(root.Kids) != 2 {
		t.Fatalf("unexpected tree: %s", root)
	}
	monet := root.Kids[0]
	if monet.Child("name").Atom.S != "Claude Monet" {
		t.Errorf("first artist = %v", monet.Child("name"))
	}
	if len(monet.Children("title")) != 2 {
		t.Errorf("Monet titles = %d, want 2", len(monet.Children("title")))
	}
	degas := root.Kids[1]
	if degas.Child("name").Atom.S != "Edgar Degas" || len(degas.Children("title")) != 1 {
		t.Errorf("second artist = %s", degas)
	}
}

func TestSelectProject(t *testing.T) {
	ctx := worksCtx()
	plan := &algebra.Project{
		From: &algebra.Select{
			From: &algebra.Bind{Doc: "artworks", F: filter.MustParse(fig4FilterSrc)},
			Pred: algebra.MustParseExpr(`$a = "Claude Monet"`),
		},
		Cols: []string{"$t"},
	}
	got := mustEval(t, plan, ctx)
	if got.Len() != 2 || len(got.Cols) != 1 {
		t.Fatalf("got %s", got)
	}
}

func TestSelectComparisonsAndNullSemantics(t *testing.T) {
	lit := tab.New("$y")
	lit.Add(tab.AtomCell(data.Int(1750)))
	lit.Add(tab.AtomCell(data.Int(1897)))
	lit.Add(tab.Null())
	plan := &algebra.Select{From: &algebra.Literal{lit}, Pred: algebra.MustParseExpr(`$y > 1800`)}
	got := mustEval(t, plan, algebra.NewContext())
	if got.Len() != 1 {
		t.Fatalf("rows = %d (null must compare false, not error)", got.Len())
	}
	if a, _ := got.Rows[0][0].AsAtom(); a.I != 1897 {
		t.Errorf("row = %v", got.Rows[0])
	}
}

func TestJoinHashAndNested(t *testing.T) {
	l := tab.New("$a", "$x")
	l.Add(tab.AtomCell(data.String("monet")), tab.AtomCell(data.Int(1)))
	l.Add(tab.AtomCell(data.String("degas")), tab.AtomCell(data.Int(2)))
	r := tab.New("$b", "$y")
	r.Add(tab.AtomCell(data.String("monet")), tab.AtomCell(data.Int(10)))
	r.Add(tab.AtomCell(data.String("monet")), tab.AtomCell(data.Int(11)))
	r.Add(tab.AtomCell(data.String("renoir")), tab.AtomCell(data.Int(12)))

	eq := &algebra.Join{L: &algebra.Literal{l}, R: &algebra.Literal{r}, Pred: algebra.MustParseExpr(`$a = $b`)}
	got := mustEval(t, eq, algebra.NewContext())
	if got.Len() != 2 {
		t.Fatalf("equi join rows = %d", got.Len())
	}
	// theta join falls back to nested loops
	theta := &algebra.Join{L: &algebra.Literal{l}, R: &algebra.Literal{r}, Pred: algebra.MustParseExpr(`$x < $y`)}
	got2 := mustEval(t, theta, algebra.NewContext())
	if got2.Len() != 6 {
		t.Fatalf("theta join rows = %d", got2.Len())
	}
	// mixed: equality plus residual
	mixed := &algebra.Join{L: &algebra.Literal{l}, R: &algebra.Literal{r}, Pred: algebra.MustParseExpr(`$a = $b AND $y > 10`)}
	got3 := mustEval(t, mixed, algebra.NewContext())
	if got3.Len() != 1 {
		t.Fatalf("mixed join rows = %d", got3.Len())
	}
}

func TestDJoinParameterPassing(t *testing.T) {
	// Left: works bindings; right: a Bind over the $fields parameter,
	// extracting cplace — the split form of Figure 7.
	ctx := worksCtx()
	plan := &algebra.DJoin{
		L: &algebra.Bind{Doc: "artworks", F: filter.MustParse(`works[ *work@$w[ title: $t, *($fields) ] ]`)},
		R: &algebra.Bind{Col: "$fields", F: filter.MustParse(`cplace: $cl`)},
	}
	got := mustEval(t, plan, ctx)
	if got.Len() != 1 {
		t.Fatalf("djoin rows = %d\n%s", got.Len(), got)
	}
	if a, _ := got.Rows[0][got.ColIndex("$cl")].AsAtom(); a.S != "Giverny" {
		t.Errorf("$cl = %v", got.Rows[0])
	}
}

func TestDJoinEquivalentToJoinWhenIndependent(t *testing.T) {
	l := tab.New("$x")
	l.Add(tab.AtomCell(data.Int(1)))
	l.Add(tab.AtomCell(data.Int(2)))
	r := tab.New("$y")
	r.Add(tab.AtomCell(data.Int(10)))
	dj := &algebra.DJoin{L: &algebra.Literal{l}, R: &algebra.Literal{r}}
	j := &algebra.Join{L: &algebra.Literal{l}, R: &algebra.Literal{r}, Pred: algebra.TrueExpr()}
	a := mustEval(t, dj, algebra.NewContext())
	b := mustEval(t, j, algebra.NewContext())
	if !a.EqualUnordered(b) {
		t.Errorf("DJoin over independent right must equal cross join:\n%s\nvs\n%s", a, b)
	}
}

func TestUnionIntersectDistinct(t *testing.T) {
	a := tab.New("$x")
	a.Add(tab.AtomCell(data.Int(1)))
	a.Add(tab.AtomCell(data.Int(2)))
	b := tab.New("$x")
	b.Add(tab.AtomCell(data.Int(2)))
	b.Add(tab.AtomCell(data.Int(3)))
	u := mustEval(t, &algebra.Union{&algebra.Literal{a}, &algebra.Literal{b}}, algebra.NewContext())
	if u.Len() != 4 {
		t.Errorf("union rows = %d", u.Len())
	}
	i := mustEval(t, &algebra.Intersect{&algebra.Literal{a}, &algebra.Literal{b}}, algebra.NewContext())
	if i.Len() != 1 {
		t.Errorf("intersect rows = %d", i.Len())
	}
	d := mustEval(t, &algebra.Distinct{&algebra.Union{&algebra.Literal{a}, &algebra.Literal{b}}}, algebra.NewContext())
	if d.Len() != 3 {
		t.Errorf("distinct rows = %d", d.Len())
	}
	// incompatible arities error
	c := tab.New("$x", "$y")
	if _, err := exec.Collect(&algebra.Union{&algebra.Literal{a}, &algebra.Literal{c}}, algebra.NewContext()); err == nil {
		t.Error("union of incompatible tabs must fail")
	}
	if _, err := exec.Collect(&algebra.Intersect{&algebra.Literal{a}, &algebra.Literal{c}}, algebra.NewContext()); err == nil {
		t.Error("intersect of incompatible tabs must fail")
	}
}

func TestGroupSortMap(t *testing.T) {
	ctx := worksCtx()
	bind := &algebra.Bind{Doc: "artworks", F: filter.MustParse(fig4FilterSrc)}
	g := mustEval(t, &algebra.Group{From: bind, Keys: []string{"$a"}, Into: "$works"}, ctx)
	if g.Len() != 2 {
		t.Errorf("groups = %d", g.Len())
	}
	s := mustEval(t, &algebra.Sort{From: bind, Cols: []string{"$t"}}, ctx)
	first, _ := s.Rows[0][s.ColIndex("$t")].AsAtom()
	if first.S != "Dancers" {
		t.Errorf("sort first = %v", first)
	}
	m := mustEval(t, &algebra.MapExpr{
		From: &algebra.Literal{tab.New("$p").Add(tab.AtomCell(data.Int(100)))},
		Col:  "$tax", E: algebra.MustParseExpr(`$p * 2`),
	}, algebra.NewContext())
	if a, _ := m.Rows[0][1].AsAtom(); a.I != 200 {
		t.Errorf("map value = %v", m.Rows[0][1])
	}
}

func TestSkolemIdentityAndFusion(t *testing.T) {
	reg := algebra.NewSkolems()
	id1 := reg.ID("artwork", []tab.Cell{tab.AtomCell(data.String("Nympheas"))})
	id2 := reg.ID("artwork", []tab.Cell{tab.AtomCell(data.String("Nympheas"))})
	id3 := reg.ID("artwork", []tab.Cell{tab.AtomCell(data.String("Dancers"))})
	if id1 != id2 {
		t.Error("same key must yield the same Skolem id")
	}
	if id1 == id3 {
		t.Error("different keys must yield different ids")
	}
	if reg.Len() != 2 {
		t.Errorf("registry size = %d", reg.Len())
	}
}

func TestTreeSkolemAndReferences(t *testing.T) {
	rows := tab.New("$t", "$o")
	rows.Add(tab.AtomCell(data.String("Nympheas")), tab.AtomCell(data.String("Doctor X")))
	rows.Add(tab.AtomCell(data.String("Nympheas")), tab.AtomCell(data.String("Mme Y")))
	ctx := algebra.NewContext()
	plan := &algebra.TreeOp{
		From: &algebra.Literal{rows},
		C: algebra.MustParseCons(`doc[ *artwork($t) := work[ title: $t, owners[ *owner: &person($o) ] ],
		                       *person($o) := person[ name: $o ] ]`),
	}
	got := mustEval(t, plan, ctx)
	root := got.Rows[0][0].Tree
	works := root.Children("work")
	persons := root.Children("person")
	if len(works) != 1 || len(persons) != 2 {
		t.Fatalf("works=%d persons=%d\n%s", len(works), len(persons), root.Indent())
	}
	if works[0].ID == "" {
		t.Error("Skolem must identify the work")
	}
	owners := works[0].Child("owners")
	if len(owners.Kids) != 2 || !owners.Kids[0].IsRef() {
		t.Fatalf("owners = %s", owners)
	}
	// the reference resolves to the person with the same Skolem key
	target := ctx.Store.Lookup(owners.Kids[0].Ref)
	if target == nil || target.Child("name").Atom.S != "Doctor X" {
		t.Errorf("reference target = %v", target)
	}
}

func TestTreeRootPerRow(t *testing.T) {
	// MAKE $t — one result per distinct binding.
	rows := tab.New("$t")
	rows.Add(tab.AtomCell(data.String("A")))
	rows.Add(tab.AtomCell(data.String("B")))
	rows.Add(tab.AtomCell(data.String("A")))
	got := mustEval(t, &algebra.TreeOp{From: &algebra.Literal{rows}, C: algebra.MustParseCons(`title: $t`)}, algebra.NewContext())
	if got.Len() != 2 {
		t.Fatalf("rows = %d (distinct grouping)", got.Len())
	}
	if got.Rows[0][0].Tree.Atom.S != "A" {
		t.Errorf("first = %v", got.Rows[0][0])
	}
}

func TestTreeSpliceSeq(t *testing.T) {
	rows := tab.New("$t", "$fields")
	rows.Add(tab.AtomCell(data.String("W")),
		tab.SeqCell(data.Forest{data.Text("cplace", "Giverny"), data.Text("note", "x")}))
	got := mustEval(t, &algebra.TreeOp{From: &algebra.Literal{rows},
		C: algebra.MustParseCons(`work[ title: $t, more: $fields ]`)}, algebra.NewContext())
	more := got.Rows[0][0].Tree.Child("more")
	if len(more.Kids) != 2 || more.Kids[0].Label != "cplace" {
		t.Errorf("more = %s", more)
	}
}

func TestTreeLabelVariable(t *testing.T) {
	rows := tab.New("$l", "$v")
	rows.Add(tab.AtomCell(data.String("cplace")), tab.AtomCell(data.String("Giverny")))
	got := mustEval(t, &algebra.TreeOp{From: &algebra.Literal{rows}, C: algebra.MustParseCons(`~$l: $v`)}, algebra.NewContext())
	n := got.Rows[0][0].Tree
	if n.Label != "cplace" || n.Atom.S != "Giverny" {
		t.Errorf("constructed = %s", n)
	}
}

func TestTreeEmptyInput(t *testing.T) {
	got := mustEval(t, &algebra.TreeOp{From: &algebra.Literal{tab.New("$t")},
		C: algebra.MustParseCons(`doc[ *title: $t ]`)}, algebra.NewContext())
	if got.Len() != 1 {
		t.Fatalf("rows = %d (empty doc skeleton)", got.Len())
	}
	if n := got.Rows[0][0].Tree; n.Label != "doc" || len(n.Kids) != 0 {
		t.Errorf("skeleton = %s", n)
	}
}

type fakeSource struct {
	name   string
	docs   map[string]data.Forest
	pushed []algebra.Op
	result *tab.Tab
}

func (f *fakeSource) Name() string { return f.name }
func (f *fakeSource) Documents() []string {
	var out []string
	for d := range f.docs {
		out = append(out, d)
	}
	return out
}
func (f *fakeSource) Fetch(doc string) (data.Forest, error) { return f.docs[doc], nil }
func (f *fakeSource) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	f.pushed = append(f.pushed, plan)
	return f.result, nil
}

func TestSourceQueryAndStats(t *testing.T) {
	res := tab.New("$t")
	res.Add(tab.AtomCell(data.String("Nympheas")))
	src := &fakeSource{name: "o2", docs: map[string]data.Forest{"artifacts": {figure1Works()}}, result: res}
	ctx := algebra.NewContext()
	ctx.Sources["o2"] = src
	q := &algebra.SourceQuery{Source: "o2", Plan: &algebra.Literal{res}}
	got := mustEval(t, q, ctx)
	if got.Len() != 1 || len(src.pushed) != 1 {
		t.Fatalf("push failed: %v", got)
	}
	if ctx.Stats.SourcePushes != 1 || ctx.Stats.TuplesShipped != 1 || ctx.Stats.BytesShipped == 0 {
		t.Errorf("stats = %+v", ctx.Stats)
	}
	// Doc resolution through a source counts a fetch.
	d := &algebra.Doc{Name: "artifacts"}
	if got := mustEval(t, d, ctx); got.Len() != 1 {
		t.Errorf("doc rows = %d", got.Len())
	}
	if ctx.Stats.SourceFetches != 1 {
		t.Errorf("fetches = %d", ctx.Stats.SourceFetches)
	}
	if _, err := exec.Collect(&algebra.Doc{Name: "nope"}, ctx); err == nil {
		t.Error("unknown doc must fail")
	}
	if _, err := exec.Collect(&algebra.SourceQuery{Source: "nope", Plan: q.Plan}, ctx); err == nil {
		t.Error("unknown source must fail")
	}
}

func TestExprEval(t *testing.T) {
	cols := map[string]int{"$x": 0, "$y": 1}
	row := tab.Row{tab.AtomCell(data.Int(3)), tab.AtomCell(data.Float(1.5))}
	ctx := algebra.NewContext()
	cases := []struct {
		src  string
		want string
	}{
		{`$x + 1`, "4"},
		{`$x - 1`, "2"},
		{`$x * 2`, "6"},
		{`$x / 2`, "1.5"},
		{`$x + $y`, "4.5"},
		{`-$x`, "-3"},
		{`$x = 3`, "true"},
		{`$x != 3`, "false"},
		{`$x <= 3 AND $y < 2`, "true"},
		{`$x > 3 OR $y >= 1.5`, "true"},
		{`NOT ($x = 3)`, "false"},
		{`true`, "true"},
		{`false OR true`, "true"},
		{`"a" = "a"`, "true"},
	}
	for _, c := range cases {
		e := algebra.MustParseExpr(c.src)
		v, err := e.Eval(ctx, cols, row)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		a, _ := v.AsAtom()
		if a.Text() != c.want {
			t.Errorf("%s = %s, want %s", c.src, a.Text(), c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	cols := map[string]int{"$s": 0}
	row := tab.Row{tab.AtomCell(data.String("x"))}
	ctx := algebra.NewContext()
	for _, src := range []string{`$s + 1`, `$missing = 1`, `$s / 0`, `unknownfn($s)`} {
		e, err := algebra.ParseExpr(src)
		if err != nil {
			t.Errorf("parse %s: %v", src, err)
			continue
		}
		if _, err := e.Eval(ctx, cols, row); err == nil {
			t.Errorf("%s should fail at eval", src)
		}
	}
	if _, err := algebra.ParseExpr(`1 +`); err == nil {
		t.Error("dangling operator must fail")
	}
	if _, err := algebra.ParseExpr(`(1`); err == nil {
		t.Error("unbalanced paren must fail")
	}
	if _, err := algebra.ParseExpr(`1 2`); err == nil {
		t.Error("trailing input must fail")
	}
	if _, err := algebra.ParseExpr(`name`); err == nil {
		t.Error("bare name must fail (functions need parentheses)")
	}
}

func TestCallFunction(t *testing.T) {
	ctx := algebra.NewContext()
	ctx.Funcs["double"] = func(args []tab.Cell) (tab.Cell, error) {
		a, _ := args[0].AsAtom()
		return tab.AtomCell(data.Int(a.I * 2)), nil
	}
	e := algebra.MustParseExpr(`double($x)`)
	v, err := e.Eval(ctx, map[string]int{"$x": 0}, tab.Row{tab.AtomCell(data.Int(21))})
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := v.AsAtom(); a.I != 42 {
		t.Errorf("double = %v", a)
	}
	if ctx.Stats.FuncCalls != 1 {
		t.Errorf("FuncCalls = %d", ctx.Stats.FuncCalls)
	}
}

func TestParamFallback(t *testing.T) {
	ctx := algebra.NewContext()
	ctx.Params = map[string]tab.Cell{"$p": tab.AtomCell(data.Int(7))}
	v, err := algebra.Var{"$p"}.Eval(ctx, map[string]int{}, tab.Row{})
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := v.AsAtom(); a.I != 7 {
		t.Errorf("param = %v", a)
	}
}

func TestConsParsePrintStability(t *testing.T) {
	cases := []string{
		`doc[ *artwork($t, $c) := work[ title: $t, artist: $a ] ]`,
		`artists[ *($a) artist[ name: $a, *($t) title: $t ] ]`,
		`work[ owners[ *owner: &person($o) ] ]`,
		`title: $t`,
		`~$l: $v`,
		`work[ kind: "painting", year: 1897, rate: 1.5 ]`,
		`doc[]`,
	}
	for _, src := range cases {
		c, err := algebra.ParseCons(src)
		if err != nil {
			t.Errorf("ParseCons(%q): %v", src, err)
			continue
		}
		printed := c.String()
		c2, err := algebra.ParseCons(printed)
		if err != nil {
			t.Errorf("reparse %q -> %q: %v", src, printed, err)
			continue
		}
		if c2.String() != printed {
			t.Errorf("unstable: %q -> %q -> %q", src, printed, c2.String())
		}
	}
}

func TestConsParseErrors(t *testing.T) {
	bad := []string{
		``, `doc[`, `&name`, `&name(`, `*$x`, `doc[ * ]`,
		`f($x) :=`, `doc[ x: ]`, `doc] y`, `~notavar`,
	}
	for _, src := range bad {
		if _, err := algebra.ParseCons(src); err == nil {
			t.Errorf("ParseCons(%q) should fail", src)
		}
	}
}

func TestDescribePlan(t *testing.T) {
	plan := &algebra.Select{
		From: &algebra.Join{
			L:    &algebra.Bind{Doc: "artifacts", F: filter.MustParse(`set[ *%[ title: $t ] ]`)},
			R:    &algebra.Bind{Doc: "artworks", F: filter.MustParse(`works[ *work[ title: $t2 ] ]`)},
			Pred: algebra.MustParseExpr(`$t = $t2`),
		},
		Pred: algebra.MustParseExpr(`$t != "x"`),
	}
	s := algebra.Describe(plan)
	for _, frag := range []string{"Select", "Join", "Bind(artifacts", "Bind(artworks"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("plan lines = %d", len(lines))
	}
	count := 0
	algebra.Walk(plan, func(algebra.Op) bool { count++; return true })
	if count != 4 {
		t.Errorf("Walk visited %d ops", count)
	}
}

func TestPropertyHashJoinEqualsNestedLoop(t *testing.T) {
	f := func(ls, rs []uint8) bool {
		l := tab.New("$a")
		for _, v := range ls {
			l.Add(tab.AtomCell(data.Int(int64(v % 8))))
		}
		r := tab.New("$b")
		for _, v := range rs {
			r.Add(tab.AtomCell(data.Int(int64(v % 8))))
		}
		hash := &algebra.Join{L: &algebra.Literal{l}, R: &algebra.Literal{r}, Pred: algebra.MustParseExpr(`$a = $b`)}
		// Force nested loops via a semantically identical non-Var equality.
		nested := &algebra.Join{L: &algebra.Literal{l}, R: &algebra.Literal{r}, Pred: algebra.MustParseExpr(`$a + 0 = $b + 0`)}
		a, err1 := exec.Collect(hash, algebra.NewContext())
		b, err2 := exec.Collect(nested, algebra.NewContext())
		if err1 != nil || err2 != nil {
			return false
		}
		return a.EqualUnordered(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDJoinMatchesJoinOnParams(t *testing.T) {
	// DJoin(L, σ_{$b=$a}(R)) ≡ Join(L, R, $a=$b) — the information-passing
	// equivalence underlying Section 5.3.
	f := func(ls, rs []uint8) bool {
		l := tab.New("$a")
		for _, v := range ls {
			l.Add(tab.AtomCell(data.Int(int64(v % 5))))
		}
		r := tab.New("$b")
		for _, v := range rs {
			r.Add(tab.AtomCell(data.Int(int64(v % 5))))
		}
		dj := &algebra.DJoin{L: &algebra.Literal{l}, R: &algebra.Select{From: &algebra.Literal{r}, Pred: algebra.MustParseExpr(`$b = $a`)}}
		j := &algebra.Join{L: &algebra.Literal{l}, R: &algebra.Literal{r}, Pred: algebra.MustParseExpr(`$a = $b`)}
		a, err1 := exec.Collect(dj, algebra.NewContext())
		b, err2 := exec.Collect(j, algebra.NewContext())
		if err1 != nil || err2 != nil {
			return false
		}
		return a.EqualUnordered(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
