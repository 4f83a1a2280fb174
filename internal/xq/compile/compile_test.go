package compile

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/nodetab"
	"repro/internal/tab"
	"repro/internal/xq"
)

func compilePlan(t *testing.T, src string, opt Options) algebra.Op {
	t.Helper()
	q, err := xq.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	plan, err := Compile(q, opt)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return plan
}

func worksContext() *algebra.Context {
	ctx := algebra.NewContext()
	works := datagen.PaperWorks()
	ctx.Catalog["works"] = works
	ctx.Catalog[nodetab.Doc("works")] = nodetab.Build(works)
	return ctx
}

func rows(t *testing.T, got *tab.Tab) []string {
	t.Helper()
	var out []string
	for _, r := range got.Rows {
		var parts []string
		for _, c := range r {
			parts = append(parts, c.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func TestRuleShapeFilterRoute(t *testing.T) {
	q, err := xq.Parse(`for $w in doc("artworks")/doc/work where $w/more/cplace = "Giverny" return $w/title`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Rule(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Matches) != 1 || r.Matches[0].Doc != "artworks" {
		t.Fatalf("matches = %+v", r.Matches)
	}
	fs := r.Matches[0].F.String()
	if !strings.Contains(fs, "*work") {
		t.Errorf("for-path steps should be starred: %s", fs)
	}
	if !strings.Contains(fs, "title") || !strings.Contains(fs, "cplace") {
		t.Errorf("extensions missing from filter: %s", fs)
	}
	if r.Where == nil || !strings.Contains(r.Where.String(), `"Giverny"`) {
		t.Errorf("where = %v", r.Where)
	}
	// The rule renders as parseable YAT_L.
	if !strings.Contains(r.String(), "MAKE") {
		t.Errorf("rule = %s", r)
	}
}

func TestRuleShapeNodesRoute(t *testing.T) {
	q, err := xq.Parse(`doc("works")/work//technique`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Rule(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Matches) != 2 {
		t.Fatalf("want one match per step, got %+v", r.Matches)
	}
	for _, m := range r.Matches {
		if m.Doc != "works.nodes" {
			t.Errorf("match doc = %q", m.Doc)
		}
	}
	f0 := r.Matches[0].F.String()
	if !strings.Contains(f0, `name: "work"`) || !strings.Contains(f0, "parent: -1") {
		t.Errorf("root step filter = %s", f0)
	}
	// Canonical field order: pre before post before parent before name.
	if pre, post := strings.Index(f0, "pre"), strings.Index(f0, "post"); pre < 0 || post < pre {
		t.Errorf("field order violated: %s", f0)
	}
	w := r.Where.String()
	if strings.Count(w, "<") != 2 {
		t.Errorf("descendant axis should lower to two range comparisons: %s", w)
	}
}

func TestEvalFilterRoute(t *testing.T) {
	plan := compilePlan(t, `for $w in doc("works")/work where $w/style = "Impressionist" return $w/title`, Options{})
	got, err := exec.Collect(plan, worksContext())
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, got)
	if len(rs) != 2 || !strings.Contains(rs[0], "Nympheas") || !strings.Contains(rs[1], "Waterloo Bridge") {
		t.Errorf("rows = %v", rs)
	}
}

func TestEvalNodesRouteDescendant(t *testing.T) {
	// //technique reaches through the history element only the node table
	// encodes positionally.
	plan := compilePlan(t, `doc("works")/work//technique`, Options{})
	got, err := exec.Collect(plan, worksContext())
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, got)
	if len(rs) != 1 || !strings.Contains(rs[0], "Oil on canvas") {
		t.Errorf("rows = %v", rs)
	}
}

func TestEvalNodesRoutePositionalAndValue(t *testing.T) {
	// The second work, by value comparison on a child.
	plan := compilePlan(t, `for $w in doc("works")/work[2] return $w/title`, Options{})
	got, err := exec.Collect(plan, worksContext())
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, got)
	if len(rs) != 1 || !strings.Contains(rs[0], "Waterloo Bridge") {
		t.Errorf("rows = %v", rs)
	}
}

func TestEvalNodesRouteReverseAxis(t *testing.T) {
	// Which works contain a technique? Walk back up with ancestor::.
	plan := compilePlan(t, `for $t in doc("works")//technique, $w in $t/ancestor::work return $w/title`, Options{})
	got, err := exec.Collect(plan, worksContext())
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, got)
	if len(rs) != 1 || !strings.Contains(rs[0], "Waterloo Bridge") {
		t.Errorf("rows = %v", rs)
	}
}

func TestNodesRouteIterationBindsStayIndependent(t *testing.T) {
	// Regression: two for clauses iterating the same var-rooted path must
	// compile to distinct binds forming a cartesian product. The nodes-route
	// extension memo used to alias them, collapsing the pairs and letting a
	// predicate on $a silently constrain $b.
	works := data.Forest{
		data.Elem("work",
			data.Text("title", "t1"),
			data.Text("title", "t2"),
		),
	}
	ctx := algebra.NewContext()
	ctx.Catalog["dup"] = works
	ctx.Catalog[nodetab.Doc("dup")] = nodetab.Build(works)

	src := `for $w in doc("dup")//work, $a in $w/title, $b in $w/title return <p><x>{$a}</x><y>{$b}</y></p>`
	q, err := xq.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Rule(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Matches) != 3 {
		t.Fatalf("want one bind for work plus one per title clause, got %d matches:\n%s", len(r.Matches), r)
	}
	plan, err := Compile(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, got)
	if len(rs) != 4 {
		t.Fatalf("cartesian of two 2-title clauses should yield 4 rows, got %v", rs)
	}
	cross := 0
	for _, row := range rs {
		if strings.Contains(row, "t1") && strings.Contains(row, "t2") {
			cross++
		}
	}
	if cross != 2 {
		t.Errorf("want 2 mixed (t1,t2)/(t2,t1) rows, got %d in %v", cross, rs)
	}

	// A predicate on $a must not leak onto $b.
	plan = compilePlan(t, `for $w in doc("dup")//work, $a in $w/title, $b in $w/title where $a = "t1" return $b`, Options{})
	got, err = exec.Collect(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rs = rows(t, got)
	if len(rs) != 2 {
		t.Errorf("filtering $a should leave both $b bindings, got %v", rs)
	}
}

func TestEvalConstructor(t *testing.T) {
	plan := compilePlan(t, `for $w in doc("works")/work where $w/cplace = "Giverny" return <hit><title>{$w/title}</title><at>{$w/cplace}</at></hit>`, Options{})
	got, err := exec.Collect(plan, worksContext())
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, got)
	if len(rs) != 1 || !strings.Contains(rs[0], "Nympheas") || !strings.Contains(rs[0], "Giverny") {
		t.Errorf("rows = %v", rs)
	}
}

func TestCompileErrors(t *testing.T) {
	isView := func(d string) bool { return d == "artworks" }
	cases := []string{
		`doc("artworks")//title`,                             // nodes route over a view
		`for $w in doc("d")/a where $q/x = 1 return $w`,      // unbound variable
		`for $w in doc("d")/a where x = 1 return $w`,         // relative path outside a step predicate
		`for $w in doc("d")/parent::b return $w`,             // the document root has no parent
		`for $w in doc("d")/a, $t in $w/parent::b return $w`, // reverse axis on filter anchor
		`for $w in doc("d")/a, $w in $w/b return $w`,         // duplicate binding
		`for $w in doc("d")/a[2][3] return $w`,               // two positional predicates on one step
		`for $w in doc("d")/*[2] return $w`,                  // positional predicate on a wildcard step
	}
	for _, src := range cases {
		q, err := xq.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(q, Options{IsView: isView}); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}
