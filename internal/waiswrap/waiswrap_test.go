package waiswrap

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/pattern"
	"repro/internal/tab"
)

func wrapper() *Wrapper {
	return New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks()))
}

func TestFetchWorks(t *testing.T) {
	w := wrapper()
	forest, err := w.Fetch("works")
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 1 || forest[0].Label != "works" || len(forest[0].Kids) != 2 {
		t.Fatalf("forest = %v", forest)
	}
	if _, err := w.Fetch("nosuch"); err == nil {
		t.Error("unknown document must fail")
	}
}

func TestExportStructureFigure3(t *testing.T) {
	w := wrapper()
	m := w.ExportStructure()
	if !pattern.InstanceOfModel(pattern.YATModel(), m) {
		t.Error("Artworks structure must instantiate the YAT metamodel")
	}
	// The exported documents match the exported structure.
	forest, _ := w.Fetch("works")
	for _, work := range forest[0].Kids {
		if !pattern.MatchData(m, m.Lookup("Work"), work) {
			t.Errorf("work does not match structure: %s", work)
		}
	}
}

func TestExportInterface(t *testing.T) {
	w := wrapper()
	i := w.ExportInterface()
	back, err := capability.Unmarshal(capability.Marshal(i))
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasOperation("contains") || back.EquivalenceTo("contains") == nil {
		t.Error("contains operation/equivalence lost")
	}
	if err := back.AcceptsFilter("works", filter.MustParse(`works[ *work@$w ]`)); err != nil {
		t.Errorf("must accept whole-document binds: %v", err)
	}
	if err := back.AcceptsFilter("works", filter.MustParse(`works[ *work[ title: $t ] ]`)); err == nil {
		t.Error("must reject navigation inside documents")
	}
}

func TestPushContains(t *testing.T) {
	w := wrapper()
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
		Pred: algebra.MustParseExpr(`contains($w, "Giverny")`),
	}
	res, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	doc := res.Rows[0][0].Tree
	if doc.Child("title").Atom.S != "Nympheas" {
		t.Errorf("doc = %s", doc)
	}
	if w.LastSearch != "Giverny" {
		t.Errorf("LastSearch = %q", w.LastSearch)
	}
	if w.E.SearchesRun == 0 {
		t.Error("search must run on the engine")
	}
}

func TestPushMultipleContains(t *testing.T) {
	w := wrapper()
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
		Pred: algebra.MustParseExpr(`contains($w, "Impressionist") AND contains($w, "Oil")`),
	}
	res, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.Rows[0][0].Tree.Child("title").Atom.S != "Waterloo Bridge" {
		t.Errorf("doc = %s", res.Rows[0][0].Tree)
	}
}

func TestPushWithoutPredicateShipsAll(t *testing.T) {
	w := wrapper()
	plan := &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)}
	res, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestPushParameterizedContains(t *testing.T) {
	w := wrapper()
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
		Pred: algebra.Call{Name: "contains", Args: []algebra.Expr{algebra.Var{Name: "$w"}, algebra.Var{Name: "$text"}}},
	}
	params := map[string]tab.Cell{"$text": tab.AtomCell(data.String("Giverny"))}
	res, err := w.Push(plan, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestPushProjectionRename(t *testing.T) {
	w := wrapper()
	plan := &algebra.Project{
		From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
		Cols: []string{"$doc=$w"},
	}
	res, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0] != "$doc" || res.Len() != 2 {
		t.Fatalf("res = %s", res)
	}
}

func TestPushRejectsUnsupported(t *testing.T) {
	w := wrapper()
	bad := []algebra.Op{
		&algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t ] ]`)},
		&algebra.Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class@$c ]`)},
		&algebra.Bind{Doc: "works", F: filter.MustParse(`works[ work@$w ]`)},
		&algebra.Bind{Doc: "works", F: filter.MustParse(`works@$all[ *work@$w ]`)},
		&algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *($docs) ]`)},
		&algebra.Select{
			From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
			Pred: algebra.MustParseExpr(`$w = "x"`)},
		&algebra.Select{
			From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
			Pred: algebra.MustParseExpr(`contains($w, $unbound)`)},
		&algebra.Union{
			L: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
			R: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w2 ]`)}},
	}
	for i, plan := range bad {
		if _, err := w.Push(plan, nil); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestContainsFunction(t *testing.T) {
	doc := datagen.PaperWorks()[0]
	ok, err := Contains([]tab.Cell{tab.TreeCell(doc), tab.AtomCell(data.String("Giverny"))})
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := ok.AsAtom(); !a.B {
		t.Error("Nympheas contains Giverny")
	}
	ok, _ = Contains([]tab.Cell{tab.TreeCell(doc), tab.AtomCell(data.String("Cubist"))})
	if a, _ := ok.AsAtom(); a.B {
		t.Error("Nympheas does not contain Cubist")
	}
	// multiword: all words must appear
	ok, _ = Contains([]tab.Cell{tab.TreeCell(doc), tab.AtomCell(data.String("Claude Giverny"))})
	if a, _ := ok.AsAtom(); !a.B {
		t.Error("multiword contains")
	}
	if _, err := Contains([]tab.Cell{tab.TreeCell(doc)}); err == nil {
		t.Error("arity check")
	}
	if _, err := Contains([]tab.Cell{tab.TreeCell(doc), tab.AtomCell(data.Int(5))}); err == nil {
		t.Error("type check")
	}
}

func TestPushAgreesWithLocalContains(t *testing.T) {
	// Pushing contains to the engine and evaluating contains mediator-side
	// over the fetched documents must agree — the declared equivalence is
	// sound for this engine.
	w := wrapper()
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
		Pred: algebra.MustParseExpr(`contains($w, "Impressionist")`),
	}
	pushed, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := algebra.NewContext()
	ctx.Sources["xmlartwork"] = w
	ctx.Funcs["contains"] = Contains
	local, err := exec.Collect(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pushed.EqualUnordered(local) {
		t.Errorf("pushed:\n%s\nlocal:\n%s", pushed, local)
	}
	if !strings.Contains(w.LastSearch, "Impressionist") {
		t.Errorf("LastSearch = %q", w.LastSearch)
	}
}
