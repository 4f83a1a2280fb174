package algebra_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/tab"
)

func samplePlans() []algebra.Op {
	lit := tab.New("$x")
	lit.Add(tab.AtomCell(data.Int(1)))
	bindWorks := &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t, style: $s, *($fields) ] ]`)}
	bindArts := &algebra.Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t2, price: $p ] ] ]`)}
	return []algebra.Op{
		&algebra.Doc{Name: "artifacts"},
		bindWorks,
		&algebra.Select{From: bindWorks, Pred: algebra.MustParseExpr(`$s = "Impressionist" AND contains($fields, "Giverny")`)},
		&algebra.Project{From: bindWorks, Cols: []string{"title=$t", "$s"}},
		&algebra.MapExpr{From: bindWorks, Col: "$n", E: algebra.MustParseExpr(`1 + 2 * 3`)},
		&algebra.Join{L: bindWorks, R: bindArts, Pred: algebra.MustParseExpr(`$t = $t2`)},
		&algebra.DJoin{L: bindWorks, R: &algebra.Bind{Col: "$fields", F: filter.MustParse(`cplace: $cl`)}},
		&algebra.Union{L: bindWorks, R: bindWorks},
		&algebra.Intersect{L: bindWorks, R: bindWorks},
		&algebra.Distinct{From: bindWorks},
		&algebra.Group{From: bindWorks, Keys: []string{"$s"}, Into: "$g"},
		&algebra.Sort{From: bindWorks, Cols: []string{"$t"}},
		&algebra.TreeOp{From: bindWorks, C: algebra.MustParseCons(`doc[ *w($t) := work[ title: $t, note: "a b  c" ] ]`), OutCol: "$out"},
		&algebra.SourceQuery{Source: "o2artifact", Plan: bindArts},
		&algebra.Literal{T: lit},
	}
}

func TestPlanXMLRoundTrip(t *testing.T) {
	for _, plan := range samplePlans() {
		s, err := algebra.MarshalPlan(plan)
		if err != nil {
			t.Errorf("marshal %s: %v", plan.Detail(), err)
			continue
		}
		back, err := algebra.UnmarshalPlan(s)
		if err != nil {
			t.Errorf("unmarshal %s: %v\n%s", plan.Detail(), err, s)
			continue
		}
		if algebra.Describe(back) != algebra.Describe(plan) {
			t.Errorf("round trip changed plan:\n%s\nvs\n%s\nxml: %s",
				algebra.Describe(plan), algebra.Describe(back), s)
		}
	}
}

func TestPlanXMLPreservesStringConstants(t *testing.T) {
	// Embedded string constants with awkward characters must survive.
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t ] ]`)},
		Pred: algebra.MustParseExpr(`$t = "a <b> & \"c\"  double  space"`),
	}
	s, err := algebra.MarshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := algebra.UnmarshalPlan(s)
	if err != nil {
		t.Fatalf("%v\n%s", err, s)
	}
	if algebra.Describe(back) != algebra.Describe(plan) {
		t.Errorf("constants corrupted:\n%s\nvs\n%s", algebra.Describe(plan), algebra.Describe(back))
	}
}

func TestPlanXMLExecutesAfterRoundTrip(t *testing.T) {
	ctx := worksCtx()
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "artworks", F: filter.MustParse(fig4FilterSrc)},
		Pred: algebra.MustParseExpr(`$a = "Claude Monet"`),
	}
	s, err := algebra.MarshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := algebra.UnmarshalPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Collect(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(back, worksCtx())
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Errorf("deserialized plan computed differently")
	}
}

func TestPlanXMLErrors(t *testing.T) {
	bad := []string{
		`<mystery/>`,
		`<select pred="$x ="><from><doc name="a"/></from></select>`,
		`<select pred="$x = 1"/>`,
		`<join pred="$x = 1"><left><doc name="a"/></left></join>`,
		`<bind filter="broken["/>`,
		`<tree cons="broken[" ><from><doc name="a"/></from></tree>`,
		`<sourcequery source="s"/>`,
		`<literal><notatab/></literal>`,
	}
	for _, src := range bad {
		if _, err := algebra.UnmarshalPlan(src); err == nil {
			t.Errorf("UnmarshalPlan(%q) should fail", src)
		}
	}
}

func TestDetailStrings(t *testing.T) {
	for _, plan := range samplePlans() {
		if strings.TrimSpace(plan.Detail()) == "" {
			t.Errorf("empty detail for %T", plan)
		}
	}
}

// genPlan builds a pseudo-random plan for serialization property tests.
func genPlan(seed int64, depth int) algebra.Op {
	s := seed
	next := func(n int64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		v := (s >> 33) % n
		if v < 0 {
			v = -v
		}
		return v
	}
	filters := []string{
		`works[ *work[ title: $t%d ] ]`,
		`set[ *class[ artifact.tuple[ year: $y%d, price: $p%d ] ] ]`,
		`doc[ *work@$w%d[ style: "Impressionist", *($f%d) ] ]`,
	}
	leaf := func() algebra.Op {
		src := filters[next(int64(len(filters)))]
		src = strings.ReplaceAll(src, "%d", fmt.Sprint(next(1000)))
		return &algebra.Bind{Doc: "works", F: filter.MustParse(src)}
	}
	var build func(d int) algebra.Op
	build = func(d int) algebra.Op {
		if d <= 0 {
			return leaf()
		}
		switch next(8) {
		case 0:
			return &algebra.Select{From: build(d - 1), Pred: algebra.MustParseExpr(fmt.Sprintf(`$x%d = %d`, next(10), next(100)))}
		case 1:
			return &algebra.Project{From: build(d - 1), Cols: []string{fmt.Sprintf("$a%d=$b%d", next(10), next(10))}}
		case 2:
			return &algebra.Join{L: build(d - 1), R: build(d - 1), Pred: algebra.MustParseExpr(fmt.Sprintf(`$l%d = $r%d`, next(10), next(10)))}
		case 3:
			return &algebra.DJoin{L: build(d - 1), R: build(d - 1)}
		case 4:
			return &algebra.Distinct{From: build(d - 1)}
		case 5:
			return &algebra.TreeOp{From: build(d - 1), C: algebra.MustParseCons(fmt.Sprintf(`doc[ *w($k%d) := item[ k: $k%d ] ]`, next(10), next(10)))}
		case 6:
			return &algebra.SourceQuery{Source: "s", Plan: build(d - 1)}
		default:
			return &algebra.Union{L: build(d - 1), R: build(d - 1)}
		}
	}
	return build(depth)
}

func TestPropertyRandomPlanXMLRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		plan := genPlan(seed, 3)
		s, err := algebra.MarshalPlan(plan)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		back, err := algebra.UnmarshalPlan(s)
		if err != nil {
			t.Fatalf("seed %d: unmarshal: %v\n%s", seed, err, s)
		}
		if algebra.Describe(back) != algebra.Describe(plan) {
			t.Fatalf("seed %d: round trip changed plan:\n%s\nvs\n%s",
				seed, algebra.Describe(plan), algebra.Describe(back))
		}
	}
}
