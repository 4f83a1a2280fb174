package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/mediator"
	"repro/internal/o2wrap"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// expected is the oracle's answer to one query text.
type expected struct {
	rows [][]string
	// lines are the rows as the front door encodes them, one NDJSON line
	// each without the newline; sorted unless ordered.
	lines []string
	// ordered is set when the plan's root is a Sort, which fixes the order
	// the rows must arrive in.
	ordered bool
}

// newSources builds the three wrappers over a dataset in-process: the same
// data, capability interfaces and structures the wrapper processes export.
// The feed store ingests the corpus file the feed wrapper is given.
func newSources(d *dataset, feedPath string) ([]wire.Exported, error) {
	ow := o2wrap.New("o2artifact", d.db)
	schema := ow.ExportSchema()
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(d.works))
	fw, err := newFeedWrapper(feedPath)
	if err != nil {
		return nil, err
	}
	return []wire.Exported{
		{Source: ow, Interface: ow.ExportInterface(), Structures: map[string]wire.StructureRef{
			"artifacts": {Model: schema, Pattern: "Artifact"},
			"persons":   {Model: schema, Pattern: "Person"},
		}},
		{Source: ww, Interface: ww.ExportInterface(), Structures: map[string]wire.StructureRef{
			"works": {Model: ww.ExportStructure(), Pattern: "Works"},
		}},
		{Source: fw, Interface: fw.ExportInterface(), Structures: map[string]wire.StructureRef{
			"records": {Model: fw.ExportStructure(), Pattern: "Records"},
		}},
	}, nil
}

func newFeedWrapper(path string) (*feed.Wrapper, error) {
	r, err := feed.OpenDump(path)
	if err != nil {
		return nil, err
	}
	s := feed.NewStore()
	if _, err := s.Ingest(r); err != nil {
		return nil, fmt.Errorf("ingest %s: %w", path, err)
	}
	return feed.New("bulkfeed", s), nil
}

// newMediator returns a mediator with the external functions yat-mediator
// registers.
func newMediator() *mediator.Mediator {
	m := mediator.New()
	m.RegisterFunc("contains", waiswrap.Contains)
	m.RegisterFunc("prefix", feed.Prefix)
	return m
}

// connectDirect connects exported sources to m without a wire in between.
func connectDirect(m *mediator.Mediator, exps []wire.Exported) error {
	for _, e := range exps {
		if err := m.Connect(e.Source, e.Interface); err != nil {
			return err
		}
		for doc, ref := range e.Structures {
			m.ImportStructure(doc, ref.Model, ref.Pattern)
		}
	}
	return m.LoadProgram(datagen.View1Src)
}

// buildOracle evaluates every distinct query text of the sequence with the
// naive strategy (the view materialized, no pushdown, no information
// passing) in-process, over the same data the wrappers serve.
func buildOracle(d *dataset, feedPath string, seq []string) (map[string]*expected, error) {
	exps, err := newSources(d, feedPath)
	if err != nil {
		return nil, err
	}
	m := newMediator()
	if err := connectDirect(m, exps); err != nil {
		return nil, err
	}
	out := map[string]*expected{}
	for _, q := range seq {
		if _, done := out[q]; done {
			continue
		}
		naive, err := m.Compose(q)
		if err != nil {
			return nil, fmt.Errorf("oracle compose: %w", err)
		}
		res, err := m.QueryNaive(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		e := &expected{ordered: isSort(naive)}
		for _, r := range res.Tab.Rows {
			cells := make([]string, len(r))
			for i, c := range r {
				cells[i] = c.String()
			}
			e.rows = append(e.rows, cells)
			b, err := json.Marshal(struct {
				Row []string `json:"row"`
			}{cells})
			if err != nil {
				return nil, err
			}
			e.lines = append(e.lines, string(b))
		}
		if !e.ordered {
			sort.Strings(e.lines)
		}
		out[q] = e
	}
	return out, nil
}

func isSort(op algebra.Op) bool {
	_, ok := op.(*algebra.Sort)
	return ok
}

// matches reports whether the row lines of one response are the expected
// answer: the same multiset of rows, in the same order when a Sort fixes
// it. Lines are compared as bytes first; when the bytes differ the rows
// are decoded and compared as values, so an encoding change alone is not
// a wrong answer. got is reordered.
func (e *expected) matches(got []string) bool {
	if len(got) != len(e.lines) {
		return false
	}
	if !e.ordered {
		sort.Strings(got)
	}
	same := true
	for i := range got {
		if got[i] != e.lines[i] {
			same = false
			break
		}
	}
	if same {
		return true
	}
	keys := make([]string, len(got))
	for i, l := range got {
		var row struct {
			Row []string `json:"row"`
		}
		if err := json.Unmarshal([]byte(l), &row); err != nil {
			return false
		}
		keys[i] = strings.Join(row.Row, "\x00")
	}
	want := make([]string, len(e.rows))
	for i, r := range e.rows {
		want[i] = strings.Join(r, "\x00")
	}
	if !e.ordered {
		sort.Strings(keys)
		sort.Strings(want)
	}
	for i := range keys {
		if keys[i] != want[i] {
			return false
		}
	}
	return true
}
