package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/frontdoor"
	"repro/internal/mediator"
	"repro/internal/optimizer"
	"repro/internal/wire"
)

// The traced run hosts the deployment in-process — the three wrappers
// behind wire servers on loopback, wire clients, one mediator and its front
// door — and times the calls into each layer's public functions. A second,
// undecorated copy of the stack answers the same queries: its statistics
// check the decorators' counts, and its front-door time gives the tracing
// overhead.

// execOptions and doorLimits are the defaults of yat-mediator's -parallel,
// -cache, -tenant-* flags, which the deployed front door runs with.
var (
	execOptions = mediator.ExecOptions{Parallelism: 1}
	doorLimits  = frontdoor.Limits{MaxConcurrent: 8, QueueDepth: 16, QueueTimeout: 2 * time.Second}
)

// sourceNames are the three wrapper families, in connect order.
var sourceNames = []string{"o2artifact", "xmlartwork", "bulkfeed"}

// stack is one in-process deployment.
type stack struct {
	servers []*wire.Server
	clients []*wire.Client
	m       *mediator.Mediator
	door    *frontdoor.Door
	handler http.Handler // the door's HTTP surface
	// opt rebuilds the optimizer options the mediator derives from what
	// it imported, so optimizer rounds can be run one at a time.
	opt optimizer.Options
}

func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}

// newStack serves each exported wrapper on loopback and connects a
// mediator to it. With rec set, every wrapper source and every client is
// wrapped in a timing decorator. It returns the time connecting took:
// dial, capability and structure import, and view load.
func newStack(exps []wire.Exported, rec *recorder) (*stack, time.Duration, error) {
	s := &stack{m: newMediator(), opt: optimizer.Options{
		Interfaces:  map[string]*capability.Interface{},
		SourceDocs:  map[string]string{},
		Structures:  map[string]optimizer.Structure{},
		InfoPassing: true,
	}}
	var addrs []string
	for _, e := range exps {
		if rec != nil {
			src, err := decorate(e.Source, &meter{rec: rec, name: "wrapper.eval", source: e.Source.Name()})
			if err != nil {
				return nil, 0, err
			}
			e.Source = src
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, 0, err
		}
		srv := wire.Serve(ln, e)
		s.servers = append(s.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	start := time.Now()
	for _, addr := range addrs {
		c, err := wire.Dial(addr)
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.clients = append(s.clients, c)
		iface, err := c.ImportInterface()
		if err != nil {
			s.close()
			return nil, 0, err
		}
		var src algebra.Source = c
		if rec != nil {
			if src, err = decorate(c, &meter{rec: rec, name: "wire.client", source: c.Name()}); err != nil {
				s.close()
				return nil, 0, err
			}
		}
		if err := s.m.Connect(src, iface); err != nil {
			s.close()
			return nil, 0, err
		}
		s.opt.Interfaces[c.Name()] = iface
		for _, d := range c.Documents() {
			s.opt.SourceDocs[d] = c.Name()
		}
		for doc, ref := range iface.Structures {
			if ref.Model != nil {
				s.opt.Structures[doc] = optimizer.Structure{Model: ref.Model, Pattern: ref.Pattern}
			}
		}
		sts, err := c.ImportStructures()
		if err != nil {
			s.close()
			return nil, 0, err
		}
		for doc, ref := range sts {
			s.m.ImportStructure(doc, ref.Model, ref.Pattern)
			s.opt.Structures[doc] = optimizer.Structure{Model: ref.Model, Pattern: ref.Pattern}
		}
	}
	if err := s.m.LoadProgram(datagen.View1Src); err != nil {
		s.close()
		return nil, 0, err
	}
	connect := time.Since(start)
	s.door = frontdoor.New(s.m, frontdoor.Options{Limits: doorLimits, Exec: execOptions})
	s.handler = s.door.Handler()
	return s, connect, nil
}

// sample is one query of the traced run.
type sample struct {
	text string

	composeAllocs, optimizeAllocs uint64
	round1, round12               time.Duration // optimizer without rounds 2–3, without round 3

	compose, optimize, exec *span
	firstChunk              time.Duration // -1: no rows
	door, admit             *span
	doorB                   time.Duration // the undecorated stack's front door
	answer, answerB         outcome       // the decorated and undecorated front doors' answers

	stats, statsB algebra.Stats
	rows          int
	planMatches   bool // the rebuilt options gave the mediator's own plan
	err           error
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// traceQuery runs one query through every timed path of the two stacks.
func traceQuery(ctx context.Context, rec *recorder, a, b *stack, q string, want *expected) *sample {
	smp := &sample{text: q, firstChunk: -1}
	body, _ := json.Marshal(map[string]string{"query": q}) // a string map always marshals

	// Allocations and per-round times, outside the query's root span.
	m0 := mallocs()
	naive, err := a.m.Compose(q)
	smp.composeAllocs = mallocs() - m0
	if err != nil {
		smp.err = err
		return smp
	}
	m0 = mallocs()
	optimizer.New(a.opt).Optimize(naive)
	smp.optimizeAllocs = mallocs() - m0
	r1 := a.opt
	r1.DisablePushdown, r1.InfoPassing = true, false
	t := time.Now()
	optimizer.New(r1).Optimize(naive)
	smp.round1 = time.Since(t)
	r12 := a.opt
	r12.InfoPassing = false
	t = time.Now()
	optimizer.New(r12).Optimize(naive)
	smp.round12 = time.Since(t)

	// The mediator path: compose, the three rounds, streamed execution.
	smp.compose = rec.begin("mediator.compose", nil)
	naive, err = a.m.Compose(q)
	rec.end(smp.compose)
	if err != nil {
		smp.err = err
		return smp
	}
	smp.optimize = rec.begin("optimizer.optimize", nil)
	plan := optimizer.New(a.opt).Optimize(naive)
	rec.end(smp.optimize)
	smp.exec = rec.begin("exec.stream", nil)
	rec.setCur(smp.exec)
	st, err := a.m.StreamPlan(ctx, plan, execOptions)
	if err == nil {
		for c := range st.Chunks() {
			if smp.rows == 0 {
				smp.firstChunk = time.Duration(rec.now() - smp.exec.Start)
			}
			smp.rows += c.Len()
		}
		var res *mediator.Result
		if res, err = st.Result(); err == nil {
			smp.stats = res.Stats
		}
	}
	rec.end(smp.exec)
	rec.setCur(nil)
	if err != nil {
		smp.err = err
		return smp
	}

	// The front door on the decorated stack — the query's real request
	// path, whose source calls become children of the door's span — then
	// admission alone.
	smp.door = rec.begin("frontdoor.serve", nil)
	rec.setCur(smp.door)
	var tw *timedWriter
	smp.answer, tw = serve(rec, a.handler, body, want)
	rec.end(smp.door)
	rec.setCur(nil)
	tw.spans(smp.door)
	smp.admit = rec.begin("frontdoor.admit", nil)
	release, err := a.door.Admit(ctx, "tenant-0")
	rec.end(smp.admit)
	if err != nil {
		smp.err = err
		return smp
	}
	release()

	// The undecorated stack: front-door time, then statistics and plan.
	t = time.Now()
	smp.answerB, _ = serve(rec, b.handler, body, want)
	smp.doorB = time.Since(t)
	stB, err := b.m.StreamContext(ctx, q, execOptions)
	if err != nil {
		smp.err = err
		return smp
	}
	for range stB.Chunks() {
	}
	resB, err := stB.Result()
	if err != nil {
		smp.err = err
		return smp
	}
	smp.statsB = resB.Stats
	smp.planMatches = resB.Plan == algebra.Describe(plan)
	return smp
}

// serve sends one query through a front door's HTTP handler in memory and
// checks the answer.
func serve(rec *recorder, h http.Handler, body []byte, want *expected) (outcome, *timedWriter) {
	req := httptest.NewRequest("POST", "/query", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "tenant-0")
	rw := &timedWriter{ResponseRecorder: httptest.NewRecorder(), rec: rec}
	start := time.Now()
	h.ServeHTTP(rw, req)
	if rw.Code != 200 {
		return outcome{fail: fmt.Sprintf("http_%d", rw.Code)}, rw
	}
	return readAnswer(bufio.NewReader(rw.Body), start, want), rw
}

// timedWriter records when the front door writes and flushes its answer.
// The door writes the columns line as soon as the mediator's StreamContext
// returns, then encodes each chunk's rows and flushes it, and ends with the
// terminal line and a flush.
type timedWriter struct {
	*httptest.ResponseRecorder
	rec    *recorder
	events []writeEvent
}

type writeEvent struct {
	from, to int64
	flush    bool
}

func (w *timedWriter) Write(b []byte) (int, error) {
	from := w.rec.now()
	n, err := w.ResponseRecorder.Write(b)
	w.events = append(w.events, writeEvent{from, w.rec.now(), false})
	return n, err
}

func (w *timedWriter) Flush() {
	from := w.rec.now()
	w.ResponseRecorder.Flush()
	w.events = append(w.events, writeEvent{from, w.rec.now(), true})
}

// spans adds the door's phases under its span: "frontdoor.open" from the
// request to the first write (decoding, admission, compose, optimize, lint
// and stream open), and one "frontdoor.write" per run of writes up to a
// flush (encoding a chunk's rows, or the first or terminal line, as NDJSON).
// The encoding of a chunk's first row precedes its first write and so
// falls outside these spans.
func (w *timedWriter) spans(door *span) {
	if len(w.events) == 0 {
		return
	}
	w.rec.closed("frontdoor.open", door, door.Start, w.events[0].from)
	from := int64(-1)
	for _, e := range w.events {
		if from < 0 {
			from = e.from
		}
		if e.flush {
			w.rec.closed("frontdoor.write", door, from, e.to)
			from = -1
		}
	}
	if from >= 0 {
		w.rec.closed("frontdoor.write", door, from, w.events[len(w.events)-1].to)
	}
}

// tracedSetups is how many times the traced run repeats each timed set-up
// step; the per-layer set-up metrics are medians.
const tracedSetups = 3

func runTraced(ctx context.Context, dir string, w workload, d *dataset, seq []string, want map[string]*expected, dur time.Duration) (*report, error) {
	feedPath := filepath.Join(dir, "corpus.ndxml")
	var gen, index, ingest, connect []float64
	for i := 0; i < tracedSetups; i++ {
		t := time.Now()
		generate(w, d.seed)
		gen = append(gen, time.Since(t).Seconds())
		t = time.Now()
		datagen.NewWaisEngine(d.works)
		index = append(index, time.Since(t).Seconds())
		r, err := feed.OpenDump(feedPath)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		st, err := feed.NewStore().Ingest(r)
		if err != nil {
			return nil, fmt.Errorf("ingest %s: %w", feedPath, err)
		}
		ingest = append(ingest, float64(st.Ingested)/time.Since(t).Seconds())
	}
	exps, err := newSources(d, feedPath)
	if err != nil {
		return nil, err
	}
	var plain *stack
	for i := 0; i < tracedSetups; i++ {
		if plain != nil {
			plain.close()
		}
		var c time.Duration
		if plain, c, err = newStack(exps, nil); err != nil {
			return nil, err
		}
		connect = append(connect, ms(c))
	}
	defer plain.close()
	rec := newRecorder()
	traced, _, err := newStack(exps, rec)
	if err != nil {
		return nil, err
	}
	defer traced.close()

	var samples []*sample
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		rec.setQuery(i + 1)
		q := seq[i%len(seq)]
		samples = append(samples, traceQuery(ctx, rec, traced, plain, q, want[q]))
	}
	if err := rec.write(filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-seed%d.json", w.name, d.seed))); err != nil {
		return nil, err
	}

	r := &report{Correct: true, Attempted: len(samples), Metrics: map[string]metric{}}
	m := r.Metrics
	m["datagen.generate_s"] = measured(median(gen), "s")
	m["waiswrap.index_s"] = measured(median(index), "s")
	m["feed.ingest_rows_per_s"] = measured(median(ingest), "1/s")
	m["mediator.connect_ms"] = measured(median(connect), "ms")
	aggregate(r, w, samples, rec.byQuery())
	return r, nil
}

// aggregate turns the samples and their spans into the per-layer metrics:
// medians per query unless the name says otherwise.
func aggregate(r *report, w workload, samples []*sample, spans map[int][]*span) {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var paramPushes, bindings, rows, tuples, repeats, mismatches int
	var doorA, doorB []float64
	var bodyBytes float64
	var q1Share []float64
	seen := map[string]bool{}
	fails := map[string]int{}
	for i, s := range samples {
		if seen[s.text] {
			repeats++
		}
		seen[s.text] = true
		fail := ""
		switch {
		case s.err != nil:
			fail = s.err.Error()
		case s.answer.fail != "":
			fail = s.answer.fail
		case s.answerB.fail != "":
			fail = "undecorated " + s.answerB.fail
		}
		if fail != "" {
			r.Failed++
			fails[fail]++
			if s.answer.fail == "wrong_answer" || s.answerB.fail == "wrong_answer" {
				r.Correct = false
			}
			continue
		}
		execMS := ms(time.Duration(s.exec.dur()))
		composeMS := ms(time.Duration(s.compose.dur()))
		optimizeMS := ms(time.Duration(s.optimize.dur()))
		add("mediator.compose_ms", composeMS)
		add("mediator.compose_allocs", float64(s.composeAllocs))
		add("optimizer.round1_ms", ms(s.round1))
		add("optimizer.round2_ms", ms(s.round12-s.round1))
		add("optimizer.round3_ms", optimizeMS-ms(s.round12))
		add("optimizer.allocs", float64(s.optimizeAllocs))
		if s.firstChunk >= 0 {
			add("exec.first_chunk_ms", ms(s.firstChunk))
		}
		share := (composeMS + optimizeMS) / (composeMS + optimizeMS + execMS) * 100
		add("mediator.planning_share_pct", share)
		if w.name == "paper_mix" && s.text == q1YATL("Giverny") {
			q1Share = append(q1Share, share)
		}
		add("frontdoor.admit_ms", ms(time.Duration(s.admit.dur())))
		doorA = append(doorA, ms(time.Duration(s.door.dur())))
		doorB = append(doorB, ms(s.doorB))
		bodyBytes += float64(s.answer.bytes)
		add("source.pushes", float64(s.stats.SourcePushes))
		add("source.fetches", float64(s.stats.SourceFetches))
		add("source.tuples_shipped", float64(s.stats.TuplesShipped))
		add("source.bytes_shipped", float64(s.stats.BytesShipped))
		rows += s.rows
		tuples += s.stats.TuplesShipped

		// Source calls made by the exec span, and the wrapper evaluations
		// they caused.
		clients := map[int]bool{}
		var children, doorChildren []*span
		var got, gotDoor algebra.Stats
		var doorOpen, doorWrite float64
		clientMS, evalMS, calls := map[string]float64{}, map[string]float64{}, map[string]float64{}
		for _, sp := range spans[i+1] {
			switch {
			case sp.Name == "wire.client" && sp.Parent == s.exec.ID:
				clients[sp.ID] = true
				children = append(children, sp)
				clientMS[sp.Source] += ms(time.Duration(sp.busy()))
				calls[sp.Source]++
				got.SourcePushes += sp.Pushes
				got.SourceFetches += sp.Fetches
				got.TuplesShipped += sp.Tuples
			case sp.Parent == s.door.ID:
				doorChildren = append(doorChildren, sp)
				switch sp.Name {
				case "wire.client":
					gotDoor.SourcePushes += sp.Pushes
					gotDoor.SourceFetches += sp.Fetches
					gotDoor.TuplesShipped += sp.Tuples
				case "frontdoor.open":
					doorOpen += ms(time.Duration(sp.dur()))
				case "frontdoor.write":
					doorWrite += ms(time.Duration(sp.dur()))
				}
			}
		}
		for _, sp := range spans[i+1] {
			if sp.Name == "wrapper.eval" && clients[sp.Parent] {
				evalMS[sp.Source] += ms(time.Duration(sp.busy()))
				paramPushes += sp.ParamPushes
				bindings += sp.Bindings
			}
		}
		add("frontdoor.open_ms", doorOpen)
		add("frontdoor.self_ms", doorWrite)
		add("unattributed_ms", ms(time.Duration(selfTime(s.door, doorChildren))))
		for _, src := range sourceNames {
			add("wire.client_ms."+src, clientMS[src])
			add("wire.calls."+src, calls[src])
			add("wrapper.eval_ms."+src, evalMS[src])
			add("wire.transfer_ms."+src, clientMS[src]-evalMS[src])
		}
		add("exec.self_ms", ms(time.Duration(selfTime(s.exec, children))))
		if !s.planMatches || !sameCounts(got, s.statsB) || !sameCounts(got, s.stats) || !sameCounts(gotDoor, s.statsB) {
			mismatches++
		}
	}
	for name, xs := range per {
		r.Metrics[name] = measured(median(xs), perLayerUnits[name])
	}
	m := r.Metrics
	// No push of the workload carrying parameters means no binding set was
	// shipped: that is a measured 0, not a missing value.
	m["wrapper.bindings_per_push"] = measured(float64(bindings)/float64(max(paramPushes, 1)), "count")
	if tuples > 0 {
		m["exec.rows_per_tuple_shipped"] = measured(float64(rows)/float64(tuples), "ratio")
	}
	if len(doorB) > 0 {
		m["trace.overhead_pct"] = measured((median(doorA)-median(doorB))/median(doorB)*100, "%")
	}
	m["trace.attribution_mismatches"] = measured(float64(mismatches), "count")
	if mismatches > 0 {
		r.Correct = false
	}
	for name, unit := range perLayerUnits {
		if _, ok := m[name]; !ok {
			m[name] = unmeasured(unit, "no sample: no completed query, push or shipped tuple")
		}
	}
	n := float64(max(len(samples)-r.Failed, 1))
	r.notes = append(r.notes,
		fmt.Sprintf("perfbench %s traced: %d queries in-process, one at a time; %d failed %v; %d attribution mismatches", w.name, len(samples), r.Failed, fails, mismatches),
		fmt.Sprintf("  input: repeat_share %.4g, rows/response %.4g, bytes/response %.4g, binding sets shipped per query %.4g",
			float64(repeats)/float64(max(len(samples), 1)), float64(rows)/n, bodyBytes/n, float64(bindings)/n),
		fmt.Sprintf("  wrapper pushes carrying parameters: %d, with %d binding sets", paramPushes, bindings),
	)
	if len(q1Share) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("  planning share of paper Q1 (YAT_L): median %.1f%% of compose+optimize+execute over %d samples", median(q1Share), len(q1Share)))
	}
}

// sameCounts compares the counters a decorator can see.
func sameCounts(a, b algebra.Stats) bool {
	return a.SourcePushes == b.SourcePushes && a.SourceFetches == b.SourceFetches && a.TuplesShipped == b.TuplesShipped
}

// perLayerUnits names every per-layer metric with its unit; BENCHMARK.json
// lists the same set.
var perLayerUnits = map[string]string{
	"mediator.compose_ms":          "ms",
	"mediator.compose_allocs":      "count",
	"optimizer.round1_ms":          "ms",
	"optimizer.round2_ms":          "ms",
	"optimizer.round3_ms":          "ms",
	"optimizer.allocs":             "count",
	"exec.first_chunk_ms":          "ms",
	"exec.self_ms":                 "ms",
	"frontdoor.admit_ms":           "ms",
	"frontdoor.open_ms":            "ms",
	"frontdoor.self_ms":            "ms",
	"wrapper.bindings_per_push":    "count",
	"source.pushes":                "count",
	"source.fetches":               "count",
	"source.tuples_shipped":        "count",
	"source.bytes_shipped":         "B",
	"exec.rows_per_tuple_shipped":  "ratio",
	"feed.ingest_rows_per_s":       "1/s",
	"mediator.connect_ms":          "ms",
	"waiswrap.index_s":             "s",
	"datagen.generate_s":           "s",
	"unattributed_ms":              "ms",
	"mediator.planning_share_pct":  "%",
	"trace.overhead_pct":           "%",
	"trace.attribution_mismatches": "count",
}

func init() {
	for _, src := range sourceNames {
		perLayerUnits["wire.client_ms."+src] = "ms"
		perLayerUnits["wire.calls."+src] = "count"
		perLayerUnits["wrapper.eval_ms."+src] = "ms"
		perLayerUnits["wire.transfer_ms."+src] = "ms"
	}
}
