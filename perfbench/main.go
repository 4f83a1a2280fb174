// Command perfbench is the repository's end-to-end benchmark of the YAT
// mediator. It deploys the real process stack — o2-wrapper,
// xmlwais-wrapper and feed-wrapper behind yat-mediator -serve — and drives
// POST /query from outside with a closed loop of tenant sessions, checking
// every answer against a naive in-process evaluation of the same data.
// With -trace 1 it instead hosts the same stack in-process and times the
// calls into each layer's public functions (see traced.go).
//
// Usage (run.sh builds the binaries first):
//
//	perfbench -bin DIR -workload paper_mix|q2_djoin|feed_stream -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A metric that could not be measured is null, the reason is printed above
// it, and the command exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	bin := flag.String("bin", "", "directory holding the wrapper and mediator binaries")
	workDir := flag.String("work", ".bench_build", "directory for run files (corpus, scripts, spans)")
	name := flag.String("workload", "", "workload: paper_mix, q2_djoin or feed_stream")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced in-process run")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (*trace == 0 && *bin == "") {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -workload paper_mix|q2_djoin|feed_stream -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r, err := run(*bin, dir, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	_ = os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !r.print() {
		os.Exit(1)
	}
}

// report is one run's result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string          // human-readable lines printed before the JSON
}

// print writes the notes, each metric by name and unit, and the JSON line;
// it reports whether every metric was measured.
func (r *report) print() bool {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	ok := true
	for _, n := range names {
		m := r.Metrics[n]
		if m.Value == nil {
			ok = false
			fmt.Printf("  %-34s null %s (unmeasured: %s)\n", n, m.Unit, m.reason)
			continue
		}
		fmt.Printf("  %-34s %.6g %s\n", n, *m.Value, m.Unit)
	}
	if !ok {
		r.Correct = false
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	fmt.Println(string(b))
	return ok
}

func run(bin, dir string, w workload, seed int64, dur time.Duration, traced bool) (*report, error) {
	ctx := context.Background()
	if !traced {
		return runEndToEnd(ctx, bin, dir, w, seed, dur)
	}
	d, seq, want, err := prepare(dir, w, seed)
	if err != nil {
		return nil, err
	}
	return runTraced(ctx, dir, w, d, seq, want, dur)
}

// prepare generates a dataset and its query sequence, writes the feed
// corpus, and computes the oracle's answers.
func prepare(dir string, w workload, seed int64) (*dataset, []string, map[string]*expected, error) {
	d := generate(w, seed)
	seq := sequence(w, d)
	feedPath := filepath.Join(dir, "corpus.ndxml")
	if err := d.writeFeed(feedPath); err != nil {
		return nil, nil, nil, err
	}
	want, err := buildOracle(d, feedPath, seq)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, seq, want, nil
}

// deployments is how many datasets an end-to-end run draws from its seed.
// The stack is deployed over each and serves an equal share of the
// measured time, so the figures average over datasets as well as over
// queries.
const deployments = 10

// setupsPerDeployment is how many times the stack is set up over each
// dataset; the last set-up serves the load, and setup_s is the median of
// all of them.
const setupsPerDeployment = 2

// warmup is the unmeasured closed-loop time before measuring a deployment,
// long enough for the processes' heaps and connection pools to settle.
const warmup = 500 * time.Millisecond

// part is what one deployment measured.
type part struct {
	setups     []float64 // seconds
	warm, load loadResult
	gated      gated   // the load's kept windows
	peakRSS    float64 // MiB
	rssErr     error
}

func runEndToEnd(ctx context.Context, bin, dir string, w workload, seed int64, dur time.Duration) (*report, error) {
	var parts []part
	for i := 0; i < deployments; i++ {
		d, seq, want, err := prepare(dir, w, seed*deployments+int64(i))
		if err != nil {
			return nil, err
		}
		p, err := measureDeployment(ctx, bin, dir, w, d, seq, want, dur/deployments)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}

	r := &report{Metrics: map[string]metric{}}
	var setups, rss []float64
	var g gated
	var elapsed time.Duration
	var rssErr error
	var props properties
	fails := map[string]int{}
	for _, p := range parts {
		setups = append(setups, p.setups...)
		rss = append(rss, p.peakRSS)
		elapsed += p.load.elapsed
		g.add(p.gated)
		if p.rssErr != nil {
			rssErr = p.rssErr
		}
		props.add(p.load)
		// Warm-up answers are checked and counted too; only their timings
		// are left out.
		for _, l := range []loadResult{p.warm, p.load} {
			for _, o := range l.outcomes {
				r.Attempted++
				if o.fail != "" {
					r.Failed++
					fails[o.fail]++
				}
			}
		}
	}
	// Every failure — a wrong answer, an error line, a truncated answer, a
	// non-2xx response, a shed or a transport error — makes the run
	// incorrect: two sessions stay far below the front door's limits, so
	// nothing here is an expected shed.
	r.Correct = r.Failed == 0
	m := r.Metrics
	m["setup_s"] = measured(median(setups), "s")
	if rssErr != nil {
		m["mediator_peak_rss_mb"] = unmeasured("MiB", rssErr.Error())
	} else {
		m["mediator_peak_rss_mb"] = measured(median(rss), "MiB")
	}
	gatedUnits := map[string]string{"qps": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms", "first_row_p50_ms": "ms",
		"mediator_cpu_ms_per_query": "ms", "wrapper_cpu_ms_per_query": "ms"}
	if g.err != nil {
		for name, unit := range gatedUnits {
			m[name] = unmeasured(unit, g.err.Error())
		}
	} else {
		m["qps"] = measured(median(g.qps), "1/s")
		m["latency_p50_ms"] = percentile(g.lat, 50, "ms")
		m["latency_p99_ms"] = percentile(g.lat, 99, "ms")
		m["first_row_p50_ms"] = percentile(g.first, 50, "ms")
		// CPU time comes in 10 ms ticks, too coarse for one window: the
		// kept windows' CPU is summed before dividing.
		m["mediator_cpu_ms_per_query"] = measured(g.med/float64(g.done), "ms")
		m["wrapper_cpu_ms_per_query"] = measured(g.wrap/float64(g.done), "ms")
	}
	n := float64(max(props.requests, 1))
	r.notes = append(r.notes,
		fmt.Sprintf("perfbench %s seed=%d: %d deployments, %d sessions over %d tenants each, closed loop, %.1fs measured, %.1fs of it in kept windows", w.name, seed, deployments, sessions, sessions, elapsed.Seconds(), g.keptTime.Seconds()),
		fmt.Sprintf("  samples: %d latencies, %d first-row latencies, %d set-ups; %s", len(g.lat), len(g.first), len(setups), g.stealNote()),
		fmt.Sprintf("  error_rate %.6g ratio (%d failed of %d attempted: %v)", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted, fails),
		fmt.Sprintf("  input: repeat_share %.4g, rows/response %.4g, bytes/response %.4g, distinct texts per deployment %.4g",
			float64(props.repeats)/n, float64(props.rows)/n, float64(props.bytes)/n, float64(props.distinct)/float64(len(parts))),
	)
	return r, nil
}

// measureDeployment deploys the stack over one dataset, timing set-up
// from the corpus write to the first correct answer, then runs the closed
// loop for dur, sampling host steal and the processes' CPU time in
// windows, and reads the mediator's peak memory.
func measureDeployment(ctx context.Context, bin, dir string, w workload, d *dataset, seq []string, want map[string]*expected, dur time.Duration) (part, error) {
	var p part
	var dep *deployment
	var c *client
	for i := 0; i < setupsPerDeployment; i++ {
		if dep != nil {
			c.close()
			dep.stop()
		}
		var err error
		var setup float64
		if dep, c, setup, err = setUp(ctx, bin, dir, w, d, seq, want); err != nil {
			return p, err
		}
		p.setups = append(p.setups, setup)
	}
	defer dep.stop()
	defer c.close()

	p.warm = closedLoop(ctx, c, seq, 1, after(warmup))
	var probes []probe
	p.load, probes = sampledLoop(ctx, c, dep, seq, 1+len(p.warm.outcomes), dur)
	// Each deployment's kept windows hold its share of the latencies p99
	// needs, with a fifth more for answers that straddle a left-out window.
	p.gated = gate(p.load, probes, dur, (100*minBeyond*6/5+deployments-1)/deployments)
	p.peakRSS, p.rssErr = peakRSSMB(dep.mediator.cmd.Process.Pid)
	return p, nil
}

// setUp deploys the stack and returns it with the seconds from writing the
// feed corpus to the first correct answer.
func setUp(ctx context.Context, bin, dir string, w workload, d *dataset, seq []string, want map[string]*expected) (*deployment, *client, float64, error) {
	start := time.Now()
	feedPath := filepath.Join(dir, "corpus.ndxml")
	if err := d.writeFeed(feedPath); err != nil {
		return nil, nil, 0, err
	}
	dep, err := deploy(ctx, bin, dir, w, d.seed, feedPath)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(dep.addr, want)
	if o := c.query(ctx, "tenant-0", seq[0]); o.fail != "" {
		c.close()
		dep.stop()
		return nil, nil, 0, fmt.Errorf("set-up: first query failed: %s", o.fail)
	}
	return dep, c, time.Since(start).Seconds(), nil
}

// properties describe the traffic a run sent, so a later cache or batching
// claim can cite the share of requests that have the property it uses.
type properties struct {
	requests int
	repeats  int // requests whose text repeats an earlier one of the same deployment
	rows     int
	bytes    int
	distinct int // distinct texts, summed over deployments
}

func (p *properties) add(l loadResult) {
	seen := map[string]bool{}
	for i, q := range l.texts {
		if seen[q] {
			p.repeats++
		}
		seen[q] = true
		p.rows += l.outcomes[i].rows
		p.bytes += l.outcomes[i].bytes
	}
	p.requests += len(l.texts)
	p.distinct += len(seen)
}
