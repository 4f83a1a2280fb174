package main

import (
	"reflect"
	"testing"
	"time"
)

// Only windows with little host steal are kept: their rates, and the
// latency of answers sent and completed inside them.
func TestGateKeepsCleanWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Three windows of 100 ticks: 1, 30 and 0 stolen.
	probes := []probe{
		{at: at(0), steal: 0, ticks: 0, med: 0, wrap: 0},
		{at: at(500), steal: 1, ticks: 100, med: 10, wrap: 20},
		{at: at(1000), steal: 31, ticks: 200, med: 30, wrap: 60},
		{at: at(1500), steal: 31, ticks: 300, med: 40, wrap: 80},
	}
	o := func(sent, done int, fail string) outcome {
		return outcome{sent: at(sent), done: at(done), latency: at(done).Sub(at(sent)), rows: 1, fail: fail}
	}
	l := loadResult{outcomes: []outcome{
		o(10, 20, ""),          // clean window 0
		o(480, 520, ""),        // ends in the stolen window
		o(990, 1010, ""),       // starts in the stolen window: counted, not timed
		o(1100, 1200, ""),      // clean window 2
		o(1200, 1300, "error"), // failures are never measured
	}}
	g := gate(l, probes, 1500*time.Millisecond, 0)
	if g.windows != 3 || g.kept != 2 || g.stolen != 0 {
		t.Fatalf("windows %d kept %d stolen %d, want 3, 2 and 0", g.windows, g.kept, g.stolen)
	}
	// Window 0 completed one answer, window 2 two, with 10 and 10 ms of
	// mediator CPU and 20 and 20 ms of wrapper CPU.
	if g.keptTime != time.Second || !reflect.DeepEqual(g.qps, []float64{2, 4}) || g.done != 3 || g.med != 20 || g.wrap != 40 {
		t.Errorf("kept time %v, qps %v, %d answers, CPU %v and %v", g.keptTime, g.qps, g.done, g.med, g.wrap)
	}
	if !reflect.DeepEqual(g.lat, []float64{10, 100}) {
		t.Errorf("latencies %v, want [10 100]", g.lat)
	}
}

// When too few windows are clean, the least stolen of the others are kept
// until the kept windows cover half the time asked for: a busy host makes
// the figures worse but never leaves the run unmeasured.
func TestGateTopsUpWithLeastStolenWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	var probes []probe
	steal := 0.0
	for i, share := range []float64{0.10, 0.20, 0.05, 0.40, 0.30, 0.15, 0.25, 0} {
		probes = append(probes, probe{at: t0.Add(time.Duration(i) * windowLen), steal: steal, ticks: float64(i) * 100})
		steal += share * 100
	}
	probes = append(probes, probe{at: t0.Add(8 * windowLen), steal: steal, ticks: 800})
	g := gate(loadResult{}, probes, 4*time.Second, 0)
	if g.err != nil || g.windows != 8 || g.kept != 4 || g.stolen != 3 || g.keptTime != 2*time.Second {
		t.Fatalf("windows %d kept %d stolen %d time %v err %v, want 8, 4, 3, 2s and none", g.windows, g.kept, g.stolen, g.keptTime, g.err)
	}
	// The clean window and the three least stolen: 0, 5, 10 and 15%.
	if len(g.qps) != 4 {
		t.Errorf("%d window rates, want 4", len(g.qps))
	}
}

// Windows are also added until they hold enough latencies for the
// percentiles, even past half the time asked for.
func TestGateTopsUpForLatencySamples(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Four windows of 100 ticks: 0, 50, 10 and 20 stolen.
	probes := []probe{
		{at: at(0)},
		{at: at(500), steal: 0, ticks: 100},
		{at: at(1000), steal: 50, ticks: 200},
		{at: at(1500), steal: 60, ticks: 300},
		{at: at(2000), steal: 80, ticks: 400},
	}
	var l loadResult
	for w := 0; w < 4; w++ {
		sent := at(w*500 + 100)
		l.outcomes = append(l.outcomes, outcome{sent: sent, done: sent.Add(time.Millisecond), latency: time.Millisecond})
	}
	// Half of 1s is the clean window alone; three latencies need the two
	// least stolen others, 10% and 20%, not the 50% one.
	g := gate(l, probes, time.Second, 3)
	if g.kept != 3 || g.stolen != 2 || len(g.lat) != 3 || g.done != 3 {
		t.Errorf("kept %d stolen %d latencies %d answers %d, want 3, 2, 3 and 3", g.kept, g.stolen, len(g.lat), g.done)
	}
}
