package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// The benchmark shares a virtual machine's CPUs with other guests. While the
// hypervisor runs them, the machine's steal time rises and every wall-clock
// and CPU figure rises with it, by far more than run-to-run noise. So the
// measured closed loop is cut into windows of windowLen, each sampled for
// host steal and for the processes' CPU time, and the windows whose steal
// stays at or below stealLimit are kept for the metrics. The loop runs until
// the kept windows add up to the time asked for, or until maxStretch times
// that has passed. If the kept windows then add up to less than
// minKeptShare of the time asked for, or hold too few latencies for the
// percentiles, the least stolen of the other windows are kept as well until
// they do: a busy host makes the figures worse, never the run unmeasurable. The query rate is the median over the kept windows,
// so a phase of a few seconds in which the machine runs faster or slower
// than usual moves it little.
const (
	windowLen    = 500 * time.Millisecond
	stealLimit   = 0.03
	maxStretch   = 1.25
	minKeptShare = 0.5
)

// probe is one sample of the host's CPU ticks and the processes' CPU time.
type probe struct {
	at           time.Time
	steal, ticks float64 // machine-wide, from /proc/stat
	med, wrap    float64 // process CPU ms, from /proc/<pid>/stat
	err          error
}

func (d *deployment) probe() probe {
	p := probe{at: time.Now()}
	if p.steal, p.ticks, p.err = hostTicks(); p.err == nil {
		p.med, p.wrap, p.err = d.cpu()
	}
	return p
}

// stealShare is the share of the host's CPU ticks between two probes that
// went to other guests; a window without ticks cannot be judged and reads 1.
func stealShare(a, b probe) float64 {
	if a.err != nil || b.err != nil || b.ticks <= a.ticks {
		return 1
	}
	return (b.steal - a.steal) / (b.ticks - a.ticks)
}

// sampledLoop runs the closed loop, probing every windowLen, until the
// windows at or below stealLimit add up to want or maxStretch times want
// has passed. The first probe precedes the first query and the last
// follows the last reply, so the windows cover every outcome.
func sampledLoop(ctx context.Context, c *client, dep *deployment, seq []string, from int, want time.Duration) (loadResult, []probe) {
	probes := []probe{dep.probe()}
	stop, quit, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(windowLen)
		defer t.Stop()
		var clean time.Duration
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				a, b := probes[len(probes)-1], dep.probe()
				probes = append(probes, b)
				if clean < 0 {
					continue // already stopping
				}
				if stealShare(a, b) <= stealLimit {
					clean += b.at.Sub(a.at)
				}
				if clean >= want || b.at.Sub(probes[0].at) >= time.Duration(maxStretch*float64(want)) {
					close(stop)
					clean = -1
				}
			}
		}
	}()
	l := closedLoop(ctx, c, seq, from, stop)
	close(quit)
	<-done
	last := dep.probe()
	// A last window much shorter than windowLen would have too few ticks
	// to judge its steal: it joins the window before it.
	if n := len(probes); n > 1 && last.at.Sub(probes[n-1].at) < windowLen/2 {
		probes = probes[:n-1]
	}
	return l, append(probes, last)
}

// gated is what the kept windows of one measured loop hold.
type gated struct {
	windows, kept int
	stolen        int       // kept windows whose steal is above stealLimit
	steals        []float64 // steal share of each window
	keptTime      time.Duration
	qps           []float64 // correct answers completed per second, per kept window
	done          int       // correct answers completed in kept windows
	med, wrap     float64   // mediator and wrapper CPU ms spent in kept windows
	lat, first    []float64 // ms, of correct answers sent and completed in kept windows
	err           error     // a probe failed: nothing is measured
}

// gate chooses the windows to keep and keeps the outcomes that lie in them:
// the windows at or below stealLimit, topped up with the least stolen
// others until they cover minKeptShare of want and hold minLat latencies.
func gate(l loadResult, probes []probe, want time.Duration, minLat int) gated {
	for _, p := range probes {
		if p.err != nil {
			return gated{err: p.err}
		}
	}
	steals := make([]float64, len(probes)-1)
	keep := make([]bool, len(steals))
	order := make([]int, len(steals))
	for i := range steals {
		steals[i] = stealShare(probes[i], probes[i+1])
		keep[i] = steals[i] <= stealLimit
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steals[order[a]] < steals[order[b]] })
	g := measure(l, probes, steals, keep)
	for _, i := range order {
		if g.keptTime.Seconds() >= minKeptShare*want.Seconds() && len(g.lat) >= minLat {
			break
		}
		if !keep[i] {
			keep[i] = true
			g = measure(l, probes, steals, keep)
		}
	}
	return g
}

// measure collects what the kept windows hold.
func measure(l loadResult, probes []probe, steals []float64, keep []bool) gated {
	g := gated{windows: len(keep), steals: steals}
	window := func(t time.Time) int {
		i := sort.Search(len(probes), func(i int) bool { return probes[i].at.After(t) }) - 1
		return min(max(i, 0), len(keep)-1)
	}
	done := make([]int, len(keep))
	for _, o := range l.outcomes {
		if o.fail != "" {
			continue
		}
		s, e := window(o.sent), window(o.done)
		done[e]++
		if !keep[e] {
			continue
		}
		all := true
		for i := s; i < e; i++ {
			all = all && keep[i]
		}
		if all {
			g.lat = append(g.lat, ms(o.latency))
			if o.rows > 0 {
				g.first = append(g.first, ms(o.firstRow))
			}
		}
	}
	for i, ok := range keep {
		if !ok {
			continue
		}
		a, b := probes[i], probes[i+1]
		g.kept++
		if steals[i] > stealLimit {
			g.stolen++
		}
		g.keptTime += b.at.Sub(a.at)
		g.qps = append(g.qps, float64(done[i])/b.at.Sub(a.at).Seconds())
		g.done += done[i]
		g.med += b.med - a.med
		g.wrap += b.wrap - a.wrap
	}
	return g
}

// add folds another loop's windows into g.
func (g *gated) add(h gated) {
	if h.err != nil {
		g.err = h.err
	}
	g.windows += h.windows
	g.kept += h.kept
	g.stolen += h.stolen
	g.steals = append(g.steals, h.steals...)
	g.keptTime += h.keptTime
	g.qps = append(g.qps, h.qps...)
	g.done += h.done
	g.med += h.med
	g.wrap += h.wrap
	g.lat = append(g.lat, h.lat...)
	g.first = append(g.first, h.first...)
}

// stealNote summarises the windows' host steal for the report.
func (g *gated) stealNote() string {
	if g.err != nil || len(g.steals) == 0 {
		return "host steal unavailable"
	}
	s := append([]float64(nil), g.steals...)
	sort.Float64s(s)
	return fmt.Sprintf("%d of %d windows kept, %d of them with host steal above %.0f%%; steal per window median %.1f%%, p90 %.1f%%, max %.1f%%",
		g.kept, g.windows, g.stolen, stealLimit*100, median(s)*100, s[(len(s)*9)/10]*100, s[len(s)-1]*100)
}
