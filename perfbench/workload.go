package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/o2"
	"repro/internal/o2wrap"
	"repro/internal/xmlenc"
)

// workload is one traffic mix: the data each wrapper serves and the
// seeded query sequence the closed-loop sessions send.
type workload struct {
	name string
	// artifacts sizes the O₂ and Wais sources (0: the paper's Figure 1
	// fixture, which ignores the seed).
	artifacts int
	// feedRecords sizes the bulk-feed corpus perfbench writes.
	feedRecords int
	// queries draws the next query text from the dataset's values.
	queries func(r *rand.Rand, d *dataset) string
}

// workloads lists every workload by name. The why lines in BENCHMARK.json
// give the reason each exists.
var workloads = map[string]workload{
	"paper_mix":   {name: "paper_mix", artifacts: 0, feedRecords: 200, queries: paperMix},
	"q2_djoin":    {name: "q2_djoin", artifacts: 300, feedRecords: 200, queries: q2DJoin},
	"feed_stream": {name: "feed_stream", artifacts: 0, feedRecords: 1600, queries: feedStream},
}

// feedMalformedPct is the share of deliberately broken corpus lines, which
// the feed wrapper's ingest quarantines.
const feedMalformedPct = 4

// sequenceLen is the number of queries generated per run; sessions cycle
// through it when a run sends more.
const sequenceLen = 1 << 16

// dataset is the generated data of one workload and seed, plus the value
// pools the query generator draws literals from.
type dataset struct {
	seed  int64
	db    *o2.DB
	works data.Forest
	feed  *datagen.FeedCorpus

	places   []string  // cplace values of the Wais works
	prices   []float64 // artifact prices, ascending, distinct
	journals []string  // feed journals, sorted, distinct
	years    []int     // feed years, ascending, distinct
}

// generate builds a workload's data from the seed: the same generators and
// parameters the wrapper processes use for their -seed flag.
func generate(w workload, seed int64) *dataset {
	d := &dataset{seed: seed}
	if w.artifacts <= 0 {
		d.db, d.works = datagen.PaperDB(), datagen.PaperWorks()
	} else {
		p := datagen.DefaultParams(w.artifacts)
		p.Seed = seed
		g := datagen.Generate(p)
		d.db, d.works = g.DB, g.Works
	}
	d.feed = datagen.GenerateFeed(datagen.FeedParams{Records: w.feedRecords, MalformedPct: feedMalformedPct, Seed: seed})

	places := map[string]bool{}
	for _, n := range d.works {
		n.Walk(func(x *data.Node) bool {
			if a, ok := x.AtomValue(); ok && x.Label == "cplace" {
				places[a.Text()] = true
			}
			return true
		})
	}
	d.places = sortedKeys(places)
	arts, err := o2wrap.New("o2artifact", d.db).Fetch("artifacts")
	if err != nil {
		panic(fmt.Sprintf("generated database has no artifacts: %v", err))
	}
	prices := map[float64]bool{}
	for _, n := range arts {
		n.Walk(func(x *data.Node) bool {
			if a, ok := x.AtomValue(); ok && x.Label == "price" && a.IsNumeric() {
				prices[a.AsFloat()] = true
			}
			return true
		})
	}
	for p := range prices {
		d.prices = append(d.prices, p)
	}
	sort.Float64s(d.prices)
	journals, years := map[string]bool{}, map[int]bool{}
	for _, r := range d.feed.Records {
		journals[r.Journal] = true
		years[r.Year] = true
	}
	d.journals = sortedKeys(journals)
	for y := range years {
		d.years = append(d.years, y)
	}
	sort.Ints(d.years)
	return d
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// digest fingerprints everything the wrappers serve: the artifacts and
// persons extents, the works and the feed corpus lines.
func (d *dataset) digest() string {
	h := sha256.New()
	ow := o2wrap.New("o2artifact", d.db)
	for _, doc := range []string{"artifacts", "persons"} {
		f, err := ow.Fetch(doc)
		if err != nil {
			panic(fmt.Sprintf("digest %s: %v", doc, err))
		}
		fmt.Fprintln(h, xmlenc.SerializeForest(f))
	}
	fmt.Fprintln(h, xmlenc.SerializeForest(d.works))
	for _, l := range d.feed.Lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeFeed writes the corpus as the newline-delimited dump the feed
// wrapper ingests with -dump.
func (d *dataset) writeFeed(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.feed.WriteNDXML(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// sequence returns the run's query texts, a pure function of the workload
// and the seed.
func sequence(w workload, d *dataset) []string {
	r := rand.New(rand.NewSource(d.seed))
	out := make([]string, sequenceLen)
	for i := range out {
		out[i] = w.queries(r, d)
	}
	return out
}

// skewed picks index i of n with probability proportional to 1/(i+1), so
// the first candidates dominate the mix.
func skewed(r *rand.Rand, n int) int {
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
	}
	x := r.Float64() * total
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+1)
		if x < 0 {
			return i
		}
	}
	return n - 1
}

// pick draws k evenly spaced candidates from a sorted pool, so every seed
// spans the pool's range with the same number of distinct literals.
func pick[T any](pool []T, k int) []T {
	if len(pool) <= k {
		return pool
	}
	out := make([]T, k)
	for i := range out {
		out[i] = pool[i*(len(pool)-1)/(k-1)]
	}
	return out
}

func price(p float64) string { return strconv.FormatFloat(p, 'f', -1, 64) }

// Query templates. Q1 and Q2 are the paper's queries (Section 2 and
// Section 5.3) with their literal drawn from the data, in YAT_L and in the
// XQuery-FLWR dialect.
func q1YATL(place string) string {
	return strings.Replace(datagen.Q1Src, `"Giverny"`, strconv.Quote(place), 1)
}

func q1XQuery(place string) string {
	return strings.Replace(datagen.Q1XQuerySrc, `"Giverny"`, strconv.Quote(place), 1)
}

func q2YATL(bound string) string {
	return strings.Replace(datagen.Q2Src, "200000", bound, 1)
}

func q2XQuery(bound string) string {
	return strings.Replace(datagen.Q2XQuerySrc, "200000", bound, 1)
}

// paperMix: a skewed mix of Q1 and Q2, YAT_L before XQuery, over the
// Figure 1 fixture. A Q2 bound is one above a price in the data, so each
// bound admits a different number of artworks.
func paperMix(r *rand.Rand, d *dataset) string {
	switch skewed(r, 4) {
	case 0:
		return q1YATL(d.places[skewed(r, len(d.places))])
	case 1:
		return q2YATL(price(d.prices[skewed(r, len(d.prices))] + 1))
	case 2:
		return q1XQuery(d.places[skewed(r, len(d.places))])
	default:
		return q2XQuery(price(d.prices[skewed(r, len(d.prices))] + 1))
	}
}

// q2Bounds is the number of distinct Q2 price bounds per seed.
const q2Bounds = 12

// q2DJoin: Q2 over the scaled datagen with the bound drawn uniformly from
// evenly spaced prices of the data.
func q2DJoin(r *rand.Rand, d *dataset) string {
	bounds := pick(d.prices, q2Bounds)
	return q2YATL(price(bounds[r.Intn(len(bounds))] + 1))
}

// feedYears is the number of distinct year bounds per seed.
const feedYears = 6

// feedPrefixes are the journal prefixes the prefix template uses; each
// matches journals of the datagen corpus.
var feedPrefixes = []string{"Journal of", "Revue"}

// feedStream: bulk-feed queries whose journal equality or prefix is pushed
// to the wrapper while the year comparison stays a mediator-side Select.
func feedStream(r *rand.Rand, d *dataset) string {
	years := pick(d.years, feedYears)
	y := years[r.Intn(len(years))]
	if r.Intn(4) == 0 {
		p := feedPrefixes[r.Intn(len(feedPrefixes))]
		return fmt.Sprintf("MAKE result[ title: $t, journal: $j ]\nMATCH records WITH records[ *record[ title: $t, journal: $j, year: $y ] ]\nWHERE prefix($j, %s) AND $y > %d\n", strconv.Quote(p), y)
	}
	j := d.journals[r.Intn(len(d.journals))]
	return fmt.Sprintf("MAKE result[ title: $t, journal: $j ]\nMATCH records WITH records[ *record[ title: $t, journal: $j, year: $y ] ]\nWHERE $j = %s AND $y > %d\n", strconv.Quote(j), y)
}
