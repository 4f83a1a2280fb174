package mediator

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/tab"
)

// TestWarmCacheSkipsPushes is the mediator-level cache contract: with
// ExecOptions.CacheSize set, rerunning a pushdown query answers every wrapper
// push from the installed cache — zero additional round trips, identical rows.
func TestWarmCacheSkipsPushes(t *testing.T) {
	m, _, _ := paperSetup(t)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")

	opts := ExecOptions{Parallelism: 1, CacheSize: 256}
	cold, err := m.ExecuteContext(context.Background(), datagen.Q2Src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.SourcePushes == 0 {
		t.Fatal("Q2 must push to sources")
	}
	if cold.Stats.CacheHits != 0 {
		t.Errorf("cold run hits = %d", cold.Stats.CacheHits)
	}

	warm, err := m.ExecuteContext(context.Background(), datagen.Q2Src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Tab.Equal(warm.Tab) {
		t.Errorf("warm rows diverge:\ncold:\n%s\nwarm:\n%s", cold.Tab, warm.Tab)
	}
	if warm.Stats.CacheHits == 0 {
		t.Errorf("warm run hits = 0 (stats %+v)", warm.Stats)
	}
	if warm.Stats.SourcePushes != 0 {
		t.Errorf("warm run still pushed %d times", warm.Stats.SourcePushes)
	}

	// The same contract through StreamContext (the front door's path):
	// streamed pushes fill the cache at clean end of stream, so the warm
	// streamed run pushes nothing either.
	ms, _, _ := paperSetup(t)
	ms.Assume("artifacts", "works", "$y > 1800")
	ms.Assume("persons", "works", "$y > 1800")
	var rows [2]*tab.Tab
	var res [2]*Result
	for i := range rows {
		s, err := ms.StreamContext(context.Background(), datagen.Q2Src, opts)
		if err != nil {
			t.Fatal(err)
		}
		rows[i], res[i] = drainStream(t, s)
	}
	if res[0].Stats.SourcePushes == 0 || res[0].Stats.CacheHits != 0 {
		t.Errorf("cold streamed run: %+v", res[0].Stats)
	}
	if !rows[0].Equal(rows[1]) || !rows[0].Equal(cold.Tab) {
		t.Errorf("warm streamed rows diverge:\ncold:\n%s\nwarm:\n%s", rows[0], rows[1])
	}
	if res[1].Stats.CacheHits == 0 || res[1].Stats.SourcePushes != 0 {
		t.Errorf("warm streamed run: hits=%d pushes=%d, want >0 and 0", res[1].Stats.CacheHits, res[1].Stats.SourcePushes)
	}

	// Without CacheSize no cache is installed and the counters stay silent.
	m2, _, _ := paperSetup(t)
	m2.Assume("artifacts", "works", "$y > 1800")
	m2.Assume("persons", "works", "$y > 1800")
	plain, err := m2.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.CacheHits != 0 || plain.Stats.CacheMisses != 0 {
		t.Errorf("uncached run touched cache counters: %+v", plain.Stats)
	}
}

// TestEnableCacheSurvivesAcrossOptions pins the install-once semantics: an
// explicitly enabled cache stays warm across queries even when later calls
// pass a different CacheSize.
func TestEnableCacheSurvivesAcrossOptions(t *testing.T) {
	m, _, _ := paperSetup(t)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	m.EnableCache(64)

	if _, err := m.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	warm, err := m.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits == 0 {
		t.Errorf("explicitly enabled cache was replaced: %+v", warm.Stats)
	}
	// Disabling drops the cache.
	m.EnableCache(0)
	off, err := m.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.CacheHits != 0 || off.Stats.SourcePushes == 0 {
		t.Errorf("disabled cache still answering: %+v", off.Stats)
	}
}
