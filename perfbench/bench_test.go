package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldiv/internal/store"
)

// benchSpec is the part of BENCHMARK.json the tests hold the output to.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchSpec
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// tiny shrinks a workload so that a run takes well under a second.
func tiny(w workload) workload {
	w.rows = map[string]int{"sal7-tpplus-kl": 600, "sal4-tp-120k": 3000, "serve-mixed": 300}[w.name]
	w.fixed = min(w.fixed, 3)
	return w
}

func runTiny(t *testing.T, w workload, trace bool) (*result, string) {
	t.Helper()
	var log bytes.Buffer
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.jsonl")
	res, err := run(tiny(w), options{
		seed: 7, window: 300 * time.Millisecond, trace: trace, spans: spans, setups: 1, tmp: dir,
	}, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, log.String())
	}
	if trace {
		data, err := os.ReadFile(spans)
		if err != nil {
			t.Fatalf("%s: the traced run wrote no spans: %v", w.name, err)
		}
		var s span
		if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &s); err != nil || s.Name == "" {
			t.Fatalf("%s: first span line %q: %v", w.name, data[:min(len(data), 80)], err)
		}
	}
	return res, log.String()
}

func metricsOf(res *result) map[string]metric {
	m := make(map[string]metric)
	for _, x := range res.metrics {
		m[x.name] = x
	}
	return m
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	c := loadSpec(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestEveryWorkloadTiny runs each workload at tiny scale, untraced and
// traced, and checks that every metric of BENCHMARK.json is emitted with its
// unit, every operation succeeded, and every traced decomposition reproduced
// the served release (a mismatch would fail the run).
func TestEveryWorkloadTiny(t *testing.T) {
	c := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, log := runTiny(t, w, trace)
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d\n%s", trace, res.correct, res.attempted, res.failed, log)
				}
				got := metricsOf(res)
				want := c.EndToEnd
				if trace {
					want = c.PerLayer
				}
				if len(got) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json has %d", trace, len(got), len(want))
				}
				for _, m := range want {
					x, ok := got[m.Name]
					if !ok {
						t.Errorf("trace=%v: metric %s missing", trace, m.Name)
						continue
					}
					if x.unit != m.Unit {
						t.Errorf("trace=%v: metric %s unit %q, BENCHMARK.json %q", trace, m.Name, x.unit, m.Unit)
					}
				}
				if !trace && got["ok_frac"].value != 1 {
					t.Errorf("ok_frac = %v", got["ok_frac"].value)
				}
				if trace && !strings.Contains(log, "layer spans account for") {
					t.Errorf("traced run reports no layer share:\n%s", log)
				}
			}
		})
	}
}

// TestQualityRepeatsForASeed pins that stars and KL depend on the seed only.
func TestQualityRepeatsForASeed(t *testing.T) {
	w := workloads[0]
	a, _ := runTiny(t, w, false)
	b, _ := runTiny(t, w, false)
	for _, name := range []string{"stars", "kl"} {
		if x, y := metricsOf(a)[name].value, metricsOf(b)[name].value; x != y || x == 0 {
			t.Errorf("%s: %v then %v", name, x, y)
		}
	}
}

// TestCheckCatchesAWrongRelease feeds the check a served release that
// differs from the recomputation in each compared field.
func TestCheckCatchesAWrongRelease(t *testing.T) {
	w := tiny(workloads[0])
	jobs, err := newJobList(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := reference(w, jobs.body(0, w.rows), w.algos[0])
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(o *outcome){
		"bytes": func(o *outcome) { o.csvSum[0] ^= 1 },
		"stars": func(o *outcome) { o.stars++ },
		"kl":    func(o *outcome) { o.kl *= 1 + 1e-15 },
	}
	st, _, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for name, mutate := range mutations {
		served := good
		mutate(&served)
		for _, tr := range []*tracer{nil, newTracer()} {
			rel := &release{body: 0, algo: w.algos[0], served: served}
			checkOne(w, jobs, rel, tr, st)
			if rel.err == nil {
				t.Errorf("%s (traced %v): mismatch not caught", name, tr != nil)
			}
		}
	}
	rel := &release{body: 0, algo: w.algos[0], served: good}
	checkOne(w, jobs, rel, nil, nil)
	if rel.err != nil {
		t.Errorf("the unchanged release failed: %v", rel.err)
	}
}

// TestStealEpisodeAbandonsTheWindow checks that a window stops once a steal
// episode begins and is reported not measured, and that the next window
// serves fresh bodies, so its misses still miss.
func TestStealEpisodeAbandonsTheWindow(t *testing.T) {
	r, err := setUp(tiny(workloads[0]), 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	ctx := context.Background()
	var next atomic.Int64
	guard := &stealWatch{}
	time.AfterFunc(150*time.Millisecond, func() { guard.high.Store(true) })
	start := time.Now()
	first, ok := r.attempt(ctx, &next, 20*time.Second, guard)
	if ok || len(first.ops) == 0 || time.Since(start) > 10*time.Second {
		t.Fatalf("window in a steal episode: measured %v, %d ops, %v", ok, len(first.ops), time.Since(start))
	}
	second, ok := r.attempt(ctx, &next, 150*time.Millisecond, nil)
	if !ok || len(second.ops) == 0 {
		t.Fatalf("unguarded window: measured %v, %d ops", ok, len(second.ops))
	}
	for _, x := range append(first.ops, second.ops...) {
		if x.err != nil {
			t.Fatalf("%v", x.err)
		}
	}
}

func TestBodiesAreDistinct(t *testing.T) {
	w := tiny(workloads[2])
	jobs, err := newJobList(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for i := -2; i < min(len(jobs.rows), 2000); i++ {
		b := string(jobs.body(i, w.rows))
		if j, ok := seen[b]; ok {
			t.Fatalf("bodies %d and %d are identical", j, i)
		}
		seen[b] = i
	}
}

func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-mixed", "--trace", "2"},
		{"--workload", "serve-mixed", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := mainCode(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
