// Command perfbench is the repository benchmark. It starts an in-process
// ldivd (internal/service) on loopback, drives one seeded workload against it
// over HTTP from closed-loop clients for a fixed window, checks every release
// it was served against an in-process recomputation and the auditor, and
// prints the metrics, each with its unit, as the last line of its output:
//
//	perfbench --workload sal7-tpplus-kl --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it also replays every served body through each layer's
// public functions, recording spans, and prints the per-layer metrics
// instead. README.md gives the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ldiv/internal/store"
)

// processStart approximates the process start. The report gives the time
// from here to the first timed request, all set-ups included.
var processStart = time.Now()

func main() { os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr)) }

func mainCode(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 replays the served bodies layer by layer and prints the per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build", "directory the traced run writes its spans to, as spans-<workload>-<seed>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		fs.Usage()
		return 2
	}
	res, err := run(w, options{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		patience: 40 * time.Second,
		trace:    *trace == 1,
		spans:    filepath.Join(*spansDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed)),
		setups:   2,
		tmp:      os.TempDir(),
	}, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct {
		return 1
	}
	return 0
}

type options struct {
	seed   int64
	window time.Duration
	// patience bounds the time a run waits for CPU steal episodes to pass
	// (see drive).
	patience time.Duration
	trace    bool
	// spans is the file the traced run writes its spans to.
	spans string
	// setups is how many times the workload is set up in each of the
	// run's three set-up phases; setup_s is the median of all of them.
	setups int
	// tmp is the parent of the durable store's and the replay's directories.
	tmp string
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// json renders the final result line.
func (r *result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = value{x.value, x.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m})
	return string(b), err
}

// run sets the workload up, drives it for the window, checks every release
// and computes the metrics. Report lines go to log.
func run(w workload, o options, log io.Writer) (*result, error) {
	ctx := context.Background()
	// The set-up is timed o.setups times in each of three phases: before
	// the window, between serving the fixed release set and the check, and
	// after the check. Host speed drifts over seconds, so samples spread
	// over the run give a steadier median than back-to-back ones. Every
	// sample is timed the same way: the previous rig is torn down and its
	// garbage collected first, untimed. The last rig set up before the
	// window is the one driven.
	var setups []float64
	sample := func() (*rig, error) {
		runtime.GC()
		start := time.Now()
		r, err := setUp(w, o.seed, o.tmp)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return r, nil
	}
	spare := func(n int) error {
		for i := 0; i < n; i++ {
			r, err := sample()
			if err != nil {
				return err
			}
			r.close()
		}
		return nil
	}
	if err := spare(o.setups - 1); err != nil {
		return nil, err
	}
	rg, err := sample()
	if err != nil {
		return nil, err
	}
	defer rg.close()
	phase := time.Now()
	setUpTotal := phase.Sub(processStart)

	before, err := rg.counters(ctx)
	if err != nil {
		return nil, err
	}
	win, dropped := rg.drive(ctx, o.window, o.patience)
	ops, elapsed := win.ops, win.elapsed
	host := newHostInfo(rg.cfg, win)
	rss := peakRSSMB()
	after, err := rg.counters(ctx)
	if err != nil {
		return nil, err
	}

	// Untimed: the fixed release set and the checks.
	windowEnd := time.Now()
	var hits, verifies []op
	for _, x := range ops {
		switch x.kind {
		case opHit:
			hits = append(hits, x)
		case opVerify:
			verifies = append(verifies, x)
		}
	}
	served := append(append([]op(nil), ops...), dropped...)
	extra, rels := rg.releases(ctx, served)
	releasesEnd := time.Now()
	rg.close()
	if err := spare(o.setups); err != nil {
		return nil, err
	}
	checkStart := time.Now()

	var tr *tracer
	var scratch *store.Store
	if o.trace {
		tr = newTracer()
		dir, err := os.MkdirTemp(o.tmp, "replay-")
		if err != nil {
			return nil, fmt.Errorf("creating the replay store: %w", err)
		}
		defer os.RemoveAll(dir)
		if scratch, _, err = store.Open(dir, nil); err != nil {
			return nil, fmt.Errorf("opening the replay store: %w", err)
		}
		defer scratch.Close()
	}
	checkAll(w, rg.jobs, rels, runtime.NumCPU(), tr, scratch)
	checkEnd := time.Now()
	if err := spare(o.setups); err != nil {
		return nil, err
	}
	laterSetUps := checkStart.Sub(releasesEnd) + time.Since(checkEnd)

	// Tally: an operation fails when it erred, or when the release it was
	// served failed its check or differs from the release of the same key.
	byKey := make(map[relKey]*release, len(rels))
	for _, rel := range rels {
		byKey[relKey{rel.body, rel.algo}] = rel
	}
	res := &result{correct: true}
	var errs []string
	tally := func(list []op) {
		for i := range list {
			x := &list[i]
			res.attempted++
			err := x.err
			if err == nil && x.kind != opVerify {
				body := x.body
				if x.kind == opHit && w.mixed {
					body = rg.pool[x.pool].body
				}
				rel := byKey[relKey{body, x.algo}]
				switch {
				case rel == nil:
					err = fmt.Errorf("no checked release for body %d (%s)", body, x.algo)
				case rel.err != nil:
					err = rel.err
				case rel.served.csvSum != x.out.csvSum || rel.served.stSum != x.out.stSum:
					err = fmt.Errorf("body %d (%s) was served two different releases", body, x.algo)
				}
			}
			if err != nil {
				res.failed++
				errs = append(errs, err.Error())
			}
		}
	}
	tally(served)
	tally(extra)
	for _, rel := range rels[:len(rg.pool)] {
		if rel.err != nil {
			// The hit pool's releases were served during set-up, by no
			// counted operation.
			res.attempted++
			res.failed++
			errs = append(errs, rel.err.Error())
		}
	}
	res.correct = res.failed == 0

	var misses []float64
	for _, x := range ops {
		if x.kind == opMiss && x.err == nil {
			misses = append(misses, ms(x.latency()))
		}
	}
	stars, kl := rg.fixedQuality(rels)

	fmt.Fprintf(log, "perfbench: workload %s seed %d window %.1fs: %d ops (%d misses), %d releases checked, %d failed\n",
		w.name, o.seed, elapsed.Seconds(), len(ops), len(misses), len(rels), res.failed)
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(log, "perfbench: ... %d more failures\n", len(errs)-10)
			break
		}
		fmt.Fprintln(log, "perfbench: FAIL", e)
	}
	fmt.Fprintf(log, "perfbench: samples: %d misses, %d hits, %d verifies; phases: set-up %.1fs, window %.1fs, releases %.1fs, check %.1fs, later set-ups %.1fs\n",
		len(misses), len(latencies(hits)), len(latencies(verifies)), setUpTotal.Seconds(), windowEnd.Sub(phase).Seconds(),
		releasesEnd.Sub(windowEnd).Seconds(), checkEnd.Sub(checkStart).Seconds(), laterSetUps.Seconds())
	if n := len(misses); n < 100 {
		fmt.Fprintf(log, "perfbench: note: miss_p90_ms rests on %d samples, fewer than 10 beyond it\n", n)
	}
	hb, _ := json.Marshal(host)
	fmt.Fprintf(log, "perfbench: host %s\n", hb)
	sortedSetups := append([]float64(nil), setups...)
	sort.Float64s(sortedSetups)
	med := quantile(sortedSetups, 0.5)
	fmt.Fprintf(log, "perfbench: setup_s samples %v, median %.4f, spread (max-min)/median %.1f%%\n",
		setups, med, 100*(sortedSetups[len(sortedSetups)-1]-sortedSetups[0])/med)

	if !o.trace {
		res.add("miss_p50_ms", "ms", quantile(misses, 0.5))
		res.add("miss_p90_ms", "ms", quantile(misses, 0.9))
		res.add("rps", "1/s", float64(len(ops))/elapsed.Seconds())
		res.add("hit_p50_ms", "ms", quantile(latencies(hits), 0.5))
		res.add("verify_p50_ms", "ms", quantile(latencies(verifies), 0.5))
		res.add("ok_frac", "ratio", float64(res.attempted-res.failed)/float64(res.attempted))
		res.add("stars", "count", stars)
		res.add("kl", "nats", kl)
		res.add("peak_rss_mb", "MB", rss)
		res.add("setup_s", "s", med)
		return res, nil
	}
	layerMetrics(res, tr, rels, misses, log)
	tracingOverhead(w, rg.jobs, rels, tr, log)
	delta := func(name string) float64 { return after[name] - before[name] }
	h, m := delta("ldivd_cache_hits_total"), delta("ldivd_cache_misses_total")
	ratio := 0.0
	if h+m > 0 {
		ratio = h / (h + m)
	}
	res.add("service.cache_hit_ratio", "ratio", ratio)
	res.add("service.rejected", "count", delta("ldivd_jobs_rejected_total")+delta("ldivd_tenant_rejections_total"))
	res.add("service.retries", "count", delta("ldivd_job_retries_total"))
	if err := tr.write(o.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %d spans written to %s\n", len(tr.spans), o.spans)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latencies(list []op) []float64 {
	out := make([]float64, 0, len(list))
	for _, x := range list {
		if x.err == nil {
			out = append(out, ms(x.latency()))
		}
	}
	return out
}

type relKey struct {
	body int
	algo string
}

// releases lists every distinct release of the run: the hit pool of a mixed
// workload, every timed miss, and the leading job-list bodies whose stars
// and KL are reported, serving (untimed) any the window did not reach. It
// returns those extra operations too.
func (r *rig) releases(ctx context.Context, ops []op) ([]op, []*release) {
	var rels []*release
	seen := make(map[relKey]bool)
	add := func(body int, algo string, out outcome, lat time.Duration) {
		k := relKey{body, algo}
		if seen[k] {
			return
		}
		seen[k] = true
		rels = append(rels, &release{id: len(rels), body: body, algo: algo, served: out, latency: lat})
	}
	for _, e := range r.pool {
		add(e.body, e.algo, e.release, 0)
	}
	for _, x := range ops {
		if x.kind == opMiss && x.err == nil {
			add(x.body, x.algo, x.out, x.latency())
		}
	}
	var extra []op
	for b := 0; b < r.w.fixed; b++ {
		algo := r.w.algos[b%len(r.w.algos)]
		if seen[relKey{b, algo}] {
			continue
		}
		x := op{kind: opMiss, body: b, algo: algo}
		x.out, x.err = r.miss(ctx, b, algo)
		x.out.csv, x.out.st = nil, nil
		extra = append(extra, x)
		if x.err == nil {
			add(b, algo, x.out, 0)
		}
	}
	return extra, rels
}

// fixedQuality returns the stars summed, and the KL averaged, over the
// workload's fixed release set: the hit pool of a mixed workload, else the
// first w.fixed bodies of the job list. The set depends only on the seed, so
// both values repeat exactly across runs of one seed.
func (r *rig) fixedQuality(rels []*release) (stars, kl float64) {
	n := 0
	for _, rel := range rels {
		inSet := rel.body < r.w.fixed
		if r.w.mixed {
			inSet = rel.body < r.w.poolBodies
		}
		if !inSet {
			continue
		}
		stars += float64(rel.served.stars)
		if rel.served.hasKL {
			kl += rel.served.kl
			n++
		}
	}
	if n > 0 {
		kl /= float64(n)
	}
	return stars, kl
}
