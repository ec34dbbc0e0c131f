package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// layerSpans are the layer calls whose median time per call is a per-layer
// metric (name + "_ms"). README.md says which end-to-end metric each moves.
var layerSpans = []string{
	"table.read_csv", "eligibility.check", "table.group_by_qi", "core.anonymize",
	"hilbert.partition", "generalize.suppress", "metrics.kl", "generalize.write_csv",
	"store.put_body", "store.append", "store.put_result", "audit.verify",
}

// layerMetrics adds the traced run's per-layer metrics to res and reports
// what share of the served miss latency the layer spans account for.
func layerMetrics(res *result, tr *tracer, rels []*release, misses []float64, log io.Writer) {
	byName := make(map[string][]float64)
	onPath := make(map[int]float64) // release id -> summed on-path layer time
	for _, s := range tr.spans {
		if s.Parent < 0 {
			continue
		}
		byName[s.Name] = append(byName[s.Name], s.ms())
		if s.OnPath {
			onPath[s.Job] += s.ms()
		}
	}
	for _, name := range layerSpans {
		res.add(name+"_ms", "ms", quantile(byName[name], 0.5))
	}

	var qiGroups, residue, pairs, size, self, covered []float64
	for _, rel := range rels {
		c := rel.counts
		if c.tp {
			qiGroups = append(qiGroups, float64(c.qiGroups))
			residue = append(residue, float64(c.residueRows))
		}
		if c.kl {
			pairs = append(pairs, float64(c.klPairs))
		}
		size = append(size, float64(c.releaseBytes))
		if rel.latency > 0 {
			self = append(self, ms(rel.latency)-onPath[rel.id])
			covered = append(covered, onPath[rel.id])
		}
	}
	res.add("metrics.kl_pairs", "count", quantile(pairs, 0.5))
	res.add("core.residue_rows", "count", quantile(residue, 0.5))
	res.add("table.qi_groups", "count", quantile(qiGroups, 0.5))
	res.add("generalize.release_bytes", "bytes", quantile(size, 0.5))
	res.add("service.self_ms", "ms", quantile(self, 0.5))

	p50, in := quantile(misses, 0.5), quantile(covered, 0.5)
	if p50 <= 0 {
		return
	}
	share := in / p50
	fmt.Fprintf(log, "perfbench: layer spans account for %.1f%% of miss_p50_ms (%.2f of %.2f ms)\n", 100*share, in, p50)
	if share < 0.75 {
		fmt.Fprintf(log, "perfbench: gap: %.2f ms (%.1f%%) of miss_p50_ms lies outside every layer span\n", p50-in, 100*(1-share))
	}
}

// tracingOverhead times the first few releases untraced through the public
// dispatch and compares them with the traced layer spans of the same bodies,
// store writes excluded since the dispatch makes none.
func tracingOverhead(w workload, jobs *jobList, rels []*release, tr *tracer, log io.Writer) {
	const sample = 5
	traced := make(map[int]float64)
	for _, s := range tr.spans {
		if s.Parent >= 0 && s.OnPath && !strings.HasPrefix(s.Name, "store.") && s.Job < sample {
			traced[s.Job] += s.ms()
		}
	}
	var a, b []float64
	for _, rel := range rels {
		if rel.id >= sample || rel.err != nil {
			continue
		}
		body := jobs.body(rel.body, w.rows)
		start := time.Now()
		if _, _, err := reference(w, body, rel.algo); err != nil {
			return
		}
		b = append(b, ms(time.Since(start)))
		a = append(a, traced[rel.id])
	}
	if len(a) == 0 {
		return
	}
	ta, tb := quantile(a, 0.5), quantile(b, 0.5)
	fmt.Fprintf(log, "perfbench: tracing overhead %.3f ms per release (traced layer spans %.3f ms, untraced in-process run %.3f ms, median of %d)\n",
		ta-tb, ta, tb, len(a))
}
