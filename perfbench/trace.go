package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"ldiv"
	"ldiv/internal/core"
	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/hilbert"
	"ldiv/internal/metrics"
	"ldiv/internal/store"
	"ldiv/internal/table"
)

// span is one timed interval of the traced run. Spans of one release share
// Job; a layer call's Parent is its release's replay span.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"` // index of the parent span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// OnPath marks a layer call that the served miss also makes, so its
	// time is subtracted from the round trip to get the service's self time.
	OnPath bool `json:"on_path"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record appends a finished span and returns its index.
func (tr *tracer) record(name string, job, parent int, start, end time.Time, onPath bool) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Job: job, Parent: parent,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds(), OnPath: onPath})
	return len(tr.spans) - 1
}

// finish closes span i, opened with record(name, job, parent, start, start).
func (tr *tracer) finish(i int) {
	tr.mu.Lock()
	tr.spans[i].End = time.Since(tr.t0).Nanoseconds()
	tr.mu.Unlock()
}

// layer times one layer call as a child span of parent.
func (tr *tracer) layer(name string, job, parent int, onPath bool, fn func() error) error {
	start := time.Now()
	err := fn()
	tr.record(name, job, parent, start, time.Now(), onPath)
	return err
}

// write stores the spans as JSON lines, creating the file's directory.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// counts are the work counters the traced replay records per release.
type counts struct {
	qiGroups, residueRows, klPairs, releaseBytes int
	tp, kl                                       bool
}

// replay recomputes one release by calling each layer's public function the
// way a served miss does, recording a span per call under parent. For
// tp+ it runs TP and then Hilbert on the TP residue itself, so the release
// it returns is the decomposition the run checks byte for byte against the
// served one. The scratch store repeats the durable store's writes; they are
// on the served path only when the workload runs with its store.
func (tr *tracer) replay(w workload, job, parent int, body []byte, algo string, st *store.Store) (outcome, counts, *table.Table, error) {
	var (
		out outcome
		c   counts
		t   *table.Table
		g   *generalize.Generalized
		err error
	)
	step := func(name string, onPath bool, fn func() error) error {
		if err != nil {
			return err
		}
		err = tr.layer(name, job, parent, onPath, fn)
		return err
	}

	step("table.read_csv", true, func() (e error) {
		t, e = table.ReadCSV(bytes.NewReader(body), w.qi, saColumn)
		return e
	})
	step("eligibility.check", true, func() error {
		if !eligibility.IsEligibleTable(t, w.l) {
			return fmt.Errorf("body %d is not %d-eligible", job, w.l)
		}
		return nil
	})
	var digest string
	step("store.put_body", w.store, func() (e error) {
		digest, e = st.PutBody(body)
		return e
	})
	step("store.append", w.store, func() error {
		return st.Append(store.Record{Op: store.OpAccept, ID: "j" + strconv.Itoa(job), Key: digest, Body: digest})
	})

	switch algo {
	case "tp", "tp+":
		c.tp = true
		var groups [][]int
		var res *core.Result
		step("table.group_by_qi", true, func() error {
			groups = t.GroupByQI()
			return nil
		})
		c.qiGroups = len(groups)
		step("core.anonymize", true, func() (e error) {
			res, e = (&core.Anonymizer{L: w.l}).AnonymizeGroups(t, groups)
			return e
		})
		if err != nil {
			return out, c, t, err
		}
		c.residueRows = len(res.Residue)
		// Plain tp publishes the residue as one group; Hilbert still runs on
		// it, off the served path, so its cost on this residue is measured.
		var parts [][]int
		if len(res.Residue) > 0 {
			step("hilbert.partition", algo == "tp+", func() (e error) {
				parts, e = hilbert.NewSuppressor(w.l).PartitionRows(t, res.Residue, w.l)
				return e
			})
		}
		if algo == "tp+" && len(parts) > 0 {
			refined := *res
			refined.ResidueGroups = normalizeGroups(parts)
			res = &refined
		}
		step("generalize.suppress", true, func() (e error) {
			g, e = res.Generalize(t)
			return e
		})
	case "hilbert":
		var parts [][]int
		step("hilbert.partition", true, func() (e error) {
			rows := make([]int, t.Len())
			for i := range rows {
				rows[i] = i
			}
			parts, e = hilbert.NewSuppressor(w.l).PartitionRows(t, rows, w.l)
			return e
		})
		step("generalize.suppress", true, func() (e error) {
			g, e = generalize.Suppress(t, generalize.NewPartition(parts))
			return e
		})
	case "anatomy":
		var an *ldiv.Anatomy
		step("anatomy.anonymize", true, func() (e error) {
			an, e = ldiv.Anatomize(t, w.l)
			return e
		})
		step("anatomy.write_csv", true, func() error {
			var qit, sens bytes.Buffer
			if e := ldiv.WriteAnatomyQITCSV(&qit, t, an); e != nil {
				return e
			}
			if e := ldiv.WriteAnatomySTCSV(&sens, t, an); e != nil {
				return e
			}
			out.csv, out.st = qit.Bytes(), sens.Bytes()
			return nil
		})
	default:
		step("algo."+algo, true, func() (e error) {
			g, _, e = ldiv.AnonymizeWith(t, w.l, algo)
			return e
		})
	}
	if g != nil {
		c.kl = true
		step("metrics.kl", true, func() (e error) {
			out.kl, e = metrics.KLDivergence(g)
			return e
		})
		out.hasKL = true
		c.klPairs = klPairs(g)
		out.stars = g.Stars()
		step("generalize.write_csv", true, func() error {
			var b bytes.Buffer
			if e := generalize.WriteCSV(&b, g); e != nil {
				return e
			}
			out.csv = b.Bytes()
			return nil
		})
	}
	c.releaseBytes = len(out.csv) + len(out.st)
	step("store.put_result", w.store, func() error {
		return st.PutResult(digest, out.csv, out.st, json.RawMessage(`{}`))
	})
	out.digest()
	return out, c, t, err
}

// normalizeGroups orders a refined residue partition the way the TP+
// hybrid publishes it: rows ascending within a group, groups by first row.
func normalizeGroups(parts [][]int) [][]int {
	out := make([][]int, 0, len(parts))
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		cp := append([]int(nil), p...)
		sort.Ints(cp)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// klPairs counts the (point, group) pairs Equation 2's evaluation visits:
// distinct (QI, SA) points times the release's non-exact groups.
func klPairs(g *generalize.Generalized) int {
	t := g.Source
	points := make(map[string]struct{})
	for r := 0; r < t.Len(); r++ {
		points[t.QIKey(r)+"|"+strconv.Itoa(t.SAValue(r))] = struct{}{}
	}
	general := 0
	for _, rows := range g.Partition.Groups {
		if len(rows) == 0 {
			continue
		}
		for _, c := range g.Cells[rows[0]] {
			if c.Kind != generalize.CellExact {
				general++
				break
			}
		}
	}
	return len(points) * general
}
