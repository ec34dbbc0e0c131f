package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"ldiv"
	"ldiv/internal/audit"
	"ldiv/internal/store"
)

// release is one distinct (body, algorithm) release the run was served.
type release struct {
	id     int
	body   int
	algo   string
	served outcome
	// latency is the round trip of the timed miss that produced it; zero
	// when it was served during set-up or after the window.
	latency time.Duration
	err     error
	// Filled by the traced check.
	counts counts
}

var errBadVerdict = errors.New("verify answered a failing verdict")

// reference recomputes a release in process through the public library
// dispatch: the same parse, ldiv.AnonymizeWith (or ldiv.Anatomize), KL and
// CSV writer the server uses.
func reference(w workload, body []byte, algo string) (outcome, *ldiv.Table, error) {
	var out outcome
	t, err := ldiv.ReadCSV(bytes.NewReader(body), w.qi, saColumn)
	if err != nil {
		return out, nil, err
	}
	if algo == "anatomy" {
		an, err := ldiv.Anatomize(t, w.l)
		if err != nil {
			return out, t, err
		}
		var qit, st bytes.Buffer
		if err := ldiv.WriteAnatomyQITCSV(&qit, t, an); err != nil {
			return out, t, err
		}
		if err := ldiv.WriteAnatomySTCSV(&st, t, an); err != nil {
			return out, t, err
		}
		out.csv, out.st = qit.Bytes(), st.Bytes()
		out.digest()
		return out, t, nil
	}
	g, _, err := ldiv.AnonymizeWith(t, w.l, algo)
	if err != nil {
		return out, t, err
	}
	if out.kl, err = ldiv.KLDivergence(g); err != nil {
		return out, t, err
	}
	out.hasKL = true
	out.stars = g.Stars()
	var b bytes.Buffer
	if err := ldiv.WriteGeneralizedCSV(&b, g); err != nil {
		return out, t, err
	}
	out.csv = b.Bytes()
	out.digest()
	return out, t, nil
}

// compare reports the first difference between a served release and its
// in-process recomputation.
func compare(served, ref outcome) error {
	switch {
	case served.csvSum != ref.csvSum:
		return errors.New("release bytes differ from the in-process run")
	case served.stSum != ref.stSum:
		return errors.New("sensitive-table bytes differ from the in-process run")
	case served.stars != ref.stars:
		return fmt.Errorf("stars %d, in-process run %d", served.stars, ref.stars)
	case served.hasKL != ref.hasKL || math.Float64bits(served.kl) != math.Float64bits(ref.kl):
		return fmt.Errorf("KL %v, in-process run %v", served.kl, ref.kl)
	}
	return nil
}

// checkOne recomputes, compares and audits one release; tr is nil in the
// untraced run. The audit reads the recomputed bytes, which compare proved
// equal to the served ones.
func checkOne(w workload, jobs *jobList, rel *release, tr *tracer, st *store.Store) {
	body := jobs.body(rel.body, w.rows)
	var (
		ref outcome
		t   *ldiv.Table
		err error
	)
	parent := -1
	if tr != nil {
		start := time.Now()
		parent = tr.record("job", rel.id, -1, start, start, false)
		defer tr.finish(parent)
		ref, rel.counts, t, err = tr.replay(w, rel.id, parent, body, rel.algo, st)
	} else {
		ref, t, err = reference(w, body, rel.algo)
	}
	if err == nil {
		err = compare(rel.served, ref)
	}
	if err == nil {
		var rep *ldiv.ReleaseReport
		start := time.Now()
		opts := audit.Options{L: w.l}
		if rel.algo == "anatomy" {
			rep, err = audit.VerifyAnatomy(t, bytes.NewReader(ref.csv), bytes.NewReader(ref.st), opts)
		} else {
			rep, err = audit.VerifyGeneralized(t, bytes.NewReader(ref.csv), opts)
		}
		if tr != nil {
			tr.record("audit.verify", rel.id, parent, start, time.Now(), false)
		}
		if err == nil && !rep.OK {
			err = fmt.Errorf("the audit found %d violations", rep.ViolationCount)
		}
	}
	if err != nil {
		rel.err = fmt.Errorf("body %d (%s): %w", rel.body, rel.algo, err)
	}
}

// checkAll checks every release: in parallel on every CPU when untraced,
// serially when traced so that no layer span overlaps another.
func checkAll(w workload, jobs *jobList, rels []*release, workers int, tr *tracer, st *store.Store) {
	if tr != nil {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan *release)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rel := range next {
				checkOne(w, jobs, rel, tr, st)
			}
		}()
	}
	for _, rel := range rels {
		next <- rel
	}
	close(next)
	wg.Wait()
}
