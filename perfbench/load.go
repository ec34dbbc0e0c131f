package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opMiss opKind = iota
	opHit
	opVerify
)

// op is one timed round trip.
type op struct {
	kind opKind
	// body is the job-list body of a miss; pool indexes r.pool for hits and
	// verifies.
	body, pool int
	algo       string
	// start and end are offsets from the window start; end is taken before
	// any client-side digesting.
	start, end time.Duration
	out        outcome
	err        error
}

func (o *op) latency() time.Duration { return o.end - o.start }

// plan maps the k-th planned operation of a run to its kind and target. A
// miss workload plans only misses, on body k; its hit and verify probes are
// added by drive. A mixed workload repeats 8 hits, 1 miss and 1 verify; hits
// cycle the pool round robin so every pool entry stays recently used in the
// server's LRU, and misses cycle the algorithms over bodies beyond the pool.
func (r *rig) plan(k int) op {
	w := r.w
	if !w.mixed {
		return op{kind: opMiss, body: k, algo: w.algos[k%len(w.algos)]}
	}
	round, slot := k/10, k%10
	switch {
	case slot < 8:
		return op{kind: opHit, pool: (round*8 + slot) % len(r.pool)}
	case slot == 8:
		return op{kind: opMiss, body: w.poolBodies + round, algo: w.algos[round%len(w.algos)]}
	default:
		return op{kind: opVerify, pool: round % len(r.pool)}
	}
}

// execute performs one planned operation, timing it from t0. A miss keeps
// its release bytes for the probes that follow it; every other operation
// drops them once digested.
func (r *rig) execute(ctx context.Context, o *op, t0 time.Time) {
	o.start = time.Since(t0)
	switch o.kind {
	case opMiss:
		o.out, o.err = r.submit(ctx, o.body, o.algo, false)
	case opHit:
		e := &r.pool[o.pool]
		o.algo = e.algo
		o.out, o.err = r.submit(ctx, e.body, e.algo, true)
	case opVerify:
		var data []byte
		e := &r.pool[o.pool]
		data, o.err = r.verify(ctx, e.verifyBody, e.verifyType)
		if o.err == nil && !verdictOK(data) {
			o.err = errBadVerdict
		}
	}
	o.end = time.Since(t0)
	o.out.digest()
	if o.kind != opMiss {
		o.out.csv, o.out.st = nil, nil
	}
}

// probe follows a miss m of a miss workload: w.hitProbes re-submissions of
// m's body, which the server now answers from its cache, then one verify of
// the release m was served. The probes share the window with the misses, so
// host speed drifts under all three latencies alike. They start after a
// collection, so that none pays for the garbage the miss left. A probe is
// made only while open reports the window open.
func (r *rig) probe(ctx context.Context, m *op, t0 time.Time, open func() bool, emit func(op)) {
	req, ctype, reqErr := verifyRequest(r.jobs.body(m.body, r.w.rows), m.out.csv, m.out.st)
	runtime.GC()
	for i := 0; i < r.w.hitProbes && open(); i++ {
		h := op{kind: opHit, body: m.body, algo: m.algo, start: time.Since(t0)}
		h.out, h.err = r.submit(ctx, m.body, m.algo, true)
		h.end = time.Since(t0)
		h.out.digest()
		h.out.csv, h.out.st = nil, nil
		emit(h)
	}
	if !open() {
		return
	}
	v := op{kind: opVerify, body: m.body, algo: m.algo, start: time.Since(t0)}
	if reqErr != nil {
		v.err = reqErr
	} else {
		var data []byte
		data, v.err = r.verify(ctx, req, ctype)
		if v.err == nil && !verdictOK(data) {
			v.err = errBadVerdict
		}
	}
	v.end = time.Since(t0)
	emit(v)
}

// window is one timed stretch of the closed loop.
type window struct {
	ops     []op
	elapsed time.Duration
	// stealPct is the CPU steal over the stretch, -1 when unknown.
	stealPct float64
	// abandoned counts the windows given up before this one, and waited is
	// the time spent waiting for steal episodes to pass.
	abandoned int
	waited    time.Duration
}

// drive measures one window of the given length on a quiet host. It waits
// for a steal episode to pass before it starts, and abandons and restarts
// the window when one begins. Once patience is spent it no longer waits or
// abandons, so a run on a host that stays disturbed still ends, within two
// lengths plus patience. It returns the measured window and the operations
// of the abandoned ones, which are checked but not measured.
func (r *rig) drive(ctx context.Context, length, patience time.Duration) (window, []op) {
	sw := watchSteal()
	defer sw.close()
	// The plan index runs on across windows, so that a miss of a later
	// window never repeats a body an abandoned one served.
	var next atomic.Int64
	giveUp := time.Now().Add(length + patience)
	var (
		dropped []op
		waited  time.Duration
	)
	for abandoned := 0; ; abandoned++ {
		t := time.Now()
		for sw.high.Load() && time.Now().Before(giveUp) {
			time.Sleep(stealTick)
		}
		waited += time.Since(t)
		guard := sw
		if time.Now().Add(length).After(giveUp) {
			guard = nil
		}
		win, ok := r.attempt(ctx, &next, length, guard)
		if ok {
			win.abandoned, win.waited = abandoned, waited
			return win, dropped
		}
		dropped = append(dropped, win.ops...)
	}
}

// attempt runs the closed loop: w.clients goroutines each start their next
// operation, the next-th of the plan, as soon as the previous one ends, until
// the window closes. On a miss workload every w.probeEvery-th successful miss
// of a client is followed by its probes. The operation in flight at the
// deadline completes and is kept. With a guard, the clients stop early when
// a steal episode begins, and attempt reports the window not measured.
func (r *rig) attempt(ctx context.Context, next *atomic.Int64, length time.Duration, guard *stealWatch) (window, bool) {
	var (
		mu        sync.Mutex
		ops       []op
		wg        sync.WaitGroup
		abandoned atomic.Bool
	)
	emit := func(o op) {
		mu.Lock()
		ops = append(ops, o)
		mu.Unlock()
	}
	steal := startSteal()
	t0 := time.Now()
	open := func() bool {
		if guard != nil && guard.high.Load() {
			abandoned.Store(true)
		}
		return time.Since(t0) < length && !abandoned.Load()
	}
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			misses := 0
			for open() {
				o := r.plan(int(next.Add(1) - 1))
				r.execute(ctx, &o, t0)
				m := o
				o.out.csv, o.out.st = nil, nil
				emit(o)
				if o.kind == opMiss && o.err == nil && !r.w.mixed {
					if misses++; misses%r.w.probeEvery == 0 {
						r.probe(ctx, &m, t0, open, emit)
					}
				}
			}
		}()
	}
	wg.Wait()
	return window{ops: ops, elapsed: time.Since(t0), stealPct: steal.pct()}, !abandoned.Load()
}
