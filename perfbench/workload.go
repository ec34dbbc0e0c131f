package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"ldiv"
	"ldiv/internal/dataset"
)

// workload is one traffic mix the benchmark drives against ldivd. The
// rationale for each choice is in README.md.
type workload struct {
	name string
	// qi are the SAL quasi-identifier columns every body carries; the
	// sensitive column is always Income.
	qi []string
	// algos are the miss algorithms, cycled in order over the job list.
	algos []string
	l     int
	// rows is the number of rows per submitted body.
	rows int
	// poolRows is the size of the row pool bodies are cut from, which bounds
	// the number of distinct bodies; 0 means rows + rows/4.
	poolRows int
	clients  int
	// store runs the server with its durable store in a temporary directory.
	store bool
	// mixed selects the 8 hit : 1 miss : 1 verify mix over a pre-filled hit
	// pool; otherwise every operation is a cache miss on a fresh body.
	mixed bool
	// poolBodies is the number of hit-pool bodies (each served by every
	// algorithm) of a mixed workload.
	poolBodies int
	// poll is the fixed status-poll interval, at most 1/50 of the median
	// miss time.
	poll time.Duration
	// fixed is the number of leading job-list releases whose stars and KL
	// are reported (a mixed workload reports its hit pool instead).
	fixed int
	// probeEvery and hitProbes shape a miss workload's probes, its only
	// hits and verifies: every probeEvery-th miss is followed, inside the
	// window, by hitProbes cache hits on its body and one verify of its
	// release.
	probeEvery, hitProbes int
	// cacheEntries and retention size the server's result LRU and finished
	// job list; 0 keeps the server defaults.
	cacheEntries, retention int
}

const saColumn = "Income"

var workloads = []workload{
	{
		name: "sal7-tpplus-kl", qi: dataset.QINames, algos: []string{"tp+"}, l: 6,
		rows: 6000, clients: 1, poll: 2 * time.Millisecond,
		fixed: 16, probeEvery: 1, hitProbes: 3, cacheEntries: 16, retention: 16,
	},
	{
		name: "sal4-tp-120k", qi: dataset.QINames[:4], algos: []string{"tp"}, l: 6,
		rows: 120000, clients: 1, store: true, poll: 4 * time.Millisecond,
		fixed: 8, probeEvery: 4, hitProbes: 2, cacheEntries: 16, retention: 16,
	},
	{
		name: "serve-mixed", qi: dataset.QINames[:3], algos: ldiv.Algorithms, l: 4,
		rows: 1000, poolRows: 16384, clients: 2, mixed: true, poolBodies: 4, poll: 50 * time.Microsecond,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jobList is a workload's seeded input: a row pool from which every body is
// cut as a cyclic window of w.rows rows. Window i starts at row i*stride mod
// len(pool); stride is coprime to the pool size, so the first len(pool)
// windows are distinct bodies. A pool only a quarter larger than a body makes
// every body of a run miss the cache while costing nearly the same work;
// serve-mixed needs more distinct bodies than that.
type jobList struct {
	header []byte
	rows   [][]byte // encoded CSV lines, newline included
	stride int
}

// distributionSeed fixes the SAL generator's per-seed parameters (the
// shuffled Zipf marginals and the sensitive-value weights). They change the
// cost of every algorithm, so drawing them from the workload seed would make
// runs of different seeds measure different distributions. The workload seed
// instead orders the pool's rows, which decides every body's content.
const distributionSeed = 1

// newJobList generates the row pool of a workload from the seed.
func newJobList(w workload, seed int64) (*jobList, error) {
	n := w.poolRows
	if n == 0 {
		n = w.rows + w.rows/4
	}
	t, err := ldiv.GenerateSAL(n, distributionSeed)
	if err != nil {
		return nil, fmt.Errorf("generating the row pool: %w", err)
	}
	if t, err = t.ProjectNames(w.qi); err != nil {
		return nil, fmt.Errorf("projecting the row pool: %w", err)
	}
	var b bytes.Buffer
	if err := ldiv.WriteCSV(&b, t); err != nil {
		return nil, fmt.Errorf("encoding the row pool: %w", err)
	}
	lines := bytes.SplitAfter(b.Bytes(), []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	jl := &jobList{header: lines[0], rows: lines[1:]}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jl.rows), func(i, j int) { jl.rows[i], jl.rows[j] = jl.rows[j], jl.rows[i] })
	jl.stride = coprimeStride(len(jl.rows))
	return jl, nil
}

// coprimeStride picks a stride near 3/7 of n that shares no factor with n.
func coprimeStride(n int) int {
	s := n*3/7 + 1
	for gcd(s, n) != 1 {
		s++
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// body returns job i's CSV: the header plus `rows` pool rows starting at
// window i. Negative i are warm-up bodies: one row shorter than any timed
// body, so they never collide with one.
func (jl *jobList) body(i, rows int) []byte {
	if i < 0 {
		rows--
		i = -i
	}
	start := (i * jl.stride) % len(jl.rows)
	size := len(jl.header)
	for k := 0; k < rows; k++ {
		size += len(jl.rows[(start+k)%len(jl.rows)])
	}
	out := make([]byte, 0, size)
	out = append(out, jl.header...)
	for k := 0; k < rows; k++ {
		out = append(out, jl.rows[(start+k)%len(jl.rows)]...)
	}
	return out
}
