package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ldiv/internal/parallel"
	"ldiv/internal/service"
)

// hostInfo is the host block of a run, so that a noisy run can be told
// apart from slow code.
type hostInfo struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	GOARCH      string `json:"goarch"`
	CPUModel    string `json:"cpu_model"`
	Workers     int    `json:"server_workers"`
	AlgoWorkers int    `json:"server_algo_workers"`
	// StealPct is the share of CPU time the hypervisor stole during the
	// timed window, from /proc/stat; -1 when unavailable.
	StealPct float64 `json:"steal_pct"`
	// Abandoned is the number of windows given up to steal episodes, and
	// StealWaitS the seconds spent waiting for one to pass.
	Abandoned  int     `json:"abandoned_windows"`
	StealWaitS float64 `json:"steal_wait_s"`
}

func newHostInfo(cfg service.Config, win window) hostInfo {
	return hostInfo{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		CPUModel:    cpuModel(),
		Workers:     parallel.WorkerCount(cfg.Workers),
		AlgoWorkers: parallel.WorkerCount(cfg.AlgoWorkers),
		StealPct:    win.stealPct,
		Abandoned:   win.abandoned,
		StealWaitS:  win.waited.Seconds(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes returns the aggregate steal and total jiffies of /proc/stat.
func cpuTimes() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so stop at steal.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures CPU steal over an interval.
type stealMeter struct {
	steal, total float64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTimes()
	return stealMeter{s, t, ok}
}

// pct returns the stolen share of CPU time since start, in percent.
func (m stealMeter) pct() float64 {
	s, t, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return -1
	}
	return 100 * (s - m.steal) / (t - m.total)
}

// A steal episode is a stretch in which the hypervisor takes more than
// stealLimit percent of the CPU time over stealSpan. On a shared host such
// episodes last seconds to minutes and slow every latency alike, by up to
// half at 30% steal; outside them steal stays near 1%.
const (
	stealLimit = 15.0
	stealSpan  = 2 * time.Second
	stealTick  = 500 * time.Millisecond
)

// stealWatch samples /proc/stat every stealTick and tells whether the host
// is in a steal episode. Without /proc/stat it never is.
type stealWatch struct {
	high       atomic.Bool
	stop, done chan struct{}
}

func watchSteal() *stealWatch {
	w := &stealWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		type reading struct{ steal, total float64 }
		var ring []reading
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
			s, tot, ok := cpuTimes()
			if !ok {
				continue
			}
			ring = append(ring, reading{s, tot})
			if len(ring) > int(stealSpan/stealTick)+1 {
				ring = ring[1:]
			}
			first, last := ring[0], ring[len(ring)-1]
			w.high.Store(last.total > first.total && 100*(last.steal-first.steal)/(last.total-first.total) > stealLimit)
		}
	}()
	return w
}

// close stops the sampler and waits for it to end.
func (w *stealWatch) close() {
	close(w.stop)
	<-w.done
}

// resetPeakRSS sets the process's VmHWM back to its current RSS, so that
// peak_rss_mb covers the window rather than the set-ups before it. Kernels
// without the reset keep the peak since process start.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns the process's VmHWM in MiB, or 0 when unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
