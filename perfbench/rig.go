package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ldiv/internal/service"
)

// rig is one set-up instance of a workload: its job list, an in-process
// ldivd listening on loopback, and an HTTP client for it.
type rig struct {
	w        workload
	jobs     *jobList
	srv      *service.Server
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client
	storeDir string
	cfg      service.Config
	// pool holds the hit pool of a mixed workload, filled during set-up.
	pool []poolEntry
}

// poolEntry is one pre-computed release of the hit pool together with the
// encoded verify request that audits it.
type poolEntry struct {
	body    int
	algo    string
	release outcome
	// verifyBody and verifyType are the multipart POST /v1/verify request.
	verifyBody []byte
	verifyType string
}

// outcome is what a round trip returned for one release: its digests and the
// metrics the server reported.
type outcome struct {
	csvSum, stSum [32]byte
	csv, st       []byte
	stars         int
	kl            float64
	hasKL         bool
}

// setUp builds a rig: it generates the job list, starts the server (and its
// store), runs warm-up jobs on bodies outside the timed list, fills the hit
// pool, and collects garbage.
func setUp(w workload, seed int64, tmp string) (*rig, error) {
	jobs, err := newJobList(w, seed)
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, jobs: jobs}
	r.cfg = service.Config{CacheEntries: w.cacheEntries, JobRetention: w.retention}
	if w.store {
		if r.storeDir, err = os.MkdirTemp(tmp, "store-"); err != nil {
			return nil, fmt.Errorf("creating the store directory: %w", err)
		}
		r.cfg.StoreDir = r.storeDir
	}
	if r.srv, err = service.Open(r.cfg); err != nil {
		r.close()
		return nil, fmt.Errorf("starting the server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	r.base = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: r.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	r.client = &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: w.clients + 1,
			DisableCompression:  true,
		},
	}

	warm := len(w.algos)
	if warm < 2 {
		warm = 2
	}
	for i := 1; i <= warm; i++ {
		algo := w.algos[i%len(w.algos)]
		if _, err := r.miss(context.Background(), -i, algo); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up job %d (%s): %w", i, algo, err)
		}
	}
	if w.mixed {
		if err := r.fillPool(); err != nil {
			r.close()
			return nil, err
		}
		if _, err := r.verify(context.Background(), r.pool[0].verifyBody, r.pool[0].verifyType); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up verify: %w", err)
		}
	}
	runtime.GC()
	resetPeakRSS()
	return r, nil
}

// fillPool serves every pool body with every algorithm and encodes the
// verify request of each release.
func (r *rig) fillPool() error {
	for b := 0; b < r.w.poolBodies; b++ {
		for _, algo := range r.w.algos {
			out, err := r.miss(context.Background(), b, algo)
			if err != nil {
				return fmt.Errorf("filling the hit pool (body %d, %s): %w", b, algo, err)
			}
			e := poolEntry{body: b, algo: algo, release: out}
			if e.verifyBody, e.verifyType, err = verifyRequest(r.jobs.body(b, r.w.rows), out.csv, out.st); err != nil {
				return err
			}
			r.pool = append(r.pool, e)
		}
	}
	return nil
}

// close stops the server and removes the store directory. The job list and
// the hit pool stay readable; a second close does nothing.
func (r *rig) close() {
	if r.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = r.hs.Shutdown(ctx)
		cancel()
		<-r.served
		r.hs = nil
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
		r.client = nil
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
	if r.storeDir != "" {
		_ = os.RemoveAll(r.storeDir)
		r.storeDir = ""
	}
}

func (r *rig) query(algo string) string {
	v := url.Values{}
	v.Set("algo", algo)
	v.Set("l", strconv.Itoa(r.w.l))
	v.Set("qi", strings.Join(r.w.qi, ","))
	v.Set("sa", saColumn)
	return v.Encode()
}

// jobStatus is the subset of the job JSON the client reads.
type jobStatus struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Cached  bool   `json:"cached"`
	Error   string `json:"error"`
	Metrics *struct {
		Stars int      `json:"stars"`
		KL    *float64 `json:"kl_divergence"`
	} `json:"metrics"`
}

// do sends a request and returns the response body of a 2xx answer.
func (r *rig) do(ctx context.Context, method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, data, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, data, nil
}

// submit posts job body i and fetches its release: a cache hit is born done,
// a miss is polled at the workload's fixed interval until it finishes.
func (r *rig) submit(ctx context.Context, i int, algo string, wantHit bool) (outcome, error) {
	code, data, err := r.do(ctx, http.MethodPost, "/v1/jobs?"+r.query(algo), "text/csv", r.jobs.body(i, r.w.rows))
	if err != nil {
		return outcome{}, err
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return outcome{}, fmt.Errorf("decoding the submit answer: %w", err)
	}
	if hit := code == http.StatusOK && st.Cached; hit != wantHit {
		return outcome{}, fmt.Errorf("job %s: cache hit %v, want %v", st.ID, hit, wantHit)
	}
	for st.Status == "queued" || st.Status == "running" {
		time.Sleep(r.w.poll)
		if _, data, err = r.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, "", nil); err != nil {
			return outcome{}, err
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return outcome{}, fmt.Errorf("decoding the job status: %w", err)
		}
	}
	if st.Status != "done" || st.Metrics == nil {
		return outcome{}, fmt.Errorf("job %s ended %s: %s", st.ID, st.Status, st.Error)
	}
	var out outcome
	if _, out.csv, err = r.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", "", nil); err != nil {
		return outcome{}, err
	}
	if algo == "anatomy" {
		if _, out.st, err = r.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result?part=st", "", nil); err != nil {
			return outcome{}, err
		}
	}
	out.stars = st.Metrics.Stars
	if st.Metrics.KL != nil {
		out.kl, out.hasKL = *st.Metrics.KL, true
	}
	return out, nil
}

// miss serves a fresh body and digests its release.
func (r *rig) miss(ctx context.Context, i int, algo string) (outcome, error) {
	out, err := r.submit(ctx, i, algo, false)
	out.digest()
	return out, err
}

// digest hashes the release parts; done outside the latency measurement.
func (o *outcome) digest() {
	o.csvSum = sha256.Sum256(o.csv)
	if o.st != nil {
		o.stSum = sha256.Sum256(o.st)
	}
}

// verify posts an encoded verify request and returns the verdict JSON.
func (r *rig) verify(ctx context.Context, body []byte, ctype string) ([]byte, error) {
	v := url.Values{}
	v.Set("l", strconv.Itoa(r.w.l))
	v.Set("qi", strings.Join(r.w.qi, ","))
	v.Set("sa", saColumn)
	_, data, err := r.do(ctx, http.MethodPost, "/v1/verify?"+v.Encode(), ctype, body)
	return data, err
}

// verdictOK reports whether a verify answer is a passing verdict.
func verdictOK(data []byte) bool {
	var rep struct {
		OK bool `json:"ok"`
	}
	return json.Unmarshal(data, &rep) == nil && rep.OK
}

// verifyRequest encodes the multipart body of POST /v1/verify.
func verifyRequest(original, release, st []byte) ([]byte, string, error) {
	var b bytes.Buffer
	mw := multipart.NewWriter(&b)
	parts := []struct {
		name string
		data []byte
	}{{"original", original}, {"release", release}, {"st", st}}
	for _, p := range parts {
		if p.data == nil {
			continue
		}
		fw, err := mw.CreateFormFile(p.name, p.name+".csv")
		if err != nil {
			return nil, "", fmt.Errorf("encoding the verify request: %w", err)
		}
		if _, err := fw.Write(p.data); err != nil {
			return nil, "", fmt.Errorf("encoding the verify request: %w", err)
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", fmt.Errorf("encoding the verify request: %w", err)
	}
	return b.Bytes(), mw.FormDataContentType(), nil
}

// counters scrapes the server's /metrics counters.
func (r *rig) counters(ctx context.Context) (map[string]float64, error) {
	_, data, err := r.do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}
