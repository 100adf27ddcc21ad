package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"nvmwear/internal/rng"
	"nvmwear/internal/serve"
)

const (
	serveExperiment = "fig13" // four fixed-length SAWL trace runs, about 0.25 s a run
	serveJobs       = 4       // fig13's job count
	serveRuns       = 100     // cold runs, so p90 has ten samples beyond it
	serveStarts     = 51      // probe starts whose median is setup_s
)

// serveRun is what the client saw of one run.
type serveRun struct {
	seed                            uint64
	submitDone, fetch               time.Duration // client clock
	queuedAt, startedAt, finishedAt time.Time     // server stamps
	output                          []byte
}

// runServe measures wlsim serve in-process: serveStarts server and store
// starts, then one closed-loop client that submits serveRuns distinct-seed
// fig13 runs, waits for each to finish over SSE and fetches its output,
// then resubmits every spec so each run is served from the store.
func runServe(o options) measurement {
	m, _, _ := serveSweep(o, serveRuns)
	return m
}

// serveSweep is runServe with n cold runs. It also returns the cold runs
// and the address the server listened on.
func serveSweep(o options, n int) (measurement, []serveRun, string) {
	m := measurement{values: map[string]float64{}}
	fail := func(err error) {
		m.failed++
		m.problems = append(m.problems, err.Error())
	}
	dir, err := os.MkdirTemp(o.workdir, "serve-store-")
	if err != nil {
		fail(err)
		return m, nil, ""
	}
	defer os.RemoveAll(dir)
	srv, _, err := startServer(dir)
	m.attempted++
	if err != nil {
		fail(err)
		return m, nil, ""
	}
	transport := &http.Transport{}
	c := &client{base: "http://" + srv.Addr(), http: &http.Client{Transport: transport, Timeout: time.Minute}}
	defer func() {
		transport.CloseIdleConnections()
		stopServer(srv)
	}()

	// setup_s comes from start-stop probes of a second server, spread over
	// the cold phase so that a few seconds of a busy host cannot move every
	// start, and kept out of wall_s. The probes run without a store: with
	// one, the lockfile's metadata writes on the checkout's disk made the
	// median start climb 2.7x over ten consecutive runs as the cold
	// phases' fsyncs accumulated.
	var starts []float64
	probe := func() (time.Duration, error) {
		t0 := time.Now()
		s, took, err := startServer("")
		m.attempted++
		if err != nil {
			fail(err)
			return time.Since(t0), err
		}
		starts = append(starts, took.Seconds())
		stopServer(s)
		return time.Since(t0), nil
	}

	var probes time.Duration
	start := time.Now()
	cold := c.phase(&m, o.seed, n, nil, func(i int) {
		for len(starts) < serveStarts*(i+1)/n {
			d, err := probe()
			probes += d
			if err != nil {
				return
			}
		}
	})
	warm := c.phase(&m, o.seed, n, cold, func(int) {})
	wall := time.Since(start) - probes

	// Outputs are recorded for the default seed's runs. With another seed,
	// the first few default-seed runs are submitted after the timed phases,
	// so that every run compares outputs with known ones.
	reference := cold
	if o.seed != defaultSeed {
		reference = c.phase(&m, defaultSeed, min(3, n), nil, func(int) {})
	}
	for i, r := range reference {
		if i >= len(golden.Serve) || digest(r.output) != golden.Serve[i] {
			m.failed++
			m.problems = append(m.problems, fmt.Sprintf("run %d (seed %d): output differs from the recorded one", i, r.seed))
		}
	}

	v := m.values
	v["wall_s"] = wall.Seconds()
	v["setup_s"] = median(starts)
	ms := func(f func(serveRun) time.Duration, runs []serveRun) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = float64(f(r)) / float64(time.Millisecond)
		}
		return out
	}
	submitDone := func(r serveRun) time.Duration { return r.submitDone }
	coldMS := ms(submitDone, cold)
	v["submit_done_p50_ms"] = median(coldMS)
	v["submit_done_p90_ms"] = percentile(coldMS, 0.9)
	v["warm_done_p50_ms"] = median(ms(submitDone, warm))
	v["serve.queue_wait_ms"] = median(ms(func(r serveRun) time.Duration { return r.startedAt.Sub(r.queuedAt) }, cold))
	v["serve.run_ms"] = median(ms(func(r serveRun) time.Duration { return r.finishedAt.Sub(r.startedAt) }, cold))
	v["serve.client_ms"] = median(ms(clientTime, cold))
	v["exec.jobs"] = float64(len(cold) * serveJobs)
	v["store.hits"], v["store.misses"] = float64(c.hits), float64(c.misses)
	v["bench.traced_wall_s"] = wall.Seconds()
	if o.traced {
		var queue, runs, client, fetch time.Duration
		for _, r := range append(append([]serveRun(nil), cold...), warm...) {
			queue += r.startedAt.Sub(r.queuedAt)
			runs += r.finishedAt.Sub(r.startedAt)
			client += clientTime(r)
			fetch += r.fetch
		}
		rows := []reportRow{
			{"serve queue wait", "startedAt - queuedAt, summed over runs", queue},
			{"serve run", "finishedAt - startedAt, summed: exec, store, render", runs},
			{"serve client", "submit->done minus queuedAt->finishedAt, summed: HTTP, JSON, SSE", client},
			{"serve fetch", "GET output.txt, summed", fetch},
		}
		var sum time.Duration
		for _, r := range rows {
			sum += r.d
		}
		rows = append(rows, reportRow{"bench.unattributed_s", "client loop and output checks", wall - sum})
		v["bench.unattributed_s"] = (wall - sum).Seconds()
		printReport(o.log, "serve_sweeps", rows, wall, wall.Seconds(), 1, 1, [][2]string{
			{"runs", fmt.Sprintf("%d cold, %d warm, %d jobs each; setup_s is the median of %d starts", len(cold), len(warm), serveJobs, serveStarts)},
			{"store", fmt.Sprintf("%d hits, %d misses", c.hits, c.misses)},
			{"submit->done", fmt.Sprintf("cold p50 %.2f ms, p90 %.2f ms; warm p50 %.2f ms", v["submit_done_p50_ms"], v["submit_done_p90_ms"], v["warm_done_p50_ms"])},
		})
	}
	return m, cold, srv.Addr()
}

// clientTime is the part of a run's submit->done time the server's own
// stamps do not cover.
func clientTime(r serveRun) time.Duration {
	return r.submitDone - r.finishedAt.Sub(r.queuedAt)
}

// startServer starts a server on the store in dir, or without a store
// when dir is empty, and returns it with the time New and Start took.
func startServer(dir string) (*serve.Server, time.Duration, error) {
	start := time.Now()
	srv, err := serve.New(serve.Config{
		Addr: "127.0.0.1:0", Scale: "tiny", Parallelism: 1, Workers: 1, CacheDir: dir,
	})
	if err == nil {
		err = srv.Start()
	}
	took := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	return srv, took, nil
}

// stopServer drains the server and waits until its listener, workers and
// store are closed.
func stopServer(srv *serve.Server) {
	srv.Drain("benchmark finished")
	srv.Wait()
}

type client struct {
	base         string
	http         *http.Client
	hits, misses int
}

// phase submits n runs, one at a time, calling after once each run is
// checked. With cold nil the seeds
// are fresh and every job must miss the store; otherwise cold's specs are
// resubmitted, every job must hit, and the output must match cold's.
func (c *client) phase(m *measurement, base uint64, n int, cold []serveRun, after func(i int)) []serveRun {
	var runs []serveRun
	if cold != nil {
		n = len(cold)
	}
	for i := 0; i < n; i++ {
		seed := rng.SeedStream(base, uint64(i))
		if cold != nil {
			seed = cold[i].seed
		}
		r, err := c.run(m, seed)
		if err != nil {
			m.failed++
			m.problems = append(m.problems, fmt.Sprintf("seed %d: %v", seed, err))
			continue
		}
		m.attempted++
		hits, misses, body, err := cacheSummary(r.output)
		switch {
		case err != nil:
			m.failed++
			m.problems = append(m.problems, fmt.Sprintf("seed %d: %v", seed, err))
		case cold == nil && (hits != 0 || misses != serveJobs):
			m.failed++
			m.problems = append(m.problems, fmt.Sprintf("cold seed %d: %d hits, %d misses", seed, hits, misses))
		case cold != nil && (hits != serveJobs || misses != 0 || !bytes.Equal(body, cold[i].output)):
			m.failed++
			m.problems = append(m.problems, fmt.Sprintf("warm seed %d: %d hits, %d misses, output equal %v", seed, hits, misses, bytes.Equal(body, cold[i].output)))
		}
		c.hits += hits
		c.misses += misses
		r.output = body
		runs = append(runs, r)
		after(i)
	}
	return runs
}

// runView is the part of the server's run JSON the client reads.
type runView struct {
	ID         string    `json:"id"`
	State      string    `json:"state"`
	Error      string    `json:"error"`
	QueuedAt   time.Time `json:"queuedAt"`
	StartedAt  time.Time `json:"startedAt"`
	FinishedAt time.Time `json:"finishedAt"`
}

// run submits one spec, follows its SSE stream to the end, and fetches
// output.txt. Each HTTP call is an attempted operation.
func (c *client) run(m *measurement, seed uint64) (serveRun, error) {
	r := serveRun{seed: seed}
	start := time.Now()
	m.attempted++
	body, _ := json.Marshal(map[string]any{"experiment": serveExperiment, "seed": seed})
	resp, err := c.http.Post(c.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	var v runView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return r, fmt.Errorf("POST /runs: status %d, %v", resp.StatusCode, err)
	}

	m.attempted++
	if v, err = c.follow(v.ID); err != nil {
		return r, err
	}
	r.submitDone = time.Since(start)
	if v.State != "done" {
		return r, fmt.Errorf("run %s ended %s: %s", v.ID, v.State, v.Error)
	}
	r.queuedAt, r.startedAt, r.finishedAt = v.QueuedAt, v.StartedAt, v.FinishedAt

	start = time.Now()
	m.attempted++
	resp, err = c.http.Get(c.base + "/runs/" + v.ID + "/artifacts/output.txt")
	if err != nil {
		return r, err
	}
	r.output, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("GET output.txt: status %d, %v", resp.StatusCode, err)
	}
	r.fetch = time.Since(start)
	return r, nil
}

// follow reads a run's SSE stream until the server ends it, which it does
// once the run is terminal, and returns the last state event.
func (c *client) follow(id string) (runView, error) {
	var v runView
	resp, err := c.http.Get(c.base + "/runs/" + id + "/events")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
		} else if d, ok := strings.CutPrefix(line, "data: "); ok && event == "state" {
			if err := json.Unmarshal([]byte(d), &v); err != nil {
				return v, fmt.Errorf("state event: %w", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return v, fmt.Errorf("events: %w", err)
	}
	return v, nil
}

// cacheSummary splits a run's output into the rendered tables and
// nvmwear.Driver's completion line, returning that line's store hits and
// misses.
func cacheSummary(out []byte) (hits, misses int, body []byte, err error) {
	var summary string
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if strings.HasPrefix(line, "[") {
			summary = line
			continue
		}
		body = append(body, line...)
	}
	_, tail, ok := strings.Cut(summary, "cache: ")
	if !ok {
		return 0, 0, nil, fmt.Errorf("no cache summary in output %q", summary)
	}
	if _, err := fmt.Sscanf(tail, "%d hits, %d misses", &hits, &misses); err != nil {
		return 0, 0, nil, fmt.Errorf("cache summary %q: %w", summary, err)
	}
	return hits, misses, body, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// percentile returns the q-quantile by the nearest-rank rule.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}
