package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nvmwear"
)

// defaultSeed is the figures' base seed at ScaleTiny; outcomes for it are
// recorded in testdata/golden.json.
const defaultSeed = 7

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints, on every workload; a layer
// a workload does not run reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim_mreq_per_s", "Mreq/s"},
		{"submit_done_p50_ms", "ms"},
		{"submit_done_p90_ms", "ms"},
		{"warm_done_p50_ms", "ms"},
		{"workload.fill_s", "s"},
		{"workload.requests", "count"},
		{"workload.repeat_share", "ratio"},
	}
	for _, s := range nvmwear.Schemes() {
		defs = append(defs, metricDef{accessMetric(s), "s"})
	}
	return append(defs, []metricDef{
		{"wl.batch_calls", "count"},
		{"wl.mean_batch", "req/call"},
		{"wl.swap_writes", "count"},
		{"wl.merge_writes", "count"},
		{"wl.table_writes", "count"},
		{"wl.write_overhead", "ratio"},
		{"cmt.hit_rate", "ratio"},
		{"core.merges", "count"},
		{"core.splits", "count"},
		{"nvm.writes", "count"},
		{"nvm.spares_used", "count"},
		{"lifetime.self_s", "s"},
		{"sim.translate_s", "s"},
		{"sim.self_s", "s"},
		{"exec.jobs", "count"},
		{"exec.overhead_s", "s"},
		{"store.hits", "count"},
		{"store.misses", "count"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.run_ms", "ms"},
		{"serve.client_ms", "ms"},
		{"bench.setup_s", "s"},
		{"bench.trace_probe_s", "s"},
		{"bench.unattributed_s", "s"},
		{"bench.traced_wall_s", "s"},
		{"bench.trace_overhead_s", "s"},
	}...)
}()

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	workdir string    // scratch space inside the checkout (serve's store)
	log     io.Writer // reports; the result line follows them on stdout
}

// measurement is what a workload run produced.
type measurement struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

type workloadDef struct {
	name string
	run  func(options) measurement
}

// workloads are the benchmark's workloads; doc.go records why each exists.
var workloads = []workloadDef{
	{"spec_lifetime", local("spec_lifetime")},
	{"bpa_catalogue", local("bpa_catalogue")},
	{"spec_ipc", local("spec_ipc")},
	{"serve_sweeps", runServe},
}

func local(name string) func(options) measurement {
	return func(o options) measurement { return runLocal(name, localJobs(name, o.seed), o) }
}

// localJobs are the job lists of the simulation workloads for a seed.
func localJobs(name string, seed uint64) []job {
	switch name {
	case "spec_lifetime":
		return specLifetimeJobs(nvmwear.ScaleTiny)
	case "bpa_catalogue":
		return bpaCatalogueJobs(nvmwear.ScaleSmall, bpaSeeds)
	case "spec_ipc":
		return specIPCJobs(ipcScale(seed))
	}
	return nil
}

// bpaSeeds is how many seeds one bpa_catalogue pass runs each scheme on.
const bpaSeeds = 2

// ipcScale is ScaleTiny with 2^22-line systems: Fig 17's job list at a
// size where building a system costs milliseconds, so setup_s and
// peak_rss_mb have something to measure.
func ipcScale(seed uint64) nvmwear.Scale {
	sc := nvmwear.ScaleTiny
	sc.TraceLines = 1 << 24
	sc.Seed = seed
	return sc
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for the serve workload's store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "wlbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "wlbench: %v\n", err)
		return 1
	}

	host := fingerprint()
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hb)
	m := w.run(options{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1, workdir: *workdir, log: stdout,
	})
	if m.values == nil {
		m.values = map[string]float64{}
	}
	for _, p := range m.problems {
		fmt.Fprintf(stderr, "wlbench: %s: %s\n", w.name, p)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	} else if rss, err := peakRSSMB(); err == nil {
		m.values["peak_rss_mb"] = rss
	} else {
		fmt.Fprintf(stderr, "wlbench: %v\n", err)
		m.failed++
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{m.failed == 0 && m.attempted > 0, m.attempted, m.failed, map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{m.values[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "wlbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
