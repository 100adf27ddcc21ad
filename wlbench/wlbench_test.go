package main

import (
	"encoding/json"
	"flag"
	"net"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"nvmwear"
	"nvmwear/internal/exec"
	"nvmwear/internal/lifetime"
	"nvmwear/internal/rng"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
	"nvmwear/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

// tinyJob is a short lifetime run of one scheme, for tests that visit the
// whole catalogue.
func tinyJob(scheme nvmwear.SchemeKind) job {
	return bpaCatalogueJobs(nvmwear.ScaleTiny, 1)[schemeIndex(scheme)]
}

func schemeIndex(scheme nvmwear.SchemeKind) int {
	for i, s := range nvmwear.Schemes() {
		if s == scheme {
			return i
		}
	}
	panic("unknown scheme " + scheme)
}

func TestLevelerOf(t *testing.T) {
	for _, scheme := range nvmwear.Schemes() {
		sys, err := nvmwear.NewSystem(nvmwear.SystemConfig{Scheme: scheme, Lines: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		lv := levelerOf(sys)
		if lv.Name() != sys.SchemeName() || lv.Translate(5) != sys.Translate(5) {
			t.Errorf("%s: levelerOf returned %s", scheme, lv.Name())
		}
	}
}

// TestWrappersForward checks that the timing wrappers answer every method
// of wl.Leveler, wl.BatchLeveler and trace.BatchStream as the wrapped
// value does, keep its batch capability, and leave one tiny lifetime run
// per scheme exactly as the bare scheme runs it.
func TestWrappersForward(t *testing.T) {
	for _, scheme := range nvmwear.Schemes() {
		cfg, w := tinyJob(scheme).seeded(11)
		cfg = withDefaults(cfg)
		run := func(wrap bool) (lifetime.Result, wl.Leveler, wl.Leveler) {
			dev, lv, err := buildSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream, name, err := w.Build(cfg.Lines)
			if err != nil {
				t.Fatal(err)
			}
			run := lv
			if wrap {
				tr := newTracer()
				run, stream = tr.leveler(lv, scheme), tr.stream(stream)
			}
			res := lifetime.Run(dev, run, stream, lifetime.Options{Workload: name})
			res.Elapsed = 0
			return res, lv, run
		}
		bare, _, _ := run(false)
		wrapped, lv, tl := run(true)
		if !reflect.DeepEqual(bare, wrapped) {
			t.Errorf("%s: wrapped run %v, bare %v", scheme, wrapped, bare)
		}
		if tl.Name() != lv.Name() || tl.Lines() != lv.Lines() || tl.Stats() != lv.Stats() ||
			tl.OverheadBits() != lv.OverheadBits() || tl.Translate(3) != lv.Translate(3) {
			t.Errorf("%s: wrapper answers differ from the scheme's", scheme)
		}
		bl, isBatch := lv.(wl.BatchLeveler)
		tbl, wrappedBatch := tl.(wl.BatchLeveler)
		if isBatch != wrappedBatch {
			t.Errorf("%s: scheme BatchLeveler %v, wrapper %v", scheme, isBatch, wrappedBatch)
		}
		if isBatch && tbl.Advance(1000) != bl.Advance(1000) {
			t.Errorf("%s: Advance differs", scheme)
		}
	}

	tr := newTracer()
	_, lv, err := buildSystem(withDefaults(tinyJob(nvmwear.Baseline).cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.leveler(scalarOnly{lv}, nvmwear.Baseline).(wl.BatchLeveler); ok {
		t.Error("wrapper of a scalar-only scheme claims to be a BatchLeveler")
	}
	if _, ok := tr.stream(trace.StreamFunc(func() trace.Request { return trace.Request{} })).(trace.BatchStream); ok {
		t.Error("wrapper of a scalar-only stream claims to be a BatchStream")
	}

	bare := workload.NewBPA(3, 1<<10, 4)
	wrapped := tr.stream(workload.NewBPA(3, 1<<10, 4)).(trace.BatchStream)
	ops, addrs := make([]trace.Op, 7), make([]uint64, 7)
	for i := 0; i < 20; i++ {
		if r := bare.Next(); r != wrapped.Next() {
			t.Fatalf("Next %d differs", i)
		}
		wops, waddrs := make([]trace.Op, 7), make([]uint64, 7)
		if bare.NextBatch(ops, addrs) != wrapped.NextBatch(wops, waddrs) ||
			!reflect.DeepEqual(ops, wops) || !reflect.DeepEqual(addrs, waddrs) {
			t.Fatalf("NextBatch %d differs", i)
		}
	}
	if tr.requests != 20*8 || tr.repeats == 0 {
		t.Errorf("counted %d requests, %d repeats", tr.requests, tr.repeats)
	}
}

// scalarOnly hides a scheme's batch methods.
type scalarOnly struct{ wl.Leveler }

// TestTracedMatchesPlain runs one tiny job per scheme, and a Fig 17 timing
// job per timed scheme, both through the user entry points and rebuilt
// from the layer constructors under the timing wrappers.
func TestTracedMatchesPlain(t *testing.T) {
	var jobs []job
	for _, scheme := range nvmwear.Schemes() {
		jobs = append(jobs, tinyJob(scheme))
	}
	ipc := specIPCJobs(nvmwear.ScaleTiny)
	for i := 0; i < len(ipc); i += len(nvmwear.SpecBenchmarks()) {
		jobs = append(jobs, ipc[i])
	}
	tr := newTracer()
	for i, j := range jobs {
		plain, err := runPlain(j, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		traced, err := tr.runJob(j, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: traced %+v, plain %+v", j.label, traced, plain)
		}
	}
	if tr.simSelf <= 0 || tr.lifetimeSelf <= 0 || tr.fill <= 0 || tr.requests == 0 {
		t.Errorf("tracer recorded nothing: %+v", tr)
	}
}

// TestJobListsReproduceFigures dispatches the spec_lifetime and spec_ipc
// job lists with the figures' base seed and job order at ScaleTiny and
// compares them with RunFig16 (coarse) and RunFig17.
func TestJobListsReproduceFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig 16a and Fig 17 twice")
	}
	sc := nvmwear.ScaleTiny
	sc.Parallelism = 2
	dispatch := func(jobs []job) []outcome {
		outs, err := exec.Map(&exec.Pool{Workers: 2, BaseSeed: sc.Seed}, len(jobs), func(i int, seed uint64) (outcome, error) {
			return runPlain(jobs[i], seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	names := len(nvmwear.SpecBenchmarks())

	fig16, err := nvmwear.RunFig16(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	life := dispatch(specLifetimeJobs(sc))
	for si, s := range fig16 {
		for bi := 0; bi < names; bi++ {
			if got := 100 * life[si*names+bi].Life.Normalized; got != s.Y[bi] {
				t.Errorf("fig16a %s point %d: job list %v, figure %v", s.Label, bi, got, s.Y[bi])
			}
		}
	}

	fig17, err := nvmwear.RunFig17(sc)
	if err != nil {
		t.Fatal(err)
	}
	ipc := dispatch(specIPCJobs(sc))
	for si, s := range fig17 {
		for bi := 0; bi < names; bi++ {
			deg := max(100*ipc[(si+1)*names+bi].Timing.Degradation(ipc[bi].Timing), 0)
			if deg != s.Y[bi] {
				t.Errorf("fig17 %s point %d: job list %v, figure %v", s.Label, bi, deg, s.Y[bi])
			}
		}
	}
}

// TestSeedChangesOutputs checks that the workload seed reaches every job:
// the same seed repeats each outcome, another seed changes each.
func TestSeedChangesOutputs(t *testing.T) {
	jobs := append(bpaCatalogueJobs(nvmwear.ScaleTiny, 1), specLifetimeJobs(nvmwear.ScaleTiny)[42:46]...)
	ipc := func(seed uint64) []job {
		sc := nvmwear.ScaleTiny
		sc.Seed, sc.Requests = seed, 1<<13
		return specIPCJobs(sc)[:3]
	}
	outcomes := func(seed uint64) []outcome {
		var outs []outcome
		for i, j := range append(append([]job(nil), jobs...), ipc(seed)...) {
			o, err := runPlain(j, rng.SeedStream(seed, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, o)
		}
		return outs
	}
	a, b, c := outcomes(7), outcomes(7), outcomes(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("job %d: same seed, different outcomes", i)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("job %d: another seed, same outcome", i)
		}
	}
}

// TestServeLeavesNothingBehind runs a short serve sweep twice with one
// seed and once with another, then checks the outputs and that the
// server's listener, goroutines and store are gone.
func TestServeLeavesNothingBehind(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	dir := t.TempDir()
	sweep := func(seed uint64) ([]serveRun, string) {
		m, runs, addr := serveSweep(options{seed: seed, workdir: dir, log: os.Stderr}, 3)
		if m.failed != 0 || m.attempted == 0 {
			t.Fatalf("seed %d: %d of %d failed: %v", seed, m.failed, m.attempted, m.problems)
		}
		return runs, addr
	}
	a, addr := sweep(defaultSeed)
	b, _ := sweep(defaultSeed)
	c, _ := sweep(defaultSeed + 1)
	for i := range a {
		if string(a[i].output) != string(b[i].output) || string(a[i].output) == string(c[i].output) {
			t.Errorf("run %d: seed does not determine the output", i)
		}
	}

	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Errorf("server still listening on %s", addr)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("store directories left behind: %v", entries)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left, %d before:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program prints %d", what, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: %s %s, program prints %s %s", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestGolden recomputes the default seed's recorded outcomes. With
// -update it rewrites testdata/golden.json instead.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	g := goldenFile{Jobs: map[string][]goldenJob{}}
	for _, w := range workloads {
		jobs := localJobs(w.name, defaultSeed)
		if jobs == nil {
			continue
		}
		outs, err := exec.Map(&exec.Pool{Workers: 2, BaseSeed: defaultSeed}, len(jobs), func(i int, seed uint64) (outcome, error) {
			return runPlain(jobs[i], seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			g.Jobs[w.name] = append(g.Jobs[w.name], goldenOf(jobs[i], o))
		}
	}
	m, runs, _ := serveSweep(options{seed: defaultSeed, workdir: t.TempDir(), log: os.Stderr}, serveRuns)
	if m.failed != 0 && !*update {
		t.Errorf("serve sweep: %v", m.problems)
	}
	for _, r := range runs {
		g.Serve = append(g.Serve, digest(r.output))
	}
	if *update {
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(g, golden) {
		t.Error("outcomes differ from testdata/golden.json; rerun with -update if the change is meant to move them")
	}
}
