package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"nvmwear"
	"nvmwear/internal/exec"
	"nvmwear/internal/rng"
)

// pass is one dispatch of a workload's whole job list.
type pass struct {
	wall     time.Duration // first job dispatched to last result checked
	busy     time.Duration // summed job time; wall minus exec.Map's share is pool overhead
	mapWall  time.Duration // exec.Map alone
	requests uint64
	jobs     int
	tr       *tracer // traced passes only
}

// checker validates every job outcome and counts attempted and failed
// operations. The first untraced pass is checked against the recorded
// outcomes when the seed has them, and every later pass, traced or not,
// must reproduce the first exactly.
type checker struct {
	golden    []goldenJob
	first     []outcome
	attempted int
	failed    int
	problems  []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checker) check(jobs []job, outs []outcome, what string) {
	for i, o := range outs {
		c.attempted++
		j := jobs[i]
		switch {
		case j.timing == nil && (o.Life.Served == 0 || o.Life.TimedOut):
			c.fail("%s %s: lifetime run did not reach device death (%v)", what, j.label, o.Life)
		case j.timing != nil && !(o.Timing.IPC > 0):
			c.fail("%s %s: timing run reports IPC %v", what, j.label, o.Timing.IPC)
		case c.first != nil && !reflect.DeepEqual(o, c.first[i]):
			c.fail("%s %s: outcome differs from the first pass", what, j.label)
		case c.first == nil && c.golden != nil && goldenOf(j, o) != c.golden[i]:
			c.fail("%s %s: %+v, recorded %+v", what, j.label, goldenOf(j, o), c.golden[i])
		}
	}
	if c.first == nil {
		c.first = outs
	}
}

// referenceCheck reruns every eighth job of the default seed's job list,
// whose outcomes are recorded, so that a run with any seed still compares
// simulated results with known values. It runs before the timed passes.
func referenceCheck(name string, c *checker) {
	jobs, want := localJobs(name, defaultSeed), golden.Jobs[name]
	for i := 0; i < len(jobs); i += 8 {
		c.attempted++
		runtime.GC()
		o, err := runPlain(jobs[i], rng.SeedStream(defaultSeed, uint64(i)))
		switch {
		case err != nil:
			c.fail("reference %s: %v", jobs[i].label, err)
		case i >= len(want) || goldenOf(jobs[i], o) != want[i]:
			c.fail("reference %s: %+v differs from the recorded outcome", jobs[i].label, goldenOf(jobs[i], o))
		}
	}
}

// runPass dispatches the job list through exec.Map with one worker, then
// checks the outcomes. tr nil runs every job through runPlain.
func runPass(jobs []job, seed uint64, tr *tracer, c *checker, what string) (pass, error) {
	p := pass{jobs: len(jobs)}
	pool := &exec.Pool{Workers: 1, BaseSeed: seed}
	start := time.Now()
	outs, err := exec.Map(pool, len(jobs), func(i int, seed uint64) (outcome, error) {
		t0 := time.Now()
		defer func() { p.busy += time.Since(t0) }()
		// Each job starts from a collected heap, so the peak RSS is the
		// largest job's footprint rather than an accident of GC pacing
		// across jobs.
		runtime.GC()
		if tr != nil {
			return tr.runJob(jobs[i], seed)
		}
		return runPlain(jobs[i], seed)
	})
	p.mapWall = time.Since(start)
	if err != nil {
		c.attempted += len(jobs)
		for range jobs {
			c.fail("%s: %v", what, err)
		}
		return p, err
	}
	c.check(jobs, outs, what)
	p.wall = time.Since(start)
	for _, o := range outs {
		p.requests += o.Requests
	}
	p.tr = tr
	return p, nil
}

// setupTimes collects build times per job. setup_s is the sum over jobs
// of each job's median: a pass's own set-up time is about a millisecond
// on the lifetime workloads and moves with whatever the previous job left
// in the caches, so the builds are timed on their own, in rounds spread
// between the passes so that a few seconds of a busy host cannot move
// them all.
type setupTimes [][]float64

// round builds every job's system and stream the way a user does,
// nvmwear.NewSystem then WorkloadSpec.Build, and discards them, round after
// round until d is spent. Each build starts from a collected heap whose
// free memory has gone back to the OS, as in a fresh process: otherwise
// how much of a build's memory must be faulted in depends on how far the
// runtime's background scavenger got since the last pass.
func (st setupTimes) round(jobs []job, seed uint64, d time.Duration) error {
	start := time.Now()
	for time.Since(start) < d {
		for i, j := range jobs {
			cfg, w := j.seeded(rng.SeedStream(seed, uint64(i)))
			debug.FreeOSMemory()
			t0 := time.Now()
			sys, err := nvmwear.NewSystem(cfg)
			if err != nil {
				return err
			}
			if _, _, err := w.Build(sys.Lines()); err != nil {
				return err
			}
			st[i] = append(st[i], time.Since(t0).Seconds())
		}
	}
	return nil
}

func (st setupTimes) total() float64 {
	total := 0.0
	for _, t := range st {
		total += median(t)
	}
	return total
}

// repeatPasses runs passes until the budget is spent, at least least times,
// collecting a garbage-free heap before each so passes start alike.
func repeatPasses(budget time.Duration, least int, one func() (pass, error)) ([]pass, error) {
	var out []pass
	start := time.Now()
	for {
		runtime.GC()
		p, err := one()
		if err != nil {
			return out, err
		}
		out = append(out, p)
		if len(out) >= least && time.Since(start)+p.wall > budget {
			return out, nil
		}
	}
}

// runLocal measures a workload of simulation jobs. Untraced passes give
// the end-to-end metrics; with o.traced, half the budget goes to traced
// passes, which give the per-layer metrics and must reproduce the
// untraced outcomes job for job.
func runLocal(name string, jobs []job, o options) measurement {
	c := &checker{golden: goldenFor(name, o.seed)}
	m := measurement{values: map[string]float64{}}
	if o.seed != defaultSeed {
		referenceCheck(name, c)
	}
	budget, least := o.seconds, 3
	if o.traced {
		budget, least = o.seconds/2, 1
	}
	setup := make(setupTimes, len(jobs))
	plain, err := repeatPasses(budget, least, func() (pass, error) {
		p, err := runPass(jobs, o.seed, nil, c, "untraced")
		if err == nil && !o.traced {
			if err = setup.round(jobs, o.seed, time.Second/4); err != nil {
				c.attempted++
				c.fail("set-up: %v", err)
			}
		}
		return p, err
	})
	var traced []pass
	if err == nil && o.traced {
		traced, err = repeatPasses(budget, 1, func() (pass, error) {
			return runPass(jobs, o.seed, newTracer(), c, "traced")
		})
	}
	m.attempted, m.failed, m.problems = c.attempted, c.failed, c.problems
	if err != nil {
		return m
	}

	walls := make([]float64, len(plain))
	for i, p := range plain {
		walls[i] = p.wall.Seconds()
	}
	fmt.Fprintf(o.log, "%s: %d untraced passes of %d jobs, wall_s %.4f\n", name, len(plain), len(jobs), walls)
	m.values["wall_s"] = median(walls)
	if !o.traced {
		m.values["setup_s"] = setup.total()
		fmt.Fprintf(o.log, "%s: setup_s %.6f, per-job medians of %d builds\n", name, m.values["setup_s"], len(setup[0]))
	}
	rates := make([]float64, len(plain))
	for i, p := range plain {
		rates[i] = float64(p.requests) / 1e6 / p.wall.Seconds()
	}
	m.values["sim_mreq_per_s"] = median(rates)
	if o.traced {
		m.layerReport(name, traced, m.values["wall_s"], len(plain), o.log)
	}
	return m
}

// layerReport sets the per-layer metrics from the traced pass with the
// median wall time and prints its breakdown.
func (m *measurement) layerReport(name string, traced []pass, plainWall float64, plainPasses int, w io.Writer) {
	sort.Slice(traced, func(a, b int) bool { return traced[a].wall < traced[b].wall })
	p := traced[(len(traced)-1)/2]
	tr := p.tr
	v := m.values
	wall := p.wall.Seconds()
	v["bench.traced_wall_s"] = wall
	v["bench.setup_s"] = tr.setup.Seconds()
	v["bench.trace_overhead_s"] = wall - plainWall
	v["workload.fill_s"] = tr.fill.Seconds()
	v["workload.requests"] = float64(tr.requests)
	v["workload.repeat_share"] = ratio(tr.repeats, tr.requests)
	for _, s := range nvmwear.Schemes() {
		v[accessMetric(s)] = tr.access[s].Seconds()
	}
	v["wl.batch_calls"] = float64(tr.batchCalls)
	v["wl.mean_batch"] = ratio(tr.batchReqs, tr.batchCalls)
	v["wl.swap_writes"] = float64(tr.swap)
	v["wl.merge_writes"] = float64(tr.merge)
	v["wl.table_writes"] = float64(tr.table)
	v["wl.write_overhead"] = ratio(tr.swap+tr.merge+tr.table, tr.data)
	v["cmt.hit_rate"] = ratio(tr.cmtHits, tr.cmtHits+tr.cmtMisses)
	v["core.merges"] = float64(tr.merges)
	v["core.splits"] = float64(tr.splits)
	v["nvm.writes"] = float64(tr.nvmWrites)
	v["nvm.spares_used"] = float64(tr.sparesUsed)
	v["lifetime.self_s"] = tr.lifetimeSelf.Seconds()
	v["bench.trace_probe_s"] = tr.probe.Seconds()
	v["sim.translate_s"] = tr.simTranslate.Seconds()
	v["sim.self_s"] = tr.simSelf.Seconds()
	v["exec.jobs"] = float64(p.jobs)
	overhead := p.mapWall - p.busy
	v["exec.overhead_s"] = overhead.Seconds()

	rows := []reportRow{
		{"bench.setup_s", "nvm.New, scheme New, WorkloadSpec.Build", tr.setup},
		{"workload.fill_s", "stream Next/NextBatch", tr.fill},
	}
	for _, s := range nvmwear.Schemes() {
		if d := tr.access[s]; d > 0 {
			rows = append(rows, reportRow{accessMetric(s), "Access/AccessBatch/Advance incl. nvm, cmt, imt, gtd", d})
		}
	}
	rows = append(rows,
		reportRow{"lifetime.self_s", "lifetime.Run minus fill and access", tr.lifetimeSelf},
		reportRow{"bench.trace_probe_s", "the stream wrapper's repeat counting", tr.probe},
		reportRow{"sim.self_s", "sim.Run minus translation and fill", tr.simSelf},
		reportRow{"exec.overhead_s", "exec.Map minus job time", overhead},
	)
	var sum time.Duration
	for _, r := range rows {
		sum += r.d
	}
	rows = append(rows, reportRow{"bench.unattributed_s", "warm-up loops, GC between jobs, result checks", p.wall - sum})
	v["bench.unattributed_s"] = (p.wall - sum).Seconds()
	printReport(w, name, rows, p.wall, plainWall, plainPasses, len(traced), [][2]string{
		{"sim.translate_s", fmt.Sprintf("%.4f s (inside the wl.*.access_s rows)", tr.simTranslate.Seconds())},
		{"workload.requests", fmt.Sprintf("%d (repeat share %.4f)", tr.requests, v["workload.repeat_share"])},
		{"wl.batch_calls", fmt.Sprintf("%d (mean batch %.1f requests)", tr.batchCalls, v["wl.mean_batch"])},
		{"wl writes", fmt.Sprintf("swap %d, merge %d, table %d (overhead %.4f)", tr.swap, tr.merge, tr.table, v["wl.write_overhead"])},
		{"cmt/core", fmt.Sprintf("hit rate %.4f, merges %d, splits %d", v["cmt.hit_rate"], tr.merges, tr.splits)},
		{"nvm", fmt.Sprintf("writes %d, spares used %d", tr.nvmWrites, tr.sparesUsed)},
	})
}

type reportRow struct {
	name, what string
	d          time.Duration
}

// printReport prints a traced pass's breakdown: the rows are disjoint self
// times and sum to the traced wall_s.
func printReport(w io.Writer, name string, rows []reportRow, wall time.Duration, plainWall float64, plainPasses, tracedPasses int, notes [][2]string) {
	fmt.Fprintf(w, "== %s: traced pass with the median wall of %d; untraced median over %d ==\n", name, tracedPasses, plainPasses)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %10.4f s %6.1f%%  %s\n", r.name, r.d.Seconds(), 100*r.d.Seconds()/wall.Seconds(), r.what)
	}
	fmt.Fprintf(w, "  %-24s %10.4f s\n", "= traced wall_s", wall.Seconds())
	fmt.Fprintf(w, "  %-24s %10.4f s  (traced wall_s %.4f - untraced wall_s %.4f)\n",
		"bench.trace_overhead_s", wall.Seconds()-plainWall, wall.Seconds(), plainWall)
	for _, n := range notes {
		fmt.Fprintf(w, "  %-24s %s\n", n[0], n[1])
	}
}

func accessMetric(s nvmwear.SchemeKind) string {
	return "wl." + strings.ToLower(string(s)) + ".access_s"
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the middle value (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
