package main

import (
	"fmt"
	"reflect"
	"unsafe"

	"nvmwear"
	"nvmwear/internal/lifetime"
	"nvmwear/internal/sim"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
)

// A job is one simulation: a system configuration plus the workload driven
// through it, either to device death (lifetime) or for a fixed number of
// requests (timing).
type job struct {
	label string
	cfg   nvmwear.SystemConfig
	work  nvmwear.WorkloadSpec
	// poolSeed makes the job take the seed exec.Map derives for its index,
	// as the lifetime sweeps do. Otherwise cfg and work carry a fixed seed:
	// Fig 17 measures every scheme on one request stream.
	poolSeed bool
	timing   *timing // nil: a lifetime run to device death
}

// timing is Fig 17's measurement: warm the scheme up on the stream
// untimed, then simulate the next requests through the timing model.
type timing struct {
	warmup, requests   uint64
	globalSwapBlocking bool
}

// seeded returns the job's configuration and workload for a pool seed.
func (j job) seeded(seed uint64) (nvmwear.SystemConfig, nvmwear.WorkloadSpec) {
	cfg, w := j.cfg, j.work
	if j.poolSeed {
		cfg.Seed, w.Seed = seed, seed
	}
	return cfg, w
}

// outcome is a job's simulated result. Two runs of one job agree when
// their outcomes are deeply equal; host time never enters it.
type outcome struct {
	Life     lifetime.Result // Elapsed zeroed
	Timing   sim.Result
	Requests uint64 // requests simulated: demand requests served, or warm-up plus timed requests
}

func lifeOutcome(res lifetime.Result) outcome {
	res.Elapsed = 0
	return outcome{Life: res, Requests: res.SchemeStats.DataWrites + res.SchemeStats.DataReads}
}

// specLifetimeJobs is Fig 16a's job list (RunFig16 with coarse regions):
// Baseline, RBSG, TLSR and SAWL over the 14 SPEC profiles, scheme-major,
// each run to device death.
func specLifetimeJobs(sc nvmwear.Scale) []job {
	regions := max(sc.SpecLines/64, 4)
	var jobs []job
	for _, scheme := range []nvmwear.SchemeKind{nvmwear.Baseline, nvmwear.RBSG, nvmwear.TLSR, nvmwear.SAWL} {
		for _, name := range nvmwear.SpecBenchmarks() {
			cfg := nvmwear.SystemConfig{
				Scheme: scheme, Lines: sc.SpecLines, SpareLines: sc.SpecLines / sc.SpareFrac,
				Endurance: sc.SpecEndurance, Period: sc.SpecPeriod,
				Regions: regions, InitGran: sc.SpecLines / regions, CMTEntries: sc.CMTEntries,
			}
			if scheme == nvmwear.SAWL {
				cfg.InitGran = 8
			}
			jobs = append(jobs, job{
				label: fmt.Sprintf("%s/%s", scheme, name), cfg: cfg, poolSeed: true,
				work: nvmwear.WorkloadSpec{Kind: nvmwear.WorkloadSPEC, Name: name},
			})
		}
	}
	return jobs
}

// bpaCatalogueJobs runs BPA to device death on every scheme of the
// catalogue, once per seed, in the `attack` experiment's device geometry.
// BPA keeps its default 64 repeats per address, so 63 of every 64
// requests repeat their predecessor.
func bpaCatalogueJobs(sc nvmwear.Scale, seeds int) []job {
	var jobs []job
	for s := 0; s < seeds; s++ {
		for _, scheme := range nvmwear.Schemes() {
			jobs = append(jobs, job{
				label: fmt.Sprintf("%s/seed%d", scheme, s), poolSeed: true,
				cfg: nvmwear.SystemConfig{
					Scheme: scheme, Lines: sc.AttackLines, SpareLines: sc.AttackLines / sc.SpareFrac,
					Endurance: sc.AttackEndurance, Period: 8,
					RegionLines: 64, Regions: 16, InitGran: 4, CMTEntries: sc.CMTEntries,
				},
				work: nvmwear.WorkloadSpec{Kind: nvmwear.WorkloadBPA},
			})
		}
	}
	return jobs
}

// specIPCJobs is Fig 17's job list (RunFig17): a no-wear-leveling
// baseline row, then PCM-S (the paper's BWL), NWL-4 and SAWL rows, each
// over the 14 SPEC profiles, all on sc.Seed's request stream.
func specIPCJobs(sc nvmwear.Scale) []job {
	requests := sc.Requests / 4
	var jobs []job
	for _, scheme := range []nvmwear.SchemeKind{nvmwear.Baseline, nvmwear.PCMS, nvmwear.NWL, nvmwear.SAWL} {
		for _, name := range nvmwear.SpecBenchmarks() {
			cfg := nvmwear.SystemConfig{
				Scheme: scheme, Lines: sc.TraceLines / 4, SpareLines: 1, Endurance: 1 << 30,
				Period: 128, CMTEntries: sc.CMTEntries, Seed: sc.Seed,
				ObservationWindow: requests / 256, SettlingWindow: requests / 256,
			}
			if scheme == nvmwear.PCMS || scheme == nvmwear.NWL {
				cfg.RegionLines, cfg.InitGran = 4, 4
			}
			if scheme == nvmwear.PCMS {
				cfg.Period = 16
			}
			jobs = append(jobs, job{
				label: fmt.Sprintf("%s/%s", scheme, name), cfg: cfg,
				work:   nvmwear.WorkloadSpec{Kind: nvmwear.WorkloadSPEC, Name: name, Seed: sc.Seed},
				timing: &timing{warmup: sc.Requests, requests: requests, globalSwapBlocking: scheme == nvmwear.PCMS},
			})
		}
	}
	return jobs
}

// runPlain runs a job through the entry points a library user calls:
// nvmwear.NewSystem, then System.RunLifetime or Fig 17's timing run.
func runPlain(j job, seed uint64) (outcome, error) {
	cfg, w := j.seeded(seed)
	sys, err := nvmwear.NewSystem(cfg)
	if err != nil {
		return outcome{}, err
	}
	if j.timing == nil {
		res, err := sys.RunLifetime(w, 0)
		return lifeOutcome(res), err
	}
	stream, name, err := w.Build(sys.Lines())
	if err != nil {
		return outcome{}, err
	}
	lv := levelerOf(sys)
	warmUp(lv, stream, j.timing.warmup)
	res := sim.Run(lv, stream, simConfig(name, *j.timing))
	return outcome{Timing: res, Requests: j.timing.warmup + j.timing.requests}, nil
}

// warmUp applies n requests untimed, as Fig 17 does before measuring:
// caches fill and SAWL's granularity adaptation converges.
func warmUp(lv wl.Leveler, stream trace.Stream, n uint64) {
	for i := uint64(0); i < n; i++ {
		r := stream.Next()
		lv.Access(r.Op, r.Addr)
	}
}

// simConfig is Fig 17's timing-model configuration for one benchmark.
func simConfig(name string, t timing) sim.Config {
	instr, ok := sim.InstrPerMemReq[name]
	if !ok {
		instr = 30
	}
	return sim.Config{Requests: t.requests, InstrPerMemReq: instr, GlobalSwapBlocking: t.globalSwapBlocking}
}

// levelerOf returns the scheme a System drives. System keeps it
// unexported and offers no call that continues a warmed-up stream or sets
// GlobalSwapBlocking, both of which Fig 17's timing run needs, so the
// field is read directly. TestLevelerOf pins the field's name and type.
func levelerOf(sys *nvmwear.System) wl.Leveler {
	f := reflect.ValueOf(sys).Elem().FieldByName("lv")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*wl.Leveler)(nil)).Elem() {
		panic("wlbench: nvmwear.System no longer holds its scheme in field lv")
	}
	return *(*wl.Leveler)(unsafe.Pointer(f.UnsafeAddr()))
}
