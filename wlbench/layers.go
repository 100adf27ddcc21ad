package main

import (
	"fmt"
	"time"

	"nvmwear"
	"nvmwear/internal/core"
	"nvmwear/internal/lifetime"
	"nvmwear/internal/nvm"
	"nvmwear/internal/sim"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
	"nvmwear/internal/wl/mwsr"
	"nvmwear/internal/wl/pcms"
	"nvmwear/internal/wl/secref"
	"nvmwear/internal/wl/segswap"
	"nvmwear/internal/wl/softwear"
	"nvmwear/internal/wl/startgap"
	"nvmwear/internal/wl/wolfram"
)

// tracer accumulates one traced pass's per-layer host time and counts.
// The benchmark runs one job at a time, so it needs no locking: exec.Map
// returns only after the worker that wrote it has finished.
type tracer struct {
	setup        time.Duration // building devices, schemes and streams
	fill         time.Duration // inside stream Next/NextBatch
	access       map[nvmwear.SchemeKind]time.Duration
	lifetimeSelf time.Duration // lifetime.Run minus the fill and access it caused
	simTranslate time.Duration // scheme time inside sim.Run
	simSelf      time.Duration // sim.Run minus translation and fill

	probe time.Duration // the wrappers' own repeat counting in NextBatch

	requests, repeats     uint64 // generated; equal to their predecessor
	batchCalls, batchReqs uint64
	rnd                   uint64        // xorshift state behind sampled
	bias                  time.Duration // what an empty time.Now interval reads

	data, swap, merge, table uint64 // wl.Stats, summed over jobs
	cmtHits, cmtMisses       uint64
	merges, splits           uint64 // core.Scheme adaptation
	nvmWrites, sparesUsed    uint64
}

// newTracer returns an empty tracer with its clock bias measured.
func newTracer() *tracer {
	tr := &tracer{access: map[nvmwear.SchemeKind]time.Duration{}, rnd: 0x9e3779b97f4a7c15}
	const n = 1 << 14
	var empty time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		empty += time.Since(t)
	}
	tr.bias = empty / n
	return tr
}

// since is the time from start, less the clock's own share of it.
func (tr *tracer) since(start time.Time) time.Duration {
	return max(time.Since(start)-tr.bias, 0)
}

// sampleEvery is the inverse sampling rate of per-request calls (Next,
// Access, Advance). A time.Now pair costs about 170 ns on the reference
// host, as much as the calls it would time, so one call in sampleEvery,
// drawn at random, is timed and counted sampleEvery times. Per-batch calls
// (NextBatch, AccessBatch) are always timed.
const sampleEvery = 16

// sampled reports whether to time the current per-request call.
func (tr *tracer) sampled() bool {
	tr.rnd ^= tr.rnd << 13
	tr.rnd ^= tr.rnd >> 7
	tr.rnd ^= tr.rnd << 17
	return tr.rnd%sampleEvery == 0
}

// runJob rebuilds j from the layer constructors, runs it through
// lifetime.Run or sim.Run with the stream and scheme wrapped in timers, and
// returns the same outcome runPlain gives for (j, seed).
func (tr *tracer) runJob(j job, seed uint64) (outcome, error) {
	cfg, w := j.seeded(seed)
	cfg = withDefaults(cfg)
	start := time.Now()
	dev, lv, err := buildSystem(cfg)
	if err != nil {
		return outcome{}, err
	}
	stream, name, err := w.Build(cfg.Lines)
	if err != nil {
		return outcome{}, err
	}
	tr.setup += time.Since(start)

	tl := tr.leveler(lv, cfg.Scheme)
	ts := tr.stream(stream)
	var out outcome
	if j.timing == nil {
		fill, access, probe := tr.fill, tr.access[cfg.Scheme], tr.probe
		start = time.Now()
		res := lifetime.Run(dev, tl, ts, lifetime.Options{Workload: name})
		tr.lifetimeSelf += time.Since(start) - (tr.fill - fill) - (tr.access[cfg.Scheme] - access) - (tr.probe - probe)
		out = lifeOutcome(res)
	} else {
		warmUp(tl, ts, j.timing.warmup)
		fill, access := tr.fill, tr.access[cfg.Scheme]
		start = time.Now()
		res := sim.Run(tl, ts, simConfig(name, *j.timing))
		translate := tr.access[cfg.Scheme] - access
		tr.simTranslate += translate
		tr.simSelf += time.Since(start) - translate - (tr.fill - fill)
		out = outcome{Timing: res, Requests: j.timing.warmup + j.timing.requests}
	}

	st := lv.Stats()
	tr.data += st.DataWrites
	tr.swap += st.SwapWrites
	tr.merge += st.MergeWrites
	tr.table += st.TableWrites
	tr.cmtHits += st.CMTHits
	tr.cmtMisses += st.CMTMisses
	if c, ok := lv.(*core.Scheme); ok {
		tr.merges += c.Merges()
		tr.splits += c.Splits()
	}
	ds := dev.Stats()
	tr.nvmWrites += ds.TotalWrites
	tr.sparesUsed += ds.SparesUsed
	return out, nil
}

// withDefaults fills the zero fields nvmwear.NewSystem fills, so the layer
// constructors see the configuration NewSystem would hand them.
// TestTracedMatchesPlain fails if the two drift apart.
func withDefaults(c nvmwear.SystemConfig) nvmwear.SystemConfig {
	def := func(v *uint64, d uint64) {
		if *v == 0 {
			*v = d
		}
	}
	if c.Scheme == "" {
		c.Scheme = nvmwear.SAWL
	}
	def(&c.Lines, 1<<16)
	def(&c.SpareLines, c.Lines/64)
	if c.Endurance == 0 {
		c.Endurance = 10000
	}
	def(&c.RegionLines, 4)
	def(&c.Regions, 1024)
	def(&c.Period, 128)
	def(&c.OuterPeriod, 32)
	def(&c.SamplePeriod, 8)
	def(&c.InitGran, 4)
	def(&c.MaxGranLines, 256)
	if c.CMTEntries == 0 {
		c.CMTEntries = 32768
	}
	if c.Fault.Enabled() && c.Fault.Seed == 0 {
		c.Fault.Seed = c.Seed
	}
	return c
}

// buildSystem constructs a defaulted configuration's device and scheme
// from the layer constructors, as nvmwear.NewSystem does.
func buildSystem(cfg nvmwear.SystemConfig) (*nvm.Device, wl.Leveler, error) {
	coreCfg := core.Config{
		Lines: cfg.Lines, InitGran: cfg.InitGran, MaxGranLines: cfg.MaxGranLines,
		Period: cfg.Period, CMTEntries: cfg.CMTEntries, Adaptive: cfg.Scheme == nvmwear.SAWL,
		LowThreshold: cfg.LowThreshold, HighThreshold: cfg.HighThreshold,
		SubQueueThreshold: cfg.SubQueueThreshold, ObservationWindow: cfg.ObservationWindow,
		SettlingWindow: cfg.SettlingWindow, CheckEvery: cfg.CheckEvery,
		Seed: cfg.Seed, Fault: cfg.Fault, OnSample: cfg.OnSample,
	}
	extra := uint64(0)
	switch cfg.Scheme {
	case nvmwear.StartGap:
		extra = 1
	case nvmwear.RBSG:
		extra = cfg.Regions
	case nvmwear.NWL, nvmwear.SAWL:
		extra = coreCfg.DeviceLines() - cfg.Lines
	}
	var wear nvm.WearModel
	if cfg.Wear != "" {
		var err error
		if wear, err = nvm.WearModelByName(cfg.Wear); err != nil {
			return nil, nil, err
		}
	}
	dev := nvm.New(nvm.Config{
		Lines: cfg.Lines + extra, SpareLines: cfg.SpareLines, Endurance: cfg.Endurance,
		Variation: cfg.Variation, Wear: wear, Seed: cfg.Seed, TrackData: cfg.TrackData,
		Fault: cfg.Fault, ECCBits: cfg.ECCBits, WriteRetries: cfg.WriteRetries,
	})
	var lv wl.Leveler
	switch cfg.Scheme {
	case nvmwear.Baseline:
		lv = wl.NewIdentity(dev)
	case nvmwear.SegmentSwap:
		lv = segswap.New(dev, segswap.Config{Lines: cfg.Lines, SegmentLines: cfg.RegionLines, Period: cfg.Period})
	case nvmwear.StartGap:
		lv = startgap.New(dev, startgap.Config{Lines: cfg.Lines, Regions: 1, Period: cfg.Period})
	case nvmwear.RBSG:
		lv = startgap.New(dev, startgap.Config{Lines: cfg.Lines, Regions: cfg.Regions, Period: cfg.Period})
	case nvmwear.TLSR:
		lv = secref.New(dev, secref.Config{
			Lines: cfg.Lines, Regions: cfg.Regions,
			InnerPeriod: cfg.Period, OuterPeriod: cfg.OuterPeriod, Seed: cfg.Seed,
		})
	case nvmwear.PCMS:
		lv = pcms.New(dev, pcms.Config{Lines: cfg.Lines, RegionLines: cfg.RegionLines, Period: cfg.Period, Seed: cfg.Seed})
	case nvmwear.MWSR:
		lv = mwsr.New(dev, mwsr.Config{Lines: cfg.Lines, RegionLines: cfg.RegionLines, Period: cfg.Period, Seed: cfg.Seed})
	case nvmwear.NWL, nvmwear.SAWL:
		lv = core.New(dev, coreCfg)
	case nvmwear.SoftWear:
		lv = softwear.New(dev, softwear.Config{
			Lines: cfg.Lines, PageLines: cfg.RegionLines,
			SamplePeriod: cfg.SamplePeriod, Trigger: cfg.Period,
		})
	case nvmwear.WoLFRaM:
		lv = wolfram.New(dev, wolfram.Config{Lines: cfg.Lines, Period: cfg.Period, Seed: cfg.Seed})
	default:
		return nil, nil, fmt.Errorf("unknown scheme %q", cfg.Scheme)
	}
	return dev, lv, nil
}

// leveler wraps lv so its Access, AccessBatch and Advance time lands in
// the scheme's bucket. The wrapper is a BatchLeveler exactly when lv is,
// so lifetime.Run takes the same path it takes on the bare scheme.
func (tr *tracer) leveler(lv wl.Leveler, scheme nvmwear.SchemeKind) wl.Leveler {
	t := timedLeveler{lv: lv, tr: tr, scheme: scheme}
	if bl, ok := lv.(wl.BatchLeveler); ok {
		return timedBatchLeveler{t, bl}
	}
	return t
}

type timedLeveler struct {
	lv     wl.Leveler
	tr     *tracer
	scheme nvmwear.SchemeKind
}

func (t timedLeveler) Access(op trace.Op, lma uint64) uint64 {
	if !t.tr.sampled() {
		return t.lv.Access(op, lma)
	}
	start := time.Now()
	pma := t.lv.Access(op, lma)
	t.tr.access[t.scheme] += sampleEvery * t.tr.since(start)
	return pma
}

func (t timedLeveler) Translate(lma uint64) uint64 { return t.lv.Translate(lma) }
func (t timedLeveler) Lines() uint64               { return t.lv.Lines() }
func (t timedLeveler) Name() string                { return t.lv.Name() }
func (t timedLeveler) Stats() wl.Stats             { return t.lv.Stats() }
func (t timedLeveler) OverheadBits() uint64        { return t.lv.OverheadBits() }

type timedBatchLeveler struct {
	timedLeveler
	bl wl.BatchLeveler
}

func (t timedBatchLeveler) AccessBatch(ops []trace.Op, addrs []uint64) int {
	start := time.Now()
	n := t.bl.AccessBatch(ops, addrs)
	t.tr.access[t.scheme] += t.tr.since(start)
	t.tr.batchCalls++
	t.tr.batchReqs += uint64(n)
	return n
}

func (t timedBatchLeveler) Advance(k int) int {
	if !t.tr.sampled() {
		return t.bl.Advance(k)
	}
	start := time.Now()
	n := t.bl.Advance(k)
	t.tr.access[t.scheme] += sampleEvery * t.tr.since(start)
	return n
}

// stream wraps s so its Next and NextBatch time lands in the fill bucket
// and every generated request is counted. The wrapper is a BatchStream
// exactly when s is, so trace.FillBatch takes the same path.
func (tr *tracer) stream(s trace.Stream) trace.Stream {
	t := &timedStream{s: s, tr: tr}
	if bs, ok := s.(trace.BatchStream); ok {
		return timedBatchStream{t, bs}
	}
	return t
}

type timedStream struct {
	s      trace.Stream
	tr     *tracer
	last   trace.Request
	primed bool // last holds a request
}

func (t *timedStream) Next() trace.Request {
	var r trace.Request
	if t.tr.sampled() {
		start := time.Now()
		r = t.s.Next()
		t.tr.fill += sampleEvery * t.tr.since(start)
	} else {
		r = t.s.Next()
	}
	// Count the request and whether it repeats the previous (op, lma),
	// the property batch folding exploits.
	if t.primed && r == t.last {
		t.tr.repeats++
	}
	t.tr.requests++
	t.last, t.primed = r, true
	return r
}

type timedBatchStream struct {
	*timedStream
	bs trace.BatchStream
}

func (t timedBatchStream) NextBatch(ops []trace.Op, addrs []uint64) int {
	start := time.Now()
	n := t.bs.NextBatch(ops, addrs)
	mid := time.Now()
	t.tr.fill += max(mid.Sub(start)-t.tr.bias, 0)
	if n == 0 {
		return 0
	}
	if t.primed && ops[0] == t.last.Op && addrs[0] == t.last.Addr {
		t.tr.repeats++
	}
	for i := 1; i < n; i++ {
		if ops[i] == ops[i-1] && addrs[i] == addrs[i-1] {
			t.tr.repeats++
		}
	}
	t.tr.requests += uint64(n)
	t.last, t.primed = trace.Request{Op: ops[n-1], Addr: addrs[n-1]}, true
	t.tr.probe += time.Since(mid)
	return n
}

var (
	_ wl.BatchLeveler   = timedBatchLeveler{}
	_ trace.BatchStream = timedBatchStream{}
)
