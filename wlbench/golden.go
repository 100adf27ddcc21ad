package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJob is the part of a job's outcome recorded for the default seed:
// the lifetime figures' Served, Normalized, WriteOverhead, WearGini and
// HitRate, or Fig 17's IPC, L2HitRate and TransOverhead.
type goldenJob struct {
	Label         string  `json:"label"`
	Served        uint64  `json:"served,omitempty"`
	Normalized    float64 `json:"normalized,omitempty"`
	WriteOverhead float64 `json:"write_overhead,omitempty"`
	WearGini      float64 `json:"wear_gini,omitempty"`
	HitRate       float64 `json:"hit_rate,omitempty"`
	IPC           float64 `json:"ipc,omitempty"`
	L2HitRate     float64 `json:"l2_hit_rate,omitempty"`
	TransOverhead float64 `json:"trans_overhead,omitempty"`
}

func goldenOf(j job, o outcome) goldenJob {
	if j.timing != nil {
		return goldenJob{Label: j.label, IPC: o.Timing.IPC, L2HitRate: o.Timing.L2HitRate, TransOverhead: o.Timing.TransOverhead}
	}
	r := o.Life
	return goldenJob{
		Label: j.label, Served: r.Served, Normalized: r.Normalized,
		WriteOverhead: r.WriteOverhead, WearGini: r.WearGini, HitRate: r.HitRate,
	}
}

// goldenFile is testdata/golden.json: every job's recorded outcome for the
// default seed, and the digest of each serve_sweeps run's output.txt.
type goldenFile struct {
	Jobs  map[string][]goldenJob `json:"jobs"`
	Serve []string               `json:"serve_output_sha256"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("wlbench: testdata/golden.json: %v", err))
	}
	return g
}()

// goldenFor returns a workload's recorded job outcomes, or nil when the
// seed has none.
func goldenFor(name string, seed uint64) []goldenJob {
	if seed != defaultSeed {
		return nil
	}
	return golden.Jobs[name]
}
