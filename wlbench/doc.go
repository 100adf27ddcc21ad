// Command wlbench is the repository's benchmark: it measures the host time
// the nvmwear simulator costs a user on four workloads, checks that every
// simulated result is exact, and, in a separate traced run, splits that
// host time across the simulator's layers.
//
// Run it from the repository root through run.sh, which builds it from
// source first:
//
//	bash wlbench/run.sh --workload spec_lifetime --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones (wall_s, setup_s, peak_rss_mb); with --trace 1 they
// are the per-layer ones, and a breakdown of the traced pass is printed
// above the result. A line starting "host" records the CPU model, nproc,
// GOMAXPROCS, Go version, commit and a digest of the Go sources: a number
// measured on another host or another tree is not a baseline.
//
// # Workloads
//
// Every simulation job runs one at a time through exec.Map with one worker,
// and the serve workload uses one client and one server worker, which
// leaves the second of the reference host's two vCPUs to the garbage
// collector and the runtime. Figures below were measured on a 2-vCPU
// Intel Xeon VM with Go 1.24.
//
//   - spec_lifetime is Fig 16a's job list: Baseline, RBSG, TLSR and SAWL
//     over the 14 SPEC profiles at ScaleTiny, each run to device death. It
//     is the paper's headline experiment and the costliest figure (about
//     6 s a pass). At most 0.1% of SPEC requests repeat the previous
//     (op, lma) (the traced run reports 0.0007), so batches fold almost
//     nothing, every request takes the scheme's per-request path, and the
//     Zipf and stride generators do real work: the stream is 58% of the
//     traced pass. SAWL does not adapt here: at ScaleTiny its 256-entry
//     CMT covers every region (hit rate 0.9999) and no observation window
//     completes, so core.merges and core.splits read 0. It judges
//     ROADMAP.md item 1's IMT relocation work (wl.sawl.access_s) and any
//     generator speed-up (workload.fill_s).
//   - bpa_catalogue runs the BPA attack to device death on all 11 schemes
//     with two seeds, in the attack experiment's geometry at ScaleSmall
//     (4096 lines, endurance 2500, period 8). BPA keeps 64 repeats per
//     address, so 63 of 64 requests (0.984) repeat their predecessor:
//     batch folding and nvm.WriteRun span arithmetic do the work while the
//     generator does almost none. It is the only workload that runs
//     segswap, startgap, PCM-S, MWSR, softwear and WoLFRaM. One seed takes
//     about 1.9 s, of which MWSR takes 26% and segswap 12%; in the default
//     geometry (4-line segments, period 128, endurance 10000) segswap takes
//     22% of a 5.3 s seed and MWSR 37%. It judges ROADMAP.md item 2, one
//     folding loop for every scheme (wl.batch_calls, wl.mean_batch).
//   - spec_ipc is Fig 17's job list: Baseline, PCM-S, NWL and SAWL over
//     the 14 SPEC profiles, each warmed up on its stream and then timed
//     through sim.Run, with 2^22-line systems. It is the only workload
//     where sim runs, and the only one where translation is mostly reads:
//     a CMT lookup on every request and no wear-out. Fig 17 runs sim with
//     its L2 model off, so L2HitRate reads 0 and internal/cache is not
//     exercised. Building one 2^22-line system takes 4 to 27 ms (PCM-S to
//     Baseline), about 0.4 s for the job list, so setup_s and peak_rss_mb
//     move here and hardly anywhere else. Its windows are scaled to the
//     run, so SAWL's merges run (about 465 000 a pass, no splits) and the
//     CMT misses (hit rate 0.56). It judges item 1's CMT index and IMT
//     fast path from the read side (wl.nwl.access_s, wl.sawl.access_s,
//     sim.translate_s).
//   - serve_sweeps runs wlsim serve in-process on loopback. One
//     closed-loop client, a researcher waiting on each result, submits
//     100 runs of fig13 at tiny scale (four fixed-length SAWL trace runs,
//     about 0.25 s a run) with distinct seeds, follows each over SSE until
//     it is done and fetches output.txt; then it resubmits every spec, and
//     all of them are served from the store. It runs these 200 runs
//     whatever --seconds says, because its p90 needs 100 samples. It is
//     the only workload that runs exec with a store, store puts and gets,
//     serve admission, SSE, HTTP and nvmwear.Driver's render. The store
//     lives under the checkout's .bench_build directory, so each put's
//     two fsyncs reach the disk the checkout is on, about 1 ms a put on
//     the reference host. fig13 was chosen because its four puts weigh
//     little against its compute; fig15's 24 puts against 50 ms of
//     compute put a third of its runs' time into fsync (7.3 to 8.0 s on
//     disk against 4.8 to 5.0 s with the store on tmpfs). It judges
//     ROADMAP.md item 4's service observability work.
//
// # Metrics
//
// End-to-end metrics are host time measured with tracing off, through
// the calls a library user makes: nvmwear.NewSystem with
// System.RunLifetime, Fig 17's warm-started timing run, and serve.New over
// HTTP.
//
//   - wall_s is from the first job dispatched to the last result checked:
//     the median over passes of the whole job list on the simulation
//     workloads, and both phases of client runs on serve_sweeps.
//   - setup_s is building every job's system and stream (NewSystem, then
//     WorkloadSpec.Build), summed over the job list: each job's build is
//     timed many times, in rounds between the passes, and its median
//     counts; every build starts with the heap's free memory returned to
//     the OS, as in a fresh process. On serve_sweeps it is serve.New plus
//     Start, as the median of 51 start-stop probes spread over the cold
//     phase. The probes run without a store: opening one writes a
//     lockfile, and on the reference host's shared disk that start
//     climbed from 0.3 to 0.9 ms over ten consecutive runs as their
//     fsyncs accumulated. Either way the timings are spread over the run
//     because the host has busy spells of a few seconds, and a set-up
//     timed in one burst read up to four times its usual value.
//   - peak_rss_mb is the peak resident set of the process, which runs one
//     workload alone.
//
// Every end-to-end metric is printed on every workload, so the metrics
// that exist on only some of them are per-layer metrics:
// sim_mreq_per_s (simulated requests per host second of wall_s on the
// simulation workloads) and serve_sweeps' submit_done_p50_ms,
// submit_done_p90_ms (cold runs, 100 samples, ten beyond the p90) and
// warm_done_p50_ms (the warm phase).
//
// Three metric shapes made an earlier benchmark of this repository too
// noisy to gate on, and none of them is an end-to-end metric here:
//
//   - a percentile with fewer than ten samples beyond it;
//   - one distribution that mixes job classes whose costs differ by about
//     10x, such as serve jobs that are cache hits and misses;
//   - a lone sub-millisecond timer.
//
// # The traced run
//
// With --trace 1, half the budget runs untraced passes and half runs
// traced ones. A traced pass rebuilds the same jobs from the layer
// constructors (nvm.New, each scheme package's New or core.New,
// WorkloadSpec.Build) and calls lifetime.Run or sim.Run with thin timing
// wrappers around the stream (Next, NextBatch) and the scheme (Access,
// AccessBatch, Advance). The wrappers forward every other method and are
// batch-capable exactly when the wrapped value is, so the loops take the
// same path as untraced; each traced outcome must equal the untraced one.
// A time.Now pair costs about 170 ns on the reference host, as much as a
// single Access, so per-request calls are timed one in 16 at random and
// scaled up, and every timed interval is corrected for the clock's own
// cost.
//
// Per-layer metrics, and the end-to-end metric each should move:
//
//   - workload.fill_s (stream time; wall_s on spec_lifetime and spec_ipc,
//     about nothing on bpa_catalogue), workload.requests and
//     workload.repeat_share (the property batch folding needs).
//   - wl.<scheme>.access_s per scheme, including the nvm, cmt, imt and gtd
//     work each call triggers (wall_s wherever the scheme runs);
//     wl.batch_calls and wl.mean_batch (wall_s on bpa_catalogue);
//     wl.swap_writes, wl.merge_writes, wl.table_writes and
//     wl.write_overhead, which a change that only speeds up the simulator
//     must leave identical.
//   - cmt.hit_rate, core.merges and core.splits: counts that item 1's
//     CMT and IMT work must leave unchanged while lowering
//     wl.sawl.access_s and wl.nwl.access_s.
//   - nvm.writes and nvm.spares_used: counts. Device host time stays
//     inside wl.*.access_s until the program has spans of its own.
//   - lifetime.self_s: lifetime.Run minus the stream and scheme time it
//     caused (epoch slicing, countWrites, the final Gini and Stats; wall_s
//     on bpa_catalogue and spec_lifetime).
//   - sim.translate_s (scheme time inside sim.Run, already inside
//     wl.*.access_s) and sim.self_s (the rest of sim.Run minus stream
//     time; nonzero only on spec_ipc).
//   - exec.jobs and exec.overhead_s (exec.Map wall minus summed job
//     time). On serve_sweeps the pool runs inside the server, where the
//     benchmark cannot time its jobs, so its overhead is inside
//     serve.run_ms and exec.overhead_s reads 0.
//   - store.hits and store.misses from each serve run's cache summary
//     (warm_done_p50_ms); serve.queue_wait_ms, serve.run_ms and
//     serve.client_ms, medians over the cold runs of startedAt-queuedAt,
//     finishedAt-startedAt, and the client's submit-to-done time minus
//     queuedAt-to-finishedAt: HTTP, JSON and SSE (submit_done_p50_ms).
//   - bench.setup_s, bench.trace_probe_s (the stream wrapper's own repeat
//     counting), bench.unattributed_s and bench.traced_wall_s: the
//     breakdown's rows are disjoint self times that, with unattributed,
//     sum to the traced wall_s. bench.trace_overhead_s is the traced
//     wall_s minus the untraced one; serve_sweeps has no wrappers, so its
//     traced and untraced pass are the same pass.
//
// # Correctness
//
// Every job is an attempted operation, and so is every HTTP call and every
// serve run. An operation fails when an HTTP call fails, a run does not end
// done, a lifetime run does not reach device death, or a job's outcome
// differs: from testdata/golden.json for the default seed 7 (the lifetime
// figures' Served, Normalized, WriteOverhead, WearGini and HitRate, Fig
// 17's IPC, L2HitRate and TransOverhead, and a digest of each serve run's
// output), from the first pass for later passes, and from the untraced
// outcome for traced ones. A run with another seed first reruns every
// eighth job of the default seed's job list (serve_sweeps: its first
// three runs, after the timed phases) against the recorded outcomes, so
// a defect that moves simulated results fails every run, whatever its
// seed. Warm serve runs must hit the store for every
// job and render the cold run's output byte for byte. Regenerate the
// golden file after a change that is meant to move simulated results with
//
//	go test -run TestGolden -update
package main
