// Command perfbench is the repository benchmark: what a caller pays for
// a verdict, end to end and layer by layer.
//
// Run it from the root of a checkout:
//
//	python3 perfbench/run.py --workload oneshot|scan|edit --seed N --seconds S --trace 0|1
//
// run.py builds cmd/rocksalt and this harness into .bench_build/ (Go
// build cache included, so the first run in a checkout compiles
// everything) and runs the harness. The harness builds a corpus from
// the seed, sets up, measures closed-loop requests with one client for
// S seconds, checks every verdict against its known answer, and prints
// the metrics, a provenance line and, last, one JSON result line. It
// drives the program only through the rocksalt binary and the public
// entry points of internal/core, internal/policy and internal/vcache.
// Results and spans are written to .bench_build/perfbench/.
//
// # Workloads
//
//   - oneshot: one fresh `rocksalt -json image` process per request,
//     default flags otherwise, over a ladder of 40 log-spaced image sizes
//     from 1 KiB to 4 MiB (nacl-32), a tenth of them with one planted
//     violation. Process start, table load and engine preparation are
//     paid on every verdict.
//   - scan: long-lived checkers for nacl-32 (embedded tables), nacl-16
//     and reins-16 (compiled at set-up with policy.Compile) verify 30
//     log-spaced images of 1 to 16 MiB with default VerifyOptions; three
//     rungs in five are nacl-32, densities cycle through low, medium and
//     high NOP padding, a tenth carry a violation, and a seeded quarter
//     of requests go through VerifyReader with a declared StreamSize.
//   - edit: a 64 MiB nacl-32 session with a 24 MiB vcache attached. Each
//     request applies one seeded bundle-aligned edit (one bundle to 256
//     KiB, an append one time in 32, a planted single-bundle violation
//     one time in ten that a later edit overwrites) and re-verifies by
//     VerifyDeltaContext; every fourth request a second consumer calls
//     VerifyContext with the same cache and no CacheKey instead.
//
// Every request carries a 30 s deadline; one past it, one that errors,
// and one whose verdict, outcome, first-violation offset or kind
// differs from the known answer is failed. A SAFE verdict on an image
// with a planted violation is a soundness failure: the run says so on
// standard error and exits 1 without a result line.
//
// # End-to-end metrics (--trace 0)
//
// A round visits every rung once (eight edits for edit); a block is a
// run of whole rounds with at least 100 requests. The figures are
// medians over blocks or rounds, so a host slowdown covering less than
// half a run does not move them.
//
//   - verdict_p50_ms, verdict_p90_ms: time to verdict per request, the
//     median over blocks of each block's percentile.
//   - throughput_mb_s: image MiB verified per second of request time,
//     the median over rounds.
//   - setup_s: median of five set-ups, from inputs built to the first
//     timed request. scan and edit memoize tables and compiles per
//     process, so four of their five set-ups run in fresh child
//     processes.
//   - peak_rss_mb: median over rounds of the peak RSS within the round:
//     the largest rocksalt child for oneshot, this process otherwise.
//
// failed_share (failed over attempted requests) is printed too; the
// result line carries it as "failed" and "attempted".
//
// # Per-layer metrics (--trace 1)
//
// The traced run measures the chosen workload untraced for a quarter of
// S and traced for half, the other two workloads traced for an eighth
// each, and runs a fresh-process probe of table load, policy compile
// and engine preparation. Spans (name, start, end, parent, request id)
// are recorded around each call into the program, kept in memory and
// written to spans-<workload>-seed<N>.json at the end. Stats fields are
// read through their JSON encoding, so a field the program drops
// leaves its metric out instead of failing the build. The metrics, by
// the end-to-end metric each should move:
//
//   - rocksalt.process_p50_ms, rocksalt.verify_p50_ms (-json elapsed_ns),
//     rocksalt.outside_verify_p50_ms, rocksalt.start_floor_ms (rocksalt
//     with no arguments, a usage exit): oneshot verdict_p50_ms.
//   - core.tables.first_checker_ms, core.tables.load_p50_ms,
//     core.tables.bundle_bytes: oneshot verdict_p50_ms; scan and edit
//     setup_s.
//   - policy.compile_ms.nacl-16, policy.compile_ms.reins-16,
//     core.checker_from_policy_ms: scan setup_s.
//   - core.engine.prep_ms (first verify of a 1 MiB image on a fresh
//     checker minus the median of the next nine): oneshot
//     verdict_p50_ms, scan setup_s.
//   - core.engine.stage1_mb_s, core.engine.stage1_share, and per stage-1
//     shard core.engine.restart_ratio, core.engine.scalar_fallback_ratio
//     and core.engine.swar_batch_ratio: scan throughput_mb_s and
//     verdict_p90_ms, oneshot throughput_mb_s.
//   - core.reconcile.stage2_p50_ms, core.reconcile.jumps_p50_ms (scan's
//     in-memory verifies): edit verdict_p50_ms, a few percent of scan.
//   - core.stream.verify_p50_ms, core.stream.mb_s: scan verdict_p90_ms,
//     throughput_mb_s and peak_rss_mb.
//   - core.delta.round_p50_ms, core.delta.round_p90_ms,
//     core.delta.stage1_p50_ms, core.delta.stage2_p50_ms,
//     core.delta.chunks_reparsed and core.delta.chunks_replayed (per
//     round), core.delta.reparse_amplification (bytes re-parsed over
//     bytes edited), core.delta.init_ms: edit verdict_p50_ms and setup_s.
//   - core.cache.verify_p50_ms, core.cache.chunk_hit_ratio,
//     core.cache.bytes_saved_ratio, vcache.hits, vcache.misses,
//     vcache.evictions, vcache.bytes (Counters at the end of the edit
//     phase): edit verdict_p90_ms and peak_rss_mb.
//   - trace.overhead_p50_ms: traced minus untraced p50 of the chosen
//     workload.
//   - trace.self_p50_ms.<span>: median self time (duration minus child
//     spans) of the request-path spans request, rocksalt.process,
//     core.verify, core.stream.verify, core.delta.round,
//     core.cache.verify, bench.edit and bench.check.
//
// # Corpus
//
// Inputs are a pure function of the seed and this directory's files: no
// call into internal/nacl or internal/grammar. Compliance holds by
// construction (see corpus.go) and each violation is a local splice
// with a known first offset and kind. Every run prints a SHA-256 corpus
// digest per workload it built; `go test` in this directory checks a
// fixed-seed corpus against the independent internal/ncval checker.
//
// # Provenance
//
// Every result records the commit (when the checkout is a git work
// tree), a digest of the program sources, the seed, the corpus digests,
// nproc, GOMAXPROCS, the CPU model, the Go version and the sample count
// behind every percentile and median.
package main
