// Package sched is the cost-model-driven packing scheduler behind the
// synthesis service's worker pool. It maps the Wrapper/TAM
// rectangle-bin-packing line of SoC test scheduling onto synthesis jobs:
// heterogeneous tests with known wrapper costs packed onto constrained
// TAM width become heterogeneous jobs with cost priors packed onto
// cores × time. Three pieces cooperate:
//
//   - Estimator predicts a job's slot occupancy (core-seconds) from cheap
//     features — plan, corner-set cardinality, sink count — seeded with
//     priors derived from the committed BENCH_baseline.json snapshot and
//     refined online by per-class EWMAs over observed runtimes, so the
//     model calibrates itself to the host and workload.
//
//   - Pool packs admitted jobs onto a fixed number of slots. Grants are
//     deadline-aware (tickets whose soft deadline is in jeopardy go first,
//     earliest deadline wins) and otherwise shortest-estimate-first with
//     linear aging, so a long job keeps rising in rank while it waits and
//     nothing starves. Admission is bounded: beyond a waiting-count or an
//     estimated-queue-wait limit, Enqueue rejects (ErrSaturated,
//     BacklogError) so the caller can push back instead of queueing
//     unbounded work.
//
//   - Chunked is the sweep splitter. A big mc:<n> Monte Carlo job spends
//     nearly all its time in multi-corner CNE calls, so Chunked wraps the
//     accurate evaluator and splits every EvaluateCorners call into
//     corner chunks, cooperatively yielding the pool slot between chunks.
//     Each chunk is an independent schedulable unit; the chunk results are
//     reassembled by concatenation — the same per-corner result slice the
//     unsplit call produces, fed to the same eval.FromResults — so one
//     huge sweep interleaves with interactive traffic at chunk granularity.
//
// Why chunked yields rather than decomposing a sweep into per-corner
// sub-jobs: the optimization passes make decisions (slew-violation
// comparisons, reference/worst-corner CLR) over the metrics of *all*
// corners of a CNE, so corner subsets cannot be optimized independently
// and reassembled without changing results. Chunking the evaluation
// inside one synthesis run performs exactly the same simulations in the
// same order and only re-times when the worker slot is held, which is
// what makes split and unsplit runs bit-identical.
//
// Scheduling never changes results, only ordering and latency; nothing in
// this package participates in result-cache keys.
package sched
