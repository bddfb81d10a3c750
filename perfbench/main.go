// Command perfbench is the repository benchmark. It runs one named
// workload against the contango library inside this process: it sets the
// workload up from a seed, runs as many fixed rounds of timed work as fit
// in the time budget at the workload's nominal round length, checks every
// result it produced, and prints a metric table followed by one JSON
// summary line. run.py builds it from source and runs it from the
// repository root:
//
//	python3 perfbench/run.py --workload contest --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the summary holds the end-to-end metrics BENCHMARK.json
// lists; with --trace 1 it holds the per-layer metrics, measured from
// spans recorded around the library's public hooks on alternate rounds,
// and a Chrome trace of the workload is written under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workDir holds everything a run writes: service data directories, the
// checkout's reference digests and the traces.
var workDir = filepath.Join(".bench_build", "perfbench")

// shippedRefs holds the reference digests that pin results across commits.
var shippedRefs = filepath.Join("perfbench", "digests.json")

// instance is one set-up workload.
type instance interface {
	// round runs one fixed unit of timed work. Jobs hang their spans
	// under parent, which is nil on untraced rounds.
	round(r *runner, parent *span) error
	close()
}

// counterSource is implemented by instances with program counters (the
// service's registry); the traced run reports their growth per round.
type counterSource interface {
	counters() map[string]float64
}

// workload names a generator of instances.
type workload struct {
	name   string
	setups int     // set-ups per run; setup_s is their median
	round  float64 // nominal seconds of one round, which size a run
	seeded bool    // inputs depend on the seed, so references are per seed
	setup  func(r *runner, seed int64) (instance, error)
}

var workloads = []workload{
	{"contest", 31, 24, false, setupContest},
	{"ti-build", 15, 10, true, setupTIBuild},
	{"eco-service", 3, 25, false, setupECOService},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: contest, ti-build or eco-service")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "time budget, which sets the number of rounds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	key := name
	if w.seeded {
		key = fmt.Sprintf("%s:%d", name, seed)
	}
	refs, err := loadRefs(shippedRefs, workDir, key)
	if err != nil {
		return err
	}
	r := &runner{refs: refs, layer: map[string]float64{}}

	// Set up several times, each from a collected heap, and keep the last
	// instance, so setup_s is a median and not one sample.
	var setups []float64
	var inst instance
	for i := 0; i < w.setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		inst, err = w.setup(r, seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	// Timed rounds: as many as fit in the budget at the workload's nominal
	// round length, at least one. The count does not depend on how fast
	// the machine runs at the moment, so neither does the mix of cold
	// first and warm later rounds in the figures. A traced run alternates
	// untraced and traced rounds and needs one of each.
	var tr *tracer
	if traced {
		tr = newTracer(name)
	}
	rounds := int(seconds / w.round)
	if rounds < 1 {
		rounds = 1
	}
	if traced && rounds < 2 {
		rounds = 2
	}
	var plain, tracedWall []float64
	var allocBytes, gcCycles float64
	for i := 0; i < rounds; i++ {
		var parent *span
		if traced && i%2 == 1 {
			parent = tr.root.child(fmt.Sprintf("round %d", i))
		}
		r.mu.Lock()
		r.first, r.traced = i == 0, parent != nil
		r.mu.Unlock()
		runtime.GC() // start every round from the program's live heap alone
		var before map[string]float64
		var ms0, ms1 runtime.MemStats
		if parent != nil {
			if cs, ok := inst.(counterSource); ok {
				before = cs.counters()
			}
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		if err := inst.round(r, parent); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		d := time.Since(t0)
		if parent != nil {
			parent.finish()
			runtime.ReadMemStats(&ms1)
			allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			gcCycles += float64(ms1.NumGC - ms0.NumGC)
			if cs, ok := inst.(counterSource); ok {
				for k, v := range cs.counters() {
					r.layer[k] += v - before[k]
				}
			}
			tracedWall = append(tracedWall, d.Seconds())
		} else {
			plain = append(plain, d.Seconds())
		}
		r.verify()
	}
	if err := refs.save(); err != nil {
		return err
	}

	var metrics map[string]metric
	if traced {
		metrics = layerMetrics(r, tr, float64(len(tracedWall)), median(tracedWall)/median(plain)-1, allocBytes, gcCycles)
		data, err := tr.chromeJSON()
		if err != nil {
			return err
		}
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("chrome trace: %s\n", path)
	} else {
		metrics = endToEnd(r, setups, plain)
	}
	printTable(name, seed, r, metrics, len(plain), len(tracedWall))
	s := summary{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
	out, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(r *runner, setups, wall []float64) map[string]metric {
	opTail, _ := tail(r.opLat)
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"wall_s":          {median(wall), "s"},
		"op_p50_s":        {median(r.opLat), "s"},
		"op_tail_s":       {opTail, "s"},
		"readback_p50_ms": {median(r.readback), "ms"},
		"skew_ps":         {mean(r.skew), "ps"},
		"clr_ps":          {mean(r.clr), "ps"},
		"cap_pct":         {mean(r.capPct), "%"},
	}
}

// layerMetrics turns the traced rounds' spans and counters into per-layer
// metrics, each per traced round.
func layerMetrics(r *runner, tr *tracer, rounds, overhead, allocBytes, gcCycles float64) map[string]metric {
	v := tr.layerTimes()
	for k, x := range r.layer {
		v[k] += x
	}
	per := func(k string) float64 { return v[k] / rounds }
	m := map[string]metric{}
	for _, k := range []string{"bench.load_s", "dme.zst_s", "route.legalize_s", "buffering.buffer_s",
		"buffering.polarity_s", "flow.first_eval_s", "spice.eval_s", "opt.tbsz_s", "opt.twsz_s",
		"opt.twsn_s", "opt.bwsn_s", "opt.self_s", "eco.pass_s", "codec.encode_s", "codec.decode_s",
		"sched.queue_wait_s"} {
		m[k] = metric{per(k), "s"}
	}
	for _, k := range []string{"spice.eval_calls", "spice.stage_sims", "spice.stage_reuses", "spice.runs",
		"service.submissions", "service.coalesced", "store.writes", "store.reads"} {
		m[k] = metric{per(k), "count"}
	}
	m["spice.reuse_ratio"] = metric{ratio(v["spice.stage_reuses"], v["spice.stage_sims"]+v["spice.stage_reuses"]), "ratio"}
	m["spice.us_per_stage_sim"] = metric{1e6 * ratio(v["spice.eval_s"], v["spice.stage_sims"]), "us"}
	m["service.cache_hit_ratio"] = metric{ratio(v["service.cache_hits"], v["service.submissions"]), "ratio"}
	m["codec.mb"] = metric{per("codec.bytes") / 1e6, "MB"}
	m["store.write_mb"] = metric{per("store.write_bytes") / 1e6, "MB"}
	m["store.read_mb"] = metric{per("store.read_bytes") / 1e6, "MB"}
	m["runtime.alloc_mb"] = metric{allocBytes / rounds / 1e6, "MB"}
	m["runtime.gc_cycles"] = metric{gcCycles / rounds, "count"}
	// Peak RSS is per-layer, with no bound: it is set by whether a
	// collection happens to run at the live heap's peak, and on contest it
	// spread by more than any bound a benchmark may keep.
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Maxrss is in KiB on Linux
	m["runtime.peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
	m["trace.overhead_frac"] = metric{overhead, "ratio"}
	m["quality.slew_viol"] = metric{per("quality.slew_viol"), "count"}
	return m
}

// printTable prints the metrics with their units and sample counts, plus
// the first failures, ahead of the JSON summary line.
func printTable(name string, seed int64, r *runner, metrics map[string]metric, plain, traced int) {
	fmt.Printf("workload %s seed %d: %d untraced + %d traced rounds, %d ops attempted, %d failed (fail_frac %g)\n",
		name, seed, plain, traced, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	if len(r.opLat) > 0 {
		v, label := tail(r.opLat)
		fmt.Printf("  op latency: n=%d p50=%.4gs %s=%.4gs\n", len(r.opLat), median(r.opLat), label, v)
	}
	if len(r.readback) > 0 {
		v, label := tail(r.readback)
		fmt.Printf("  readback latency: n=%d p50=%.4gms %s=%.4gms\n", len(r.readback), median(r.readback), label, v)
	}
	fmt.Printf("  quality over the %d results of the first round\n", len(r.skew))
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-26s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, f := range r.failures {
		fmt.Printf("  FAILED: %s\n", strings.TrimSpace(f))
	}
}
