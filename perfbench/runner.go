package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"contango/internal/core"
)

// runner collects what the rounds of one run measured and checked. Its
// methods are safe for concurrent clients.
type runner struct {
	refs *refs

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	opLat     []float64 // s
	readback  []float64 // ms
	skew      []float64
	clr       []float64
	capPct    []float64
	// first is set during the first round, whose results enter the
	// quality means, so they cover the same operations on every run of a
	// seed; traced is set during traced rounds, whose per-layer counters
	// layer collects.
	first   bool
	traced  bool
	layer   map[string]float64
	pending []pending
}

// pending is a result queued for verification at the end of the round.
type pending struct {
	op           int
	res, decoded *core.Result
}

func (r *runner) fail(format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *runner) ok() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// count adds v to a per-layer counter during traced rounds.
func (r *runner) count(k string, v float64) {
	r.mu.Lock()
	if r.traced {
		r.layer[k] += v
	}
	r.mu.Unlock()
}

func (r *runner) op(d time.Duration) {
	r.mu.Lock()
	r.opLat = append(r.opLat, d.Seconds())
	r.mu.Unlock()
}

func (r *runner) read(d time.Duration) {
	r.mu.Lock()
	r.readback = append(r.readback, float64(d)/float64(time.Millisecond))
	r.mu.Unlock()
}

// produced queues a result for check at the end of the round, outside
// the timed work.
func (r *runner) produced(op int, res, decoded *core.Result) {
	r.mu.Lock()
	r.pending = append(r.pending, pending{op, res, decoded})
	r.mu.Unlock()
}

// verify checks the queued results, after a collection that drops the
// round's garbage so the checks do not set the peak RSS.
func (r *runner) verify() {
	r.mu.Lock()
	queue := r.pending
	r.pending = nil
	r.mu.Unlock()
	if len(queue) > 0 {
		runtime.GC()
	}
	for _, p := range queue {
		r.check(p.op, p.res, p.decoded)
	}
}

// check verifies a result the program computed for operation op: its
// digest must match the (workload, seed, op) reference, every final
// metric must be finite, and decoded, when given, must carry the same
// digest (the codec round trip). It returns the digest, or "" when the
// check failed.
func (r *runner) check(op int, res, decoded *core.Result) string {
	d, err := digest(res)
	if err != nil {
		r.fail("op %d: encode: %v", op, err)
		return ""
	}
	if bad := finite(res.Final); bad != "" {
		r.fail("op %d: non-finite metric %s", op, bad)
		return ""
	}
	if decoded != nil {
		if dd, err := digest(decoded); err != nil || dd != d {
			r.fail("op %d: codec round trip changed the result (%s vs %s, %v)", op, dd, d, err)
			return ""
		}
	}
	if msg := r.refs.check(op, d); msg != "" {
		r.fail("%s", msg)
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	f := res.Final
	if r.first {
		r.skew = append(r.skew, f.Skew)
		r.clr = append(r.clr, f.CLR)
		r.capPct = append(r.capPct, f.CapPct)
	}
	if r.traced {
		r.layer["spice.stage_sims"] += float64(res.StageSims)
		r.layer["spice.stage_reuses"] += float64(res.StageReuses)
		r.layer["spice.runs"] += float64(res.Runs)
		r.layer["quality.slew_viol"] += float64(f.SlewViol)
	}
	return d
}

// checkHit verifies a result read back from the program (a cache hit): it
// must equal the original result, whose digest is want.
func (r *runner) checkHit(res *core.Result, want string) {
	d, err := digest(res)
	if err != nil || d != want {
		r.fail("cache hit digest %s, original result %s (%v)", d, want, err)
		return
	}
	r.ok()
}
