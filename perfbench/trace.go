package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"contango/internal/analysis"
	"contango/internal/core"
	"contango/internal/ctree"
	"contango/internal/obs"
	"contango/internal/tech"
)

// tracer records the spans of one traced workload run. Every span goes
// into an obs.Trace (exported as Chrome trace JSON) and into a flat list
// with parent links, from which the per-layer times are computed. Spans
// come only from this program: the library's Options.SpanHook (passes and
// the first corner evaluation), an Options.WrapEval shim around the
// accurate evaluator, and timed calls made here directly.
type tracer struct {
	tr    *obs.Trace
	root  *span
	mu    sync.Mutex
	spans []*span
}

// span is one recorded interval.
type span struct {
	t          *tracer
	name       string
	parent     *span
	start, end time.Time
	o          *obs.Span
}

func newTracer(name string) *tracer {
	t := &tracer{tr: obs.NewTrace(name, time.Time{})}
	t.root = &span{t: t, name: name, start: time.Now(), o: t.tr.Root()}
	return t
}

// child opens a span under s. Nil-safe: an untraced run passes nil spans
// around, and every method is then a no-op.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	c := &span{t: s.t, name: name, parent: s, start: time.Now(), o: s.o.Child(name)}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, c)
	s.t.mu.Unlock()
	return c
}

func (s *span) finish() {
	if s == nil {
		return
	}
	s.o.End()
	s.t.mu.Lock()
	s.end = time.Now()
	s.t.mu.Unlock()
}

// instrument returns o with hooks that record, under job, a span for each
// executed pass ("pass:zst"), the first corner evaluation
// ("eval:corner_eval"), the eco restore/apply phases ("eco:apply") and
// every accurate-evaluator call ("spice:eval"). A nil job leaves o alone.
// Both hooks are excluded from result-cache keys and must not change
// results.
func instrument(o core.Options, job *span) core.Options {
	if job == nil {
		return o
	}
	var mu sync.Mutex
	open := []*span{job} // innermost last; one job runs its phases in order
	push := func(name string) func() {
		mu.Lock()
		sp := open[len(open)-1].child(name)
		open = append(open, sp)
		mu.Unlock()
		return func() {
			sp.finish()
			mu.Lock()
			for i := len(open) - 1; i > 0; i-- {
				if open[i] == sp {
					open = append(open[:i], open[i+1:]...)
					break
				}
			}
			mu.Unlock()
		}
	}
	o.SpanHook = func(kind, name string) func() { return push(kind + ":" + name) }
	o.WrapEval = func(ev analysis.Evaluator) analysis.Evaluator { return &timedEval{ev: ev, open: push} }
	return o
}

// timedEval brackets every call into the wrapped evaluator with a
// "spice:eval" span and forwards the optional interfaces the optimizer and
// the service's scheduler probe for, so wrapping changes no results.
type timedEval struct {
	ev   analysis.Evaluator
	open func(name string) func()
}

func (e *timedEval) Name() string { return e.ev.Name() }

func (e *timedEval) Evaluate(tr *ctree.Tree, c tech.Corner) (*analysis.Result, error) {
	defer e.open("spice:eval")()
	return e.ev.Evaluate(tr, c)
}

func (e *timedEval) EvaluateCorners(tr *ctree.Tree, cs []tech.Corner) ([]*analysis.Result, error) {
	defer e.open("spice:eval")()
	if ce, ok := e.ev.(analysis.CornerEvaluator); ok {
		return ce.EvaluateCorners(tr, cs)
	}
	out := make([]*analysis.Result, 0, len(cs))
	for _, c := range cs {
		r, err := e.ev.Evaluate(tr, c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func (e *timedEval) SetParallelism(n int) {
	if pe, ok := e.ev.(interface{ SetParallelism(int) }); ok {
		pe.SetParallelism(n)
	}
}

func (e *timedEval) BatchHint() int {
	if bh, ok := e.ev.(interface{ BatchHint() int }); ok {
		return bh.BatchHint()
	}
	return 0
}

// spanLayers maps span names to the per-layer time metric they add to.
var spanLayers = map[string]string{
	"bench:read":       "bench.load_s",
	"pass:zst":         "dme.zst_s",
	"pass:legalize":    "route.legalize_s",
	"pass:buffer":      "buffering.buffer_s",
	"pass:polarity":    "buffering.polarity_s",
	"eval:corner_eval": "flow.first_eval_s",
	"spice:eval":       "spice.eval_s",
	"pass:tbsz":        "opt.tbsz_s",
	"pass:twsz":        "opt.twsz_s",
	"pass:twsn":        "opt.twsn_s",
	"pass:bwsn":        "opt.bwsn_s",
	"pass:eco":         "eco.pass_s",
	"codec:encode":     "codec.encode_s",
	"codec:decode":     "codec.decode_s",
}

// layerTimes sums span durations into per-layer metrics, counts evaluator
// calls, and adds opt.self_s: the time of the tuning passes minus the part
// of it their children (evaluator calls) cover.
func (t *tracer) layerTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[*span][]*span)
	for _, s := range t.spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		d := s.end.Sub(s.start).Seconds()
		if m, ok := spanLayers[s.name]; ok {
			out[m] += d
		}
		if s.name == "spice:eval" {
			out["spice.eval_calls"]++
		}
		if strings.HasPrefix(spanLayers[s.name], "opt.") {
			out["opt.self_s"] += selfTime(s, kids[s])
		}
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals
// (clipped to s), so overlapping children are not subtracted twice.
func selfTime(s *span, kids []*span) float64 {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if b.IsZero() {
			continue
		}
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	covered += curB.Sub(curA)
	return (s.end.Sub(s.start) - covered).Seconds()
}

// chromeJSON closes the trace and renders it in the Chrome trace-event
// format.
func (t *tracer) chromeJSON() ([]byte, error) {
	t.tr.Finish()
	return t.tr.ChromeJSON()
}
