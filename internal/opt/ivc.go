// Package opt implements Contango's SPICE-driven optimization passes (paper
// Sections IV-E through IV-I): iterative top-down wiresizing (Algorithm 1),
// top-down wiresnaking, bottom-level fine-tuning, and trunk/branch buffer
// sizing with sliding and interleaving.
//
// Every pass follows the paper's CNE/IVC discipline: mutate the tree, run a
// Clock-Network Evaluation with the accurate engine, and keep the change
// only if the objective improved without slew or capacitance violations
// (Improvement- & Violation-Checking); otherwise the saved solution is
// restored and the pass hands control to the next optimization.
//
// Passes mutate the tree exclusively through the ctree journaling setters
// (SetWidth, SetSnake/AddSnake, SetBufferSize) and structural operations,
// so an incremental evaluator installed as Context.Eng re-simulates only
// each round's dirty cone instead of the whole network.
package opt

import (
	"math"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/eval"
	"contango/internal/geom"
)

// Objective selects what a pass is trying to reduce.
type Objective int

const (
	// MinSkew optimizes nominal skew at the reference corner.
	MinSkew Objective = iota
	// MinCLR optimizes the multicorner Clock Latency Range.
	MinCLR
	// MinBoth optimizes CLR but never lets skew regress by more than it
	// gains (used by the green "both objectives" box in the paper's Fig. 1).
	MinBoth
)

// value extracts the scalar being minimized.
func (o Objective) value(m eval.Metrics) float64 {
	switch o {
	case MinCLR:
		return m.CLR
	case MinBoth:
		return m.CLR + m.Skew
	default:
		return m.Skew
	}
}

// Context carries the state shared by all passes. Eng is any accurate
// evaluator: the transient engine for the paper's SPICE-driven passes, or
// the cheap Elmore model for the construction-time pre-correction phase
// ("use simple analytical models at the first steps of the proposed flow",
// Section III-A).
type Context struct {
	Tree     *ctree.Tree
	Eng      analysis.Evaluator
	Obs      *geom.ObstacleSet
	CapLimit float64 // hard capacitance limit, fF (0 = unlimited)
	// MaxRounds bounds the improvement loop of each pass (default 10).
	MaxRounds int
	// Parallelism is the stage-simulation worker budget for evaluation
	// (≤1 = serial, 0 = leave the evaluator's own setting). Before each
	// CNE the context pushes it onto Eng when the evaluator accepts a
	// budget (spice.Incremental does); plain evaluators ignore it.
	// Parallelism changes wall-clock time only, never results.
	Parallelism int
	// MinGain is the smallest objective improvement (ps) that counts
	// (default 0.05).
	MinGain float64
	// Check, when non-nil, is consulted before every improvement round; a
	// non-nil error aborts the pass immediately (context cancellation from
	// the service layer, so killed jobs stop burning simulator runs).
	Check func() error
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})

	// cached state from the most recent CNE
	lastResults []*analysis.Result
	lastMetrics eval.Metrics
	haveCNE     bool
}

// DefaultMaxRounds is the per-pass round budget used when MaxRounds is
// unset (core.Options.Resolve makes it explicit).
const DefaultMaxRounds = 16

func (cx *Context) rounds() int {
	if cx.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return cx.MaxRounds
}

func (cx *Context) minGain() float64 {
	if cx.MinGain <= 0 {
		return 0.05
	}
	return cx.MinGain
}

func (cx *Context) logf(format string, args ...interface{}) {
	if cx.Log != nil {
		cx.Log(format, args...)
	}
}

// CNE runs the accurate evaluator at every corner and caches the results.
// Evaluators that implement analysis.CornerEvaluator (the incremental
// engines) get all corners in one call, so extraction is shared and the
// per-corner simulations can be scheduled over one worker pool.
func (cx *Context) CNE() ([]*analysis.Result, eval.Metrics, error) {
	if cx.Parallelism > 0 {
		if pe, ok := cx.Eng.(interface{ SetParallelism(int) }); ok {
			pe.SetParallelism(cx.Parallelism)
		}
	}
	var rs []*analysis.Result
	if ce, ok := cx.Eng.(analysis.CornerEvaluator); ok {
		var err error
		rs, err = ce.EvaluateCorners(cx.Tree, cx.Tree.Tech.Corners)
		if err != nil {
			return nil, eval.Metrics{}, err
		}
	} else {
		for _, c := range cx.Tree.Tech.Corners {
			r, err := cx.Eng.Evaluate(cx.Tree, c)
			if err != nil {
				return nil, eval.Metrics{}, err
			}
			rs = append(rs, r)
		}
	}
	m, err := eval.FromResults(cx.Tree, corners.FromTech(cx.Tree.Tech), rs, cx.CapLimit)
	if err != nil {
		return nil, eval.Metrics{}, err
	}
	cx.lastResults, cx.lastMetrics, cx.haveCNE = rs, m, true
	return rs, m, nil
}

// Baseline returns cached CNE results, evaluating if needed.
func (cx *Context) Baseline() ([]*analysis.Result, eval.Metrics, error) {
	if cx.haveCNE {
		return cx.lastResults, cx.lastMetrics, nil
	}
	return cx.CNE()
}

// invalidate drops the CNE cache after an uncommitted tree mutation.
func (cx *Context) invalidate() { cx.haveCNE = false }

// Invalidate drops the cached evaluation; callers must use it after
// recalibrating the evaluator or editing the tree outside a pass.
func (cx *Context) Invalidate() { cx.invalidate() }

// worse reports whether candidate metrics violate constraints more than the
// baseline did: more slew violations, or capacitance newly/further over the
// limit. Judging violations relatively lets the passes make progress on
// networks that start out violating (e.g., right after a lossy detour)
// without ever making them worse.
func (cx *Context) worse(base, cand eval.Metrics) bool {
	if cand.SlewViol > base.SlewViol {
		return true
	}
	if cx.CapLimit > 0 && cand.TotalCap > cx.CapLimit && cand.TotalCap > base.TotalCap+1e-9 {
		return true
	}
	return false
}

// LastMetrics returns the most recent cached CNE metrics; ok is false when
// no evaluation has run since the last invalidation.
func (cx *Context) LastMetrics() (m eval.Metrics, ok bool) {
	return cx.lastMetrics, cx.haveCNE
}

// improveLoop runs mutate-evaluate-check rounds until the objective stops
// improving, a violation appears, or the round budget is exhausted. Each
// round's mutate callback returns false when it has nothing left to try.
// The tree always ends in the best state seen.
func (cx *Context) improveLoop(name string, obj Objective, mutate func(res []*analysis.Result) bool) error {
	res, m, err := cx.Baseline()
	if err != nil {
		return err
	}
	best := obj.value(m)
	baseM := m
	for round := 0; round < cx.rounds(); round++ {
		if cx.Check != nil {
			if err := cx.Check(); err != nil {
				return err
			}
		}
		snap := cx.Tree.Clone()
		snapRes, snapM := cx.lastResults, cx.lastMetrics
		if !mutate(res) {
			break
		}
		cx.invalidate()
		var nm eval.Metrics
		res2, nm, err := cx.CNE()
		if err != nil {
			return err
		}
		if cx.worse(baseM, nm) || obj.value(nm) > best-cx.minGain() {
			// IVC fail: restore the saved solution and stop the pass.
			*cx.Tree = *snap
			cx.lastResults, cx.lastMetrics, cx.haveCNE = snapRes, snapM, true
			cx.logf("%s: round %d rejected (%.3f -> %.3f, worse=%v, viol %d->%d, maxslew %.1f->%.1f, cap %.0f->%.0f)",
				name, round, best, obj.value(nm), cx.worse(baseM, nm),
				baseM.SlewViol, nm.SlewViol, baseM.MaxSlew, nm.MaxSlew, baseM.TotalCap, nm.TotalCap)
			break
		}
		best = obj.value(nm)
		baseM = nm
		res = res2
		cx.logf("%s: round %d accepted, %s", name, round, nm)
	}
	return nil
}

// wideIdx/narrowIdx are cached per call sites for clarity.
func (cx *Context) wideIdx() int   { return cx.Tree.Tech.Wide() }
func (cx *Context) narrowIdx() int { return cx.Tree.Tech.Narrow() }

// capHeadroom returns how much capacitance (fF) may still be added before
// hitting the limit; +Inf when unlimited.
func (cx *Context) capHeadroom() float64 {
	if cx.CapLimit <= 0 {
		return math.Inf(1)
	}
	return cx.CapLimit - cx.Tree.TotalCap()
}
