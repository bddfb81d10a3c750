package analysis

import (
	"math"
	"sync"

	"contango/internal/ctree"
	"contango/internal/tech"
)

// ln9 converts a time constant into a 10-90% transition time for a
// single-pole response: t90 - t10 = τ·ln(0.9/0.1).
const ln9 = 2.1972245773362196

// kernelScratch pools the transient float vectors of the stage kernels.
type kernelScratch struct {
	bufs [6][]float64
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// vec returns scratch vector i resized to n (contents unspecified).
func (ks *kernelScratch) vec(i, n int) []float64 {
	if cap(ks.bufs[i]) < n {
		ks.bufs[i] = make([]float64, n)
	}
	ks.bufs[i] = ks.bufs[i][:n]
	return ks.bufs[i]
}

// stageElmoreInto writes into d the Elmore delay (ps) from the stage driver
// input to every RC node of one stage, with wire resistance scaled by rs
// and capacitance by cs; the driver contributes rd·Ctotal. cdown receives
// the scaled downstream capacitance of every node. Both are caller
// scratch of length len(s.R). Unit scales are exact in IEEE 754
// (x·1.0 == x bitwise), so unit derates leave every result bit unchanged.
func stageElmoreInto(s *Stage, rd, rs, cs float64, cdown, d []float64) {
	n := len(s.R)
	for i := 0; i < n; i++ {
		cdown[i] = s.C[i] * cs
	}
	for i := n - 1; i >= 1; i-- {
		cdown[s.Par[i]] += cdown[i]
	}
	d[0] = rd * cdown[0]
	for i := 1; i < n; i++ {
		d[i] = d[s.Par[i]] + s.R[i]*rs*cdown[i]
	}
}

// stageMomentsInto writes the first two moments m1, m2 of every RC node of
// one stage, with the driver resistance rd folded in as a virtual root
// resistor. m1 is the Elmore recurrence; m2 reruns it with the
// moment-weighted charge b[i] = Σ_{k in subtree(i)} C_k · m1_k in place of
// the downstream capacitance. cdown and b are caller scratch.
func stageMomentsInto(s *Stage, rd, rs, cs float64, cdown, b, m1, m2 []float64) {
	n := len(s.R)
	stageElmoreInto(s, rd, rs, cs, cdown, m1)
	for i := range b {
		b[i] = 0
	}
	for i := n - 1; i >= 0; i-- {
		b[i] += s.C[i] * cs * m1[i]
		if s.Par[i] >= 0 {
			b[s.Par[i]] += b[i]
		}
	}
	m2[0] = rd * b[0]
	for i := 1; i < n; i++ {
		m2[i] = m2[s.Par[i]] + s.R[i]*rs*b[i]
	}
}

// StageElmoreMaxAt returns the largest per-node Elmore delay of the stage
// at the given corner — the time constant the transient engine sizes its
// integration window from — without retaining the vectors. Scratch comes
// from the kernel pool, so the call is allocation-free.
func StageElmoreMaxAt(s *Stage, rd float64, corner tech.Corner) float64 {
	n := len(s.R)
	ks := kernelPool.Get().(*kernelScratch)
	d := ks.vec(1, n)
	stageElmoreInto(s, rd, corner.RScale(), corner.CScale(), ks.vec(0, n), d)
	m := 0.0
	for _, v := range d {
		if v > m {
			m = v
		}
	}
	kernelPool.Put(ks)
	return m
}

// stageModel fills the per-node 50% delay and 10-90% slew vectors of one
// stage at one corner, using the scratch in ks.
type stageModel func(ks *kernelScratch, s *Stage, rd float64, corner tech.Corner) (delay, slew []float64)

// evaluateCorners is the one evaluation body of the closed-form models:
// one extraction shared by every corner, then, per corner, the stages in
// parent-before-child order, each through the single-corner recurrence.
// Stage delays chain through buffer boundaries via the child stages'
// input nodes.
func evaluateCorners(tr *ctree.Tree, maxSeg float64, corners []tech.Corner, model stageModel) []*Result {
	net := Extract(tr, maxSeg)
	limit := tr.Tech.SlewLimit
	ks := kernelPool.Get().(*kernelScratch)
	defer kernelPool.Put(ks)
	// arrival[i] is stage i's driver input arrival at the current corner;
	// every entry but the source stage's is written by its parent first.
	arrival := make([]float64, len(net.Stages))
	results := make([]*Result, len(corners))
	for k, c := range corners {
		res := &Result{
			Corner:    c,
			Rise:      make(map[int]float64),
			Fall:      make(map[int]float64),
			SinkSlew:  make(map[int]float64),
			StageSlew: make(map[int]float64),
		}
		for _, s := range net.Stages {
			delay, slew := model(ks, s, net.DriverR(s, c), c)
			base := arrival[s.Index]
			for _, ci := range s.Children {
				arrival[ci] = base + delay[net.Stages[ci].InputNode]
			}
			for _, m := range s.Sinks {
				t := base + delay[m.Node]
				res.Rise[m.Sink.ID] = t
				res.Fall[m.Sink.ID] = t
				res.SinkSlew[m.Sink.ID] = slew[m.Node]
			}
			// Slew checking: a per-node estimate within the stage.
			key := driverKey(s.Driver)
			for _, v := range slew {
				if v > res.MaxSlew {
					res.MaxSlew = v
				}
				if v > res.StageSlew[key] {
					res.StageSlew[key] = v
				}
				if v > limit {
					res.SlewViol++
				}
			}
		}
		results[k] = res
	}
	return results
}

// Elmore is the first-moment delay evaluator. It is exact for the total
// charge-transfer delay of RC trees but, as the paper stresses, ignores
// resistive shielding and slew effects; Contango uses it only to build the
// initial tree and to seed buffer insertion.
type Elmore struct {
	// MaxSeg overrides the RC subdivision length (µm); 0 means default.
	MaxSeg float64
}

// Name implements Evaluator.
func (e *Elmore) Name() string { return "elmore" }

// Evaluate implements Evaluator.
func (e *Elmore) Evaluate(tr *ctree.Tree, corner tech.Corner) (*Result, error) {
	return evaluateCorners(tr, e.MaxSeg, []tech.Corner{corner}, elmoreStage)[0], nil
}

// EvaluateCorners implements CornerEvaluator: one extraction, then each
// corner through the single-corner Elmore recurrence.
func (e *Elmore) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*Result, error) {
	return evaluateCorners(tr, e.MaxSeg, corners, elmoreStage), nil
}

// elmoreStage is the Elmore stageModel: delay is the first moment, slew
// its single-pole estimate ln9·m1.
func elmoreStage(ks *kernelScratch, s *Stage, rd float64, corner tech.Corner) (delay, slew []float64) {
	n := len(s.R)
	delay, slew = ks.vec(1, n), ks.vec(2, n)
	stageElmoreInto(s, rd, corner.RScale(), corner.CScale(), ks.vec(0, n), delay)
	for i, d := range delay {
		slew[i] = ln9 * d
	}
	return delay, slew
}

// TwoPole is the D2M (delay with two moments) evaluator: a closed-form
// reduced-order model in the same family as the Arnoldi approximations the
// paper mentions as SPICE substitutes. Delay = ln2 · m1²/√m2, which is
// substantially more accurate than Elmore on far sinks of resistive nets.
type TwoPole struct {
	MaxSeg float64
}

// Name implements Evaluator.
func (e *TwoPole) Name() string { return "twopole" }

// Evaluate implements Evaluator.
func (e *TwoPole) Evaluate(tr *ctree.Tree, corner tech.Corner) (*Result, error) {
	return evaluateCorners(tr, e.MaxSeg, []tech.Corner{corner}, twoPoleStage)[0], nil
}

// EvaluateCorners implements CornerEvaluator: one extraction, then each
// corner through the single-corner moment recurrence.
func (e *TwoPole) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*Result, error) {
	return evaluateCorners(tr, e.MaxSeg, corners, twoPoleStage), nil
}

// twoPoleStage is the D2M stageModel.
func twoPoleStage(ks *kernelScratch, s *Stage, rd float64, corner tech.Corner) (delay, slew []float64) {
	n := len(s.R)
	m1, m2 := ks.vec(2, n), ks.vec(3, n)
	stageMomentsInto(s, rd, corner.RScale(), corner.CScale(), ks.vec(0, n), ks.vec(1, n), m1, m2)
	delay, slew = ks.vec(4, n), ks.vec(5, n)
	for i := range m1 {
		delay[i] = d2m(m1[i], m2[i])
		slew[i] = slewFromMoments(m1[i], m2[i])
	}
	return delay, slew
}

// d2m converts first and second moments into a 50% delay estimate.
func d2m(m1, m2 float64) float64 {
	if m2 <= 0 {
		return m1 * math.Ln2
	}
	return math.Ln2 * m1 * m1 / math.Sqrt(m2)
}

// slewFromMoments estimates the 10-90% transition time from the first two
// moments via the response's standard deviation (PERI-style):
// σ = √(2·m2 − m1²), slew ≈ ln9·σ, falling back to the single-pole formula
// when the variance degenerates.
func slewFromMoments(m1, m2 float64) float64 {
	v := 2*m2 - m1*m1
	if v <= 0 {
		return ln9 * m1
	}
	return ln9 * math.Sqrt(v)
}

var (
	_ CornerEvaluator = (*Elmore)(nil)
	_ CornerEvaluator = (*TwoPole)(nil)
)
