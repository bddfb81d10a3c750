package analysis

import (
	"math"

	"contango/internal/ctree"
	"contango/internal/tech"
)

// ln9 converts a time constant into a 10-90% transition time for a
// single-pole response: t90 - t10 = τ·ln(0.9/0.1).
const ln9 = 2.1972245773362196

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

// stageElmoreScaled returns, for one stage, the Elmore delay (ps) from the
// stage driver input to every RC node, with wire resistance scaled by rs
// and capacitance by cs. The driver contributes rd·Ctotal. Unit scales are
// exact in IEEE 754 (x·1.0 == x bitwise), so the rs = cs = 1 call is
// bit-identical to the pre-derate recurrence.
func stageElmoreScaled(s *Stage, rd, rs, cs float64) []float64 {
	n := len(s.R)
	ks := kernelPool.Get().(*kernelScratch)
	ks.a = growFloats(ks.a, n)
	cdown := ks.a
	for i := 0; i < n; i++ {
		cdown[i] = s.C[i] * cs
	}
	for i := n - 1; i >= 1; i-- {
		cdown[s.Par[i]] += cdown[i]
	}
	d := make([]float64, n)
	d[0] = rd * cdown[0]
	for i := 1; i < n; i++ {
		d[i] = d[s.Par[i]] + s.R[i]*rs*cdown[i]
	}
	kernelPool.Put(ks)
	return d
}

// stageElmoreAt is stageElmoreScaled with the corner's interconnect
// derates applied.
func stageElmoreAt(s *Stage, rd float64, corner tech.Corner) []float64 {
	return stageElmoreScaled(s, rd, corner.RScale(), corner.CScale())
}

// Evaluate implements Evaluator using per-stage Elmore delays chained
// through buffer boundaries.
func (e *Elmore) Evaluate(tr *ctree.Tree, corner tech.Corner) (*Result, error) {
	net := Extract(tr, e.MaxSeg)
	return elmoreOnNet(net, corner), nil
}

// elmoreOnNet runs the Elmore evaluation over an already-extracted netlist.
func elmoreOnNet(net *Net, corner tech.Corner) *Result {
	res := &Result{
		Corner:    corner,
		Rise:      make(map[int]float64),
		Fall:      make(map[int]float64),
		SinkSlew:  make(map[int]float64),
		StageSlew: make(map[int]float64),
	}
	limit := net.Tree.Tech.SlewLimit
	arrival := make([]float64, len(net.Stages)) // at each stage's driver input
	for _, s := range net.Stages {
		rd := net.DriverR(s, corner)
		d := stageElmoreAt(s, rd, corner)
		base := arrival[s.Index]
		// Propagate arrivals to child stages through their input nodes.
		for _, ci := range s.Children {
			child := net.Stages[ci]
			arrival[ci] = base + d[child.InputNode]
		}
		for _, m := range s.Sinks {
			t := base + d[m.Node]
			res.Rise[m.Sink.ID] = t
			res.Fall[m.Sink.ID] = t
			slew := ln9 * d[m.Node]
			res.SinkSlew[m.Sink.ID] = slew
		}
		// Slew checking: a single-pole estimate per node within the stage.
		key := -1
		if s.Driver != nil {
			key = s.Driver.ID
		}
		for i := range d {
			slew := ln9 * d[i]
			if slew > res.MaxSlew {
				res.MaxSlew = slew
			}
			if slew > res.StageSlew[key] {
				res.StageSlew[key] = slew
			}
			if slew > limit {
				res.SlewViol++
			}
		}
	}
	return res
}

// WorstStageTau returns the largest single-stage Elmore time constant in
// the network (ps); useful to size transient simulation windows.
func WorstStageTau(net *Net, corner tech.Corner) float64 {
	worst := 0.0
	for _, s := range net.Stages {
		d := stageElmoreAt(s, net.DriverR(s, corner), corner)
		for _, v := range d {
			if v > worst {
				worst = v
			}
		}
	}
	return worst
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

// stageMomentsScaled returns m1 and m2 at every RC node of a stage with
// driver resistance rd folded in as a virtual root resistor, with wire
// resistance scaled by rs and capacitance by cs (unit scales are exact, so
// rs = cs = 1 reproduces the pre-derate recurrences bit for bit).
func stageMomentsScaled(s *Stage, rd, rs, cs float64) (m1, m2 []float64) {
	n := len(s.R)
	ks := kernelPool.Get().(*kernelScratch)
	ks.a = growFloats(ks.a, n)
	ks.b = growFloats(ks.b, n)
	cdown := ks.a
	for i := 0; i < n; i++ {
		cdown[i] = s.C[i] * cs
	}
	for i := n - 1; i >= 1; i-- {
		cdown[s.Par[i]] += cdown[i]
	}
	m1 = make([]float64, n)
	m1[0] = rd * cdown[0]
	for i := 1; i < n; i++ {
		m1[i] = m1[s.Par[i]] + s.R[i]*rs*cdown[i]
	}
	// b[i] = Σ_{k in subtree(i)} C_k · m1_k; the pooled buffer replaces
	// make's zero-init explicitly (0 + x preserves the accumulation bits).
	b := ks.b
	for i := range b {
		b[i] = 0
	}
	for i := n - 1; i >= 0; i-- {
		b[i] += s.C[i] * cs * m1[i]
		if s.Par[i] >= 0 {
			b[s.Par[i]] += b[i]
		}
	}
	m2 = make([]float64, n)
	m2[0] = rd * b[0]
	for i := 1; i < n; i++ {
		m2[i] = m2[s.Par[i]] + s.R[i]*rs*b[i]
	}
	return m1, m2
}

// stageMomentsAt is stageMomentsScaled with the corner's interconnect
// derates applied.
func stageMomentsAt(s *Stage, rd float64, corner tech.Corner) (m1, m2 []float64) {
	return stageMomentsScaled(s, rd, corner.RScale(), corner.CScale())
}

// d2m converts first and second moments into a 50% delay estimate.
func d2m(m1, m2 float64) float64 {
	if m2 <= 0 {
		return m1 * math.Ln2
	}
	return math.Ln2 * m1 * m1 / math.Sqrt(m2)
}

// Evaluate implements Evaluator.
func (e *TwoPole) Evaluate(tr *ctree.Tree, corner tech.Corner) (*Result, error) {
	net := Extract(tr, e.MaxSeg)
	res := &Result{
		Corner:    corner,
		Rise:      make(map[int]float64),
		Fall:      make(map[int]float64),
		SinkSlew:  make(map[int]float64),
		StageSlew: make(map[int]float64),
	}
	limit := net.Tree.Tech.SlewLimit
	arrival := make([]float64, len(net.Stages))
	for _, s := range net.Stages {
		rd := net.DriverR(s, corner)
		m1, m2 := stageMomentsAt(s, rd, corner)
		base := arrival[s.Index]
		for _, ci := range s.Children {
			child := net.Stages[ci]
			arrival[ci] = base + d2m(m1[child.InputNode], m2[child.InputNode])
		}
		for _, m := range s.Sinks {
			t := base + d2m(m1[m.Node], m2[m.Node])
			res.Rise[m.Sink.ID] = t
			res.Fall[m.Sink.ID] = t
			res.SinkSlew[m.Sink.ID] = slewFromMoments(m1[m.Node], m2[m.Node])
		}
		key := -1
		if s.Driver != nil {
			key = s.Driver.ID
		}
		for i := range m1 {
			slew := slewFromMoments(m1[i], m2[i])
			if slew > res.MaxSlew {
				res.MaxSlew = slew
			}
			if slew > res.StageSlew[key] {
				res.StageSlew[key] = slew
			}
			if slew > limit {
				res.SlewViol++
			}
		}
	}
	return res, nil
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
	_ Evaluator = (*Elmore)(nil)
	_ Evaluator = (*TwoPole)(nil)
)
