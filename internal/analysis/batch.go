package analysis

import (
	"sync"

	"contango/internal/ctree"
	"contango/internal/tech"
)

// Batched multi-corner stage kernels. The Stage netlist is already a
// structure of arrays (R, C, Par in parent-before-child order), so the
// corner dimension vectorizes naturally: one sweep over the topology
// computes every corner's recurrence, with corner k's values in the
// contiguous block out[k*n:(k+1)*n]. The loops are phase-ordered exactly
// like the single-corner kernels (stageElmoreScaled, stageMomentsScaled)
// and each corner only ever reads and writes its own block, so the
// floating-point operation sequence per corner is identical to a serial
// call with that corner's derates — batched results are bit-identical,
// which is what lets pvt5 and mc:<n> corner sets cost one topology
// traversal instead of N without perturbing a single cached result.

// kernelScratch pools the transient float vectors of the stage kernels.
type kernelScratch struct {
	a, b []float64
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// stageElmoreBatchInto computes the Elmore delay vectors of K corners in
// one topology sweep. rd, rs and cs hold the per-corner driver resistance
// and interconnect derates; cdown is K·n scratch and d the K·n output
// (corner-major blocks).
func stageElmoreBatchInto(s *Stage, rd, rs, cs, cdown, d []float64) {
	n := len(s.R)
	K := len(rd)
	for k := 0; k < K; k++ {
		ck := cdown[k*n : (k+1)*n : (k+1)*n]
		csk := cs[k]
		for i := 0; i < n; i++ {
			ck[i] = s.C[i] * csk
		}
	}
	for i := n - 1; i >= 1; i-- {
		p := s.Par[i]
		for k := 0; k < K; k++ {
			cdown[k*n+p] += cdown[k*n+i]
		}
	}
	for k := 0; k < K; k++ {
		d[k*n] = rd[k] * cdown[k*n]
	}
	for i := 1; i < n; i++ {
		p := s.Par[i]
		ri := s.R[i]
		for k := 0; k < K; k++ {
			d[k*n+i] = d[k*n+p] + ri*rs[k]*cdown[k*n+i]
		}
	}
}

// stageMomentsBatchInto computes the first two moment vectors of K corners
// in one topology sweep. cdown and b are K·n scratch, m1 and m2 the K·n
// outputs (corner-major blocks).
func stageMomentsBatchInto(s *Stage, rd, rs, cs, cdown, b, m1, m2 []float64) {
	n := len(s.R)
	K := len(rd)
	stageElmoreBatchInto(s, rd, rs, cs, cdown, m1)
	for i := range b[:K*n] {
		b[i] = 0
	}
	for i := n - 1; i >= 0; i-- {
		p := s.Par[i]
		ci := s.C[i]
		for k := 0; k < K; k++ {
			b[k*n+i] += ci * cs[k] * m1[k*n+i]
			if p >= 0 {
				b[k*n+p] += b[k*n+i]
			}
		}
	}
	for k := 0; k < K; k++ {
		m2[k*n] = rd[k] * b[k*n]
	}
	for i := 1; i < n; i++ {
		p := s.Par[i]
		ri := s.R[i]
		for k := 0; k < K; k++ {
			m2[k*n+i] = m2[k*n+p] + ri*rs[k]*b[k*n+i]
		}
	}
}

// StageElmoreMaxAt returns the largest per-node Elmore delay of the stage
// at the given corner — the time constant the transient engine sizes its
// integration window from — without retaining the vectors. Scratch comes
// from the kernel pool, so the call is allocation-free; the arithmetic and
// the max scan order match stageElmoreAt exactly.
func StageElmoreMaxAt(s *Stage, rd float64, corner tech.Corner) float64 {
	n := len(s.R)
	ks := kernelPool.Get().(*kernelScratch)
	ks.a = growFloats(ks.a, n)
	ks.b = growFloats(ks.b, n)
	cdown, d := ks.a, ks.b
	cs, rs := corner.CScale(), corner.RScale()
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
	m := 0.0
	for _, v := range d {
		if v > m {
			m = v
		}
	}
	kernelPool.Put(ks)
	return m
}

// cornerDerates fills the per-corner derate vectors for one stage.
func cornerDerates(net *Net, s *Stage, corners []tech.Corner, rd, rs, cs []float64) {
	for k, c := range corners {
		rd[k] = net.DriverR(s, c)
		rs[k] = c.RScale()
		cs[k] = c.CScale()
	}
}

// EvaluateCorners implements CornerEvaluator for the plain Elmore
// evaluator: one extraction, then every stage's corners computed by the
// batched kernel. Results are bit-identical to looping Evaluate.
func (e *Elmore) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*Result, error) {
	net := Extract(tr, e.MaxSeg)
	K := len(corners)
	limit := net.Tree.Tech.SlewLimit
	results := make([]*Result, K)
	arrivals := make([][]float64, K)
	for k, c := range corners {
		results[k] = newResult(c)
		arrivals[k] = make([]float64, len(net.Stages))
	}
	rd := make([]float64, K)
	rs := make([]float64, K)
	cs := make([]float64, K)
	ks := kernelPool.Get().(*kernelScratch)
	for _, s := range net.Stages {
		n := len(s.R)
		cornerDerates(net, s, corners, rd, rs, cs)
		ks.a = growFloats(ks.a, K*n)
		ks.b = growFloats(ks.b, K*n)
		stageElmoreBatchInto(s, rd, rs, cs, ks.a, ks.b)
		key := driverKey(s.Driver)
		for k := range corners {
			d := ks.b[k*n : (k+1)*n]
			res := results[k]
			base := arrivals[k][s.Index]
			for _, ci := range s.Children {
				arrivals[k][ci] = base + d[net.Stages[ci].InputNode]
			}
			for _, m := range s.Sinks {
				t := base + d[m.Node]
				res.Rise[m.Sink.ID] = t
				res.Fall[m.Sink.ID] = t
				res.SinkSlew[m.Sink.ID] = ln9 * d[m.Node]
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
	}
	kernelPool.Put(ks)
	return results, nil
}

// EvaluateCorners implements CornerEvaluator for the plain TwoPole
// evaluator with the batched moment kernel.
func (e *TwoPole) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*Result, error) {
	net := Extract(tr, e.MaxSeg)
	K := len(corners)
	limit := net.Tree.Tech.SlewLimit
	results := make([]*Result, K)
	arrivals := make([][]float64, K)
	for k, c := range corners {
		results[k] = newResult(c)
		arrivals[k] = make([]float64, len(net.Stages))
	}
	rd := make([]float64, K)
	rs := make([]float64, K)
	cs := make([]float64, K)
	ks := kernelPool.Get().(*kernelScratch)
	ks2 := kernelPool.Get().(*kernelScratch)
	for _, s := range net.Stages {
		n := len(s.R)
		cornerDerates(net, s, corners, rd, rs, cs)
		ks.a = growFloats(ks.a, K*n)
		ks.b = growFloats(ks.b, K*n)
		ks2.a = growFloats(ks2.a, K*n)
		ks2.b = growFloats(ks2.b, K*n)
		m1, m2 := ks2.a, ks2.b
		stageMomentsBatchInto(s, rd, rs, cs, ks.a, ks.b, m1, m2)
		key := driverKey(s.Driver)
		for k := range corners {
			m1k := m1[k*n : (k+1)*n]
			m2k := m2[k*n : (k+1)*n]
			res := results[k]
			base := arrivals[k][s.Index]
			for _, ci := range s.Children {
				child := net.Stages[ci]
				arrivals[k][ci] = base + d2m(m1k[child.InputNode], m2k[child.InputNode])
			}
			for _, m := range s.Sinks {
				t := base + d2m(m1k[m.Node], m2k[m.Node])
				res.Rise[m.Sink.ID] = t
				res.Fall[m.Sink.ID] = t
				res.SinkSlew[m.Sink.ID] = slewFromMoments(m1k[m.Node], m2k[m.Node])
			}
			for i := range m1k {
				slew := slewFromMoments(m1k[i], m2k[i])
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
	}
	kernelPool.Put(ks)
	kernelPool.Put(ks2)
	return results, nil
}

// newResult allocates an empty Result for one corner.
func newResult(c tech.Corner) *Result {
	return &Result{
		Corner:    c,
		Rise:      make(map[int]float64),
		Fall:      make(map[int]float64),
		SinkSlew:  make(map[int]float64),
		StageSlew: make(map[int]float64),
	}
}

var (
	_ CornerEvaluator = (*Elmore)(nil)
	_ CornerEvaluator = (*TwoPole)(nil)
)
