package route

import (
	"math"
	"sort"

	"contango/internal/ctree"
	"contango/internal/geom"
)

// detourCompound implements the paper's Step 2/3 for one compound obstacle:
// find subtrees captured inside it, keep the ones a single buffer can drive,
// and rebuild the rest along the compound's contour ring.
func detourCompound(a *ctree.Arena, obs *geom.ObstacleSet, ci int, die geom.Rect,
	maze *geom.Maze, opt Options, rep *Report) error {

	captured := func(n int32) bool { return obs.CompoundAt(a.Loc[n]) == ci }

	// Topmost captured nodes: captured with a non-captured parent.
	var tops []int32
	a.PreOrder(func(n int32) {
		if a.Parent[n] >= 0 && opt.inScope(n) && captured(n) && !captured(a.Parent[n]) {
			tops = append(tops, n)
		}
	})
	for _, top := range tops {
		// The whole enclosed subtree may be fine if one buffer placed just
		// before the obstacle can drive it (paper Step 2).
		if a.LoadCap(top) <= opt.SafeCap {
			continue
		}
		if err := detourSubtree(a, obs, ci, top, die, maze); err != nil {
			return err
		}
		rep.Detours++
	}
	return nil
}

// ringProj is an attachment on the contour ring.
type ringProj struct {
	pt     geom.Point
	s      float64 // arc-length parameter along the ring
	node   int32   // the outside subtree root (or captured sink) to hang here
	isSink bool
}

// detourSubtree rebuilds the captured subtree rooted at top along the
// compound's contour.
func detourSubtree(a *ctree.Arena, obs *geom.ObstacleSet, ci int, top int32,
	die geom.Rect, maze *geom.Maze) error {

	captured := func(n int32) bool { return obs.CompoundAt(a.Loc[n]) == ci }
	parent := a.Parent[top]
	ring := geom.ClipRing(obs.Contour(ci), die)
	perim := ring.Length()

	// Collect exits (outside subtrees fed through the captured region) and
	// captured sinks.
	var exits []int32
	var inSinks []int32
	var walk func(n int32)
	walk = func(n int32) {
		if !captured(n) {
			exits = append(exits, n)
			return
		}
		if a.Kind[n] == ctree.Sink {
			inSinks = append(inSinks, n)
			return
		}
		for _, c := range a.Children(n) {
			walk(c)
		}
	}
	walk(top)

	// Entry: the ring point nearest the outside parent.
	entryPt, entryS := projectOntoRing(ring, a.Loc[parent])

	var projs []ringProj
	for _, v := range exits {
		pt, s := projectOntoRing(ring, a.Loc[v])
		projs = append(projs, ringProj{pt: pt, s: s, node: v})
	}
	for _, v := range inSinks {
		pt, s := projectOntoRing(ring, a.Loc[v])
		projs = append(projs, ringProj{pt: pt, s: s, node: v, isSink: true})
	}
	if len(projs) == 0 {
		// Nothing hangs off the captured region; just delete it.
		a.DeleteSubtree(top)
		return nil
	}

	// Positions relative to the entry, in (0, perim].
	rel := func(s float64) float64 {
		d := math.Mod(s-entryS+perim, perim)
		if d == 0 {
			d = perim // coincident with entry: treat as a full loop away
		}
		return d
	}
	sort.Slice(projs, func(i, j int) bool { return rel(projs[i].s) < rel(projs[j].s) })

	// Choose the ring arc to remove: between consecutive attachments
	// (including the entry boundary gaps), minimizing the longest
	// source-to-attachment contour distance max(δ_k, perim − δ_{k+1}).
	// Cutting before the first attachment serves everyone counter-clockwise;
	// cutting after the last serves everyone clockwise.
	bestCut, bestCost := 0, math.Inf(1)
	m := len(projs)
	for k := 0; k <= m; k++ {
		var cost float64
		switch k {
		case 0:
			cost = perim - rel(projs[0].s)
		case m:
			cost = rel(projs[m-1].s)
		default:
			cost = math.Max(rel(projs[k-1].s), perim-rel(projs[k].s))
		}
		if cost < bestCost {
			bestCut, bestCost = k, cost
		}
	}

	// Detach outside subtrees, then discard the captured region.
	for _, v := range exits {
		a.Detach(v)
	}
	for _, v := range inSinks {
		a.Detach(v)
	}
	a.DeleteSubtree(top)

	// Entry node on the ring, fed from the outside parent (maze-routed so
	// the feed itself cannot cross the compound).
	entry := a.AddChildL(parent, ctree.Internal, entryPt)
	a.WidthIdx[entry] = int32(widthOf(a, exits, inSinks))
	if feed, err := maze.Route(a.Loc[parent], entryPt); err == nil && !crossesAny(obs, feed) {
		a.ReplaceRoute(entry, feed)
	}

	// Clockwise chain: attachments before the cut, in increasing δ.
	attach := func(prev int32, pr ringProj, arc geom.Polyline) int32 {
		n := a.AddChildL(prev, ctree.Internal, pr.pt)
		a.WidthIdx[n] = a.WidthIdx[entry]
		a.ReplaceRoute(n, arc)
		sub := pr.node
		hop := geom.LShape(a.Loc[n], a.Loc[sub])[0]
		// Captured sinks legitimately receive wire over the obstacle; for
		// outside subtrees prefer a hop that stays clear.
		if !pr.isSink && crossesAny(obs, hop) {
			if alt := geom.LShape(a.Loc[n], a.Loc[sub])[1]; !crossesAny(obs, alt) {
				hop = alt
			} else if mz, err := maze.Route(a.Loc[n], a.Loc[sub]); err == nil {
				hop = mz
			}
		}
		a.Attach(sub, n, hop)
		return n
	}
	prev, prevS := entry, entryS
	for k := 0; k < bestCut; k++ {
		arc := ringArc(ring, prevS, projs[k].s)
		prev = attach(prev, projs[k], arc)
		prevS = projs[k].s
	}
	// Counter-clockwise chain: attachments after the cut, in decreasing δ.
	prev, prevS = entry, entryS
	for k := m - 1; k >= bestCut; k-- {
		arc := ringArc(ring, projs[k].s, prevS).Reverse()
		prev = attach(prev, projs[k], arc)
		prevS = projs[k].s
	}
	return nil
}

// widthOf picks the wire width of the first re-attached subtree so the
// detour does not bottleneck it; defaults to 0.
func widthOf(a *ctree.Arena, exits, sinks []int32) int {
	for _, n := range exits {
		return int(a.WidthIdx[n])
	}
	for _, n := range sinks {
		return int(a.WidthIdx[n])
	}
	return 0
}

// projectOntoRing returns the closest point on the ring to p and its
// arc-length parameter.
func projectOntoRing(ring geom.Polyline, p geom.Point) (geom.Point, float64) {
	bestD := math.Inf(1)
	var bestPt geom.Point
	bestS := 0.0
	acc := 0.0
	for i := 1; i < len(ring); i++ {
		a, b := ring[i-1], ring[i]
		segLen := a.Manhattan(b)
		q := closestOnSegment(a, b, p)
		if d := q.Manhattan(p); d < bestD {
			bestD = d
			bestPt = q
			bestS = acc + a.Manhattan(q)
		}
		acc += segLen
	}
	return bestPt, bestS
}

// closestOnSegment projects p onto the axis-parallel segment a-b.
func closestOnSegment(a, b, p geom.Point) geom.Point {
	if a.X == b.X {
		lo, hi := math.Min(a.Y, b.Y), math.Max(a.Y, b.Y)
		y := math.Min(math.Max(p.Y, lo), hi)
		return geom.Pt(a.X, y)
	}
	lo, hi := math.Min(a.X, b.X), math.Max(a.X, b.X)
	x := math.Min(math.Max(p.X, lo), hi)
	return geom.Pt(x, a.Y)
}

// ringArc returns the ring polyline from parameter s0 forward to s1
// (wrapping past the ring start when needed). Coincident parameters yield a
// zero-length stub, not a full loop.
func ringArc(ring geom.Polyline, s0, s1 float64) geom.Polyline {
	perim := ring.Length()
	mod := func(x float64) float64 {
		m := math.Mod(x, perim)
		if m < 0 {
			m += perim
		}
		return m
	}
	s0, s1 = mod(s0), mod(s1)
	span := mod(s1 - s0)
	if span < 1e-9 {
		return geom.Polyline{ring.At(s0), ring.At(s1)}
	}
	type vert struct {
		d  float64
		pt geom.Point
	}
	var vs []vert
	// Vertex 0 sits at offset 0: an arc that wraps past the ring start must
	// turn its corner too. The closing vertex repeats vertex 0 and is skipped.
	acc := 0.0
	for i := 0; i < len(ring)-1; i++ {
		if i > 0 {
			acc += ring[i-1].Manhattan(ring[i])
		}
		d := mod(acc - s0)
		if d > 1e-9 && d < span-1e-9 {
			vs = append(vs, vert{d: d, pt: ring[i]})
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].d < vs[j].d })
	out := geom.Polyline{ring.At(s0)}
	for _, v := range vs {
		out = append(out, v.pt)
	}
	out = append(out, ring.At(s1))
	return out.Simplify()
}
