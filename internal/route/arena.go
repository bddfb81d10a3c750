package route

import (
	"math"

	"contango/internal/ctree"
	"contango/internal/geom"
)

// LegalizeArena repairs all obstacle violations in the arena: L-flips, then
// contour detours per compound obstacle, then maze reroutes of the heavy
// crossings that remain. It mutates the arena and returns a report. The
// die rectangle bounds detour contours and the maze.
func LegalizeArena(a *ctree.Arena, obs *geom.ObstacleSet, die geom.Rect, opt Options) (*Report, error) {
	rep := &Report{}
	if obs == nil || obs.Len() == 0 {
		return rep, nil
	}
	if opt.MaxPasses == 0 {
		opt.MaxPasses = 3
	}
	if opt.MazeStep == 0 {
		opt.MazeStep = math.Max(die.W(), die.H()) / 256
	}
	maze := geom.NewMaze(die, opt.MazeStep, obs)

	// Pass 1: cheap L-shape flips everywhere (in scope).
	a.PreOrder(func(n int32) {
		if a.Parent[n] < 0 || a.RouteLen[n] > 3 || !opt.inScope(n) {
			return // only direct connections have a free alternate L
		}
		route := a.Route(n)
		if !crossesAny(obs, route) {
			return
		}
		alt := geom.LShape(a.Loc[a.Parent[n]], a.Loc[n])
		best, bestOv := route, overlap(obs, route)
		for _, cand := range alt {
			if ov := overlap(obs, cand); ov < bestOv {
				best, bestOv = cand, ov
			}
		}
		if ov0 := overlap(obs, route); bestOv < ov0 {
			a.ReplaceRoute(n, best)
			rep.LFlips++
		}
	})

	// Pass 2: per-compound capture analysis and detouring.
	for ci := range obs.Compounds {
		if err := detourCompound(a, obs, ci, die, maze, opt, rep); err != nil {
			return rep, err
		}
	}

	// Pass 3: heavy point-to-point crossings -> maze reroute. Repeat a few
	// times since a reroute can graze another obstacle.
	for pass := 0; pass < opt.MaxPasses; pass++ {
		changed := false
		var bad []int32
		a.PreOrder(func(n int32) {
			if a.Parent[n] < 0 || !opt.inScope(n) || !crossesAny(obs, a.Route(n)) {
				return
			}
			if a.LoadCap(n) > opt.SafeCap {
				bad = append(bad, n)
			}
		})
		for _, n := range bad {
			pl, err := maze.Route(a.Loc[a.Parent[n]], a.Loc[n])
			if err != nil {
				continue // unroutable: leave the crossing; flow will buffer before it
			}
			if crossesAny(obs, pl) {
				continue
			}
			a.ReplaceRoute(n, pl)
			rep.Reroutes++
			changed = true
		}
		if !changed {
			break
		}
	}

	// Count the crossings we deliberately left (slew-safe).
	a.PreOrder(func(n int32) {
		if a.Parent[n] >= 0 && crossesAny(obs, a.Route(n)) {
			rep.Crossing++
		}
	})
	return rep, a.Validate()
}

// CheckLegalArena reports the slots whose parent edge still crosses an
// obstacle while carrying more downstream load than a single buffer can
// safely drive. An empty slice means the tree is buffering-legal.
func CheckLegalArena(a *ctree.Arena, obs *geom.ObstacleSet, safeCap float64) []int32 {
	var bad []int32
	if obs == nil {
		return nil
	}
	a.PreOrder(func(n int32) {
		if a.Parent[n] < 0 {
			return
		}
		if crossesAny(obs, a.Route(n)) && a.LoadCap(n) > safeCap {
			bad = append(bad, n)
		}
	})
	return bad
}
