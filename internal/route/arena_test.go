package route

import (
	"math/rand"
	"testing"

	"contango/internal/bench"
	"contango/internal/buffering"
	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/tech"
)

func TestLegalizeArenaNoObstaclesIsNoop(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(5))
	var sinks []dme.Sink
	for len(sinks) < 40 {
		sinks = append(sinks, dme.Sink{Loc: geom.Pt(rng.Float64()*2000, rng.Float64()*2000), Cap: 25})
	}
	a := dme.BuildZSTArena(tk, geom.Pt(0, 0), sinks, dme.Options{})
	before, err := a.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := LegalizeArena(a, nil, geom.NewRect(0, 0, 2000, 2000), Options{SafeCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	if *rep != (Report{}) {
		t.Fatalf("no-obstacle legalization did work: %v", rep)
	}
	after, err := a.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctree.Equal(before, after); err != nil {
		t.Fatal(err)
	}
}

// TestLegalizeWrappedContourArcs is the regression for contour arcs that
// wrap past the ring's start vertex: such detours used to cut that corner
// with a diagonal segment, so legalization failed validation on the greedy
// (unbalanced) ispd09f21 tree and on ispd09f31 with its sink pin
// capacitances jittered by up to 10% (seed 1013).
func TestLegalizeWrappedContourArcs(t *testing.T) {
	tk := tech.Default45()
	// The flow's detour threshold: what the ladder's workhorse rung drives.
	safe := buffering.SafeLoad(tk, tk.BatchLadder("Small", 8)[0])
	legalize := func(t *testing.T, b *bench.Benchmark, dopt dme.Options) *ctree.Arena {
		t.Helper()
		a := dme.BuildZSTArena(tk, b.Source, b.Sinks, dopt)
		rep, err := LegalizeArena(a, geom.NewObstacleSet(b.Obstacles), b.Die, Options{SafeCap: safe})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detours == 0 {
			t.Fatal("expected contour detours")
		}
		return a
	}
	t.Run("ispd09f21-greedy", func(t *testing.T) {
		b, err := bench.ISPD09("ispd09f21")
		if err != nil {
			t.Fatal(err)
		}
		a := legalize(t, b, dme.Options{NoBalance: true})
		if bad := CheckLegalArena(a, geom.NewObstacleSet(b.Obstacles), safe); len(bad) != 0 {
			t.Errorf("heavy crossings remain at slots %v", bad)
		}
	})
	t.Run("ispd09f31-jittered", func(t *testing.T) {
		b, err := bench.ISPD09("ispd09f31")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1013))
		for i := range b.Sinks {
			b.Sinks[i].Cap *= 1 + 0.1*(2*rng.Float64()-1)
		}
		legalize(t, b, dme.Options{})
	})
}
