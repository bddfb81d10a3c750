package analysis

import (
	"reflect"
	"testing"

	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// batchFixture builds a three-stage buffered tree with branching, snakes and
// mixed widths, so the evaluators see multi-stage arrival chaining,
// load pins, and sink maps.
func batchFixture(tk *tech.Tech) *ctree.Tree {
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	m := tr.AddChild(tr.Root, ctree.Internal, geom.Pt(800, 0))
	b1 := tr.InsertOnEdge(m, 400, ctree.Buffer)
	b1.Buf = &tech.Composite{Type: tk.Inverters[1], N: 4}
	s1 := tr.AddSink(m, geom.Pt(1400, 300), 35, "s1")
	tr.SetWidth(s1, 1)
	s2 := tr.AddSink(m, geom.Pt(1200, -500), 28, "s2")
	tr.SetSnake(s2, 90)
	far := tr.AddSink(m, geom.Pt(2600, 100), 40, "far")
	b2 := tr.InsertOnEdge(far, 900, ctree.Buffer)
	b2.Buf = &tech.Composite{Type: tk.Inverters[0], N: 2}
	return tr
}

func batchCornerSets(t *testing.T, tk *tech.Tech) map[string][]tech.Corner {
	t.Helper()
	sets := map[string][]tech.Corner{}
	for _, name := range []string{"pvt5", "mc:8:1"} {
		cs, err := corners.Build(name, tk)
		if err != nil {
			t.Fatalf("corners.Build(%q): %v", name, err)
		}
		sets[name] = cs.Corners
	}
	return sets
}

// TestBatchedCornersBitIdentical: EvaluateCorners must reproduce a serial
// per-corner Evaluate loop bit for bit, for both closed-form evaluators and
// both generated corner-set families, and a repeated call must not depend
// on what the previous batch left in the pooled scratch.
func TestBatchedCornersBitIdentical(t *testing.T) {
	tk := tech.Default45()
	tr := batchFixture(tk)
	for setName, cs := range batchCornerSets(t, tk) {
		for _, ev := range []CornerEvaluator{&Elmore{}, &TwoPole{}} {
			var want []*Result
			for _, c := range cs {
				r, err := ev.Evaluate(tr, c)
				if err != nil {
					t.Fatalf("%s/%s serial: %v", ev.Name(), setName, err)
				}
				want = append(want, r)
			}
			for _, pass := range []string{"cold", "warm"} {
				got, err := ev.EvaluateCorners(tr, cs)
				if err != nil {
					t.Fatalf("%s/%s batch: %v", ev.Name(), setName, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d results, want %d", ev.Name(), setName, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s/%s/%s corner %q: batched result differs from serial",
							ev.Name(), setName, pass, cs[i].Name)
					}
				}
			}
		}
	}
}

// derateCorners mixes a plain corner with R/C-derated ones.
var derateCorners = []tech.Corner{
	{Name: "a", Vdd: 1.1},
	{Name: "b", Vdd: 1.0, RDerate: 1.17, CDerate: 0.93},
	{Name: "c", Vdd: 0.9, RDerate: 0.85, CDerate: 1.21},
}

// TestStageElmoreMaxAtMatchesRecurrence: the window bound the transient
// engine reads is exactly the largest entry of the Elmore recurrence's
// delay vector, for every stage under plain and derated corners.
func TestStageElmoreMaxAtMatchesRecurrence(t *testing.T) {
	tk := tech.Default45()
	net := Extract(batchFixture(tk), 100)
	for _, s := range net.Stages {
		n := len(s.R)
		for k, c := range derateCorners {
			rd := net.DriverR(s, c)
			cdown := make([]float64, n)
			d := make([]float64, n)
			stageElmoreInto(s, rd, c.RScale(), c.CScale(), cdown, d)
			max := 0.0
			for _, v := range d {
				if v > max {
					max = v
				}
			}
			if max <= 0 {
				t.Fatalf("stage %d corner %d: non-positive Elmore maximum %v", s.Index, k, max)
			}
			if got := StageElmoreMaxAt(s, rd, c); got != max {
				t.Fatalf("stage %d corner %d: StageElmoreMaxAt %v != %v", s.Index, k, got, max)
			}
		}
	}
}

// TestStageElmoreMaxAtAllocFree: the window bound runs once per stage
// simulation, so it must take its scratch from the kernel pool.
func TestStageElmoreMaxAtAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	tk := tech.Default45()
	net := Extract(batchFixture(tk), 100)
	s := net.Stages[0]
	c := derateCorners[1]
	rd := net.DriverR(s, c)
	if allocs := testing.AllocsPerRun(100, func() { StageElmoreMaxAt(s, rd, c) }); allocs != 0 {
		t.Errorf("StageElmoreMaxAt allocates %v times per call", allocs)
	}
}
