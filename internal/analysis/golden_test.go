package analysis_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"contango/internal/analysis"
	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/tech"
)

// resultsDigest is the SHA-256 of a corner-ordered result list: corner
// names, every per-sink and per-stage map in key order, MaxSlew and
// SlewViol, floats as raw IEEE 754 bits.
func resultsDigest(rs []*analysis.Result) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	writeMap := func(m map[int]float64) {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		u64(uint64(len(keys)))
		for _, k := range keys {
			u64(uint64(int64(k)))
			u64(math.Float64bits(m[k]))
		}
	}
	for _, r := range rs {
		h.Write([]byte(r.Corner.Name))
		writeMap(r.Rise)
		writeMap(r.Fall)
		writeMap(r.SinkSlew)
		writeMap(r.StageSlew)
		u64(math.Float64bits(r.MaxSlew))
		u64(uint64(r.SlewViol))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenClosedFormDigests pins the exact Elmore and two-pole results,
// both through per-corner Evaluate calls and through EvaluateCorners, on
// the buffered batch fixture and on an ISPD'09 tree after construction.
// Any change to the closed-form recurrences or to the way corners share an
// extraction changes a digest.
func TestGoldenClosedFormDigests(t *testing.T) {
	tk := tech.Default45()
	b, err := bench.ISPD09("ispd09f22")
	if err != nil {
		t.Fatal(err)
	}
	built, err := core.Synthesize(b, core.Options{Plan: "zst,legalize,buffer,polarity", FastSim: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(analysis.Extract(built.Tree, 0).Stages); n < 2 {
		t.Fatalf("constructed ispd09f22 tree has %d stages; want a buffered tree", n)
	}
	trees := map[string]*ctree.Tree{
		"fixture":   analysis.BatchFixture(tk),
		"ispd09f22": built.Tree,
	}
	want := map[string]string{
		"fixture/pvt5/elmore":      "2c66754012745a76d8fa9362f1ecd1c108309454becc5493677cc2ca27a35c12",
		"fixture/pvt5/twopole":     "179b9c8a1a055d6a49b367679a5f48093b89177202f9d7e3aa8d774cea6e0e45",
		"fixture/mc:8:1/elmore":    "28088816f19c539a1c6b1b11137015a50c781b6b170c4e998ee6080bc5f7a5fa",
		"fixture/mc:8:1/twopole":   "c8d5732e78c870133d386483b85218a7a30fcf2336a722c59be850145c0957ac",
		"ispd09f22/pvt5/elmore":    "266364914a443e9eb60903417cf01b9b4de2637e8845480387e58b6694ca37cd",
		"ispd09f22/pvt5/twopole":   "db3f38f510ae985b251ed2bc1197c5b26727df7b0018aaabd2cc498c5917c909",
		"ispd09f22/mc:8:1/elmore":  "8e523c9488d2ae2c1cb6b556a1b375be9ad7d82f84bf8012c55bfbaed6ab3ce9",
		"ispd09f22/mc:8:1/twopole": "6796296ae5c9b5a64d244cee25f097b7d10c17fa0782bf1b83677ef0ba488828",
	}
	for treeName, tr := range trees {
		for _, setName := range []string{"pvt5", "mc:8:1"} {
			set, err := corners.Build(setName, tr.Tech)
			if err != nil {
				t.Fatal(err)
			}
			cs := set.Corners
			for _, ev := range []analysis.CornerEvaluator{&analysis.Elmore{}, &analysis.TwoPole{}} {
				key := treeName + "/" + setName + "/" + ev.Name()
				var serial []*analysis.Result
				for _, c := range cs {
					r, err := ev.Evaluate(tr, c)
					if err != nil {
						t.Fatal(err)
					}
					serial = append(serial, r)
				}
				batched, err := ev.EvaluateCorners(tr, cs)
				if err != nil {
					t.Fatal(err)
				}
				if got := resultsDigest(serial); got != want[key] {
					t.Errorf("%s Evaluate: digest %s, want %s", key, got, want[key])
				}
				if got := resultsDigest(batched); got != want[key] {
					t.Errorf("%s EvaluateCorners: digest %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
