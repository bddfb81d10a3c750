package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"contango/internal/bench"
)

// goldenPlan is the construction-only plan the golden rows run: every
// construction pass, then one cold multi-corner evaluation.
const goldenPlan = "zst,legalize,buffer,polarity"

// goldenDigest is the SHA-256 of a result's persisted envelope with the
// wall-clock Elapsed field zeroed — the only field allowed to vary between
// runs of the same inputs.
func goldenDigest(t *testing.T, r *Result) string {
	t.Helper()
	cp := *r
	cp.Elapsed = 0
	var buf bytes.Buffer
	if err := EncodeResult(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func checkGolden(t *testing.T, r *Result, want string) {
	t.Helper()
	if got := goldenDigest(t, r); got != want {
		t.Errorf("envelope digest %s, want %s", got, want)
	}
}

// TestGoldenConstructionDigests pins the exact persisted result of the
// construction pipeline on every ISPD'09 benchmark and on a sampled TI
// case. Any change to the construction numerics — DME merge order, detour
// geometry, the composite sweep, polarity fixup — changes a digest.
func TestGoldenConstructionDigests(t *testing.T) {
	want := map[string]string{
		"ispd09f11":  "67fc04f609af86645b18badd264fba739471276b041844bbd24d3c5e5e0651ef",
		"ispd09f12":  "9d4a1c47d29549b0a13db0144ccb41e351e7a97ef640a42ffe6b5ce316a84385",
		"ispd09f21":  "febfcd759c3f5dc6230a26d0e5138ff1330463fe672d5ef77a94735a9d6ff0fd",
		"ispd09f22":  "a709376323da6557af3e2f5026ce8b4cc91e0359d9abf343526348eb6d410c65",
		"ispd09f31":  "e80e93554a046f00dfa03b888f8d1cafc2b66e42677f8c67225329006bfb8dd3",
		"ispd09f32":  "bdf7c9b4163170bfb946ac46ef0dc7f8bb879ab836fab8dbda77dff5ae13474b",
		"ispd09fnb1": "9ce03a33b1aa12d345402e27629c91a940a5605e57816c1b976f21db527d721b",
	}
	for _, name := range bench.ISPD09Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := bench.ISPD09(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Synthesize(b, Options{Plan: goldenPlan, FastSim: true})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, res, want[name])
		})
	}
	t.Run("ti-2000", func(t *testing.T) {
		b := bench.NewTIPool().Sample(2000, 1)
		res, err := Synthesize(b, Options{Plan: goldenPlan, FastSim: true})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res, "79566603f694132c38f5c7faabcf9d0a0c12ce784258273ca11a1d7ef5684665")
	})
}

// TestGoldenBaselineDigests pins the Table IV baseline flows.
func TestGoldenBaselineDigests(t *testing.T) {
	cases := []struct {
		bench string
		kind  BaselineKind
		want  string
	}{
		{"ispd09f12", BaselineNoOpt, "cf173ebab159bf614c55d6daab2507096d24a869d64d3761fe3d52b45ac72e90"},
		{"ispd09f12", BaselineGreedy, "3367ca335c4bac77edb20161dc741d11a670ee9a567238dde9393a3e98628443"},
		{"ispd09f12", BaselineBST, "1113921146c62b46ef339467bdf0f7a9a9e2d43f85b2df805d367c868c57e1df"},
		{"ispd09f22", BaselineNoOpt, "6ce8e31a3176e111e20c184c96162477746bd26b5f836455caee7fd0270bbbe0"},
		{"ispd09f22", BaselineGreedy, "87f1853d6c6238b032ce886f39f0a2c3fa3569fc985b6f6988a8f0a5dcae793a"},
		{"ispd09f22", BaselineBST, "4ad3ec09082125897509b12ea035549e466eaebce75db398e31ffb6d591b5da8"},
		// Contour detours on these trees wrap past the ring's start vertex.
		{"ispd09f21", BaselineGreedy, "630b7c8cfb3c31d91e8589a92b7d60f520191dd2c2aa1badc48f1ac64a9948c7"},
		{"ispd09f31", BaselineGreedy, "9f8274589247a188ce49ca3a2d7174bc4849ae893657e59ddf5430f8f0fc2295"},
		{"ispd09f31", BaselineBST, "69720dddcaa494d934e68dd04101f2051dd37d63c8b74ab760e86a7aef7b590d"},
		{"ispd09f32", BaselineBST, "43eb1db28c36f2ea3282a589229eaa15a82e3a5e5420cb5733c2a7201d559ade"},
		{"ispd09fnb1", BaselineGreedy, "7fbb6f45b9d27f04ae1164156b3cd36958cdf5e483cc81a7462b1cc01eb71e61"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.bench+"/"+tc.kind.String(), func(t *testing.T) {
			b, err := bench.ISPD09(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			res, err := SynthesizeBaseline(b, tc.kind, Options{FastSim: true})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, res, tc.want)
		})
	}
}
