package main

import (
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/ncval"
	"rocksalt/internal/policy"
)

var testSpecs = map[string]policy.Spec{
	"nacl-32":  policy.NaCl(),
	"nacl-16":  policy.NaCl16(),
	"reins-16": policy.REINS(),
}

func checkerFor(t *testing.T, name string) (*core.Checker, ncval.Config) {
	t.Helper()
	com, err := policy.Compile(testSpecs[name])
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCheckerFromPolicy(com)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ncval.ConfigForSpec(com.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return c, cfg
}

// TestCorpusAgainstNcval holds a fixed-seed corpus to its known answers
// under the independent ncval checker as well as core: every library
// page and tiled image is compliant, and every splice is rejected with
// the offset and kind the corpus predicts.
func TestCorpusAgainstNcval(t *testing.T) {
	const seed = 7
	lib := newLibrary(seed, policyNames)
	for _, p := range policyNames {
		c, cfg := checkerFor(t, p)
		l := layouts[p]
		for _, d := range densities {
			for i, page := range lib.pages[p+"/"+d.name] {
				if !cfg.Validate(page) {
					t.Fatalf("%s/%s page %d: ncval rejects a compliant page", p, d.name, i)
				}
				if rep := c.VerifyWith(page, core.VerifyOptions{}); !rep.Safe {
					t.Fatalf("%s/%s page %d: core rejects a compliant page: %v", p, d.name, i, rep.Err())
				}
			}
		}
		img := make([]byte, 5*windowBytes+7*l.bundle)
		lib.tile(img, p+"/medium", newRNG(seed, "tile"))
		if !cfg.Validate(img) {
			t.Fatalf("%s: ncval rejects a tiled image", p)
		}
		r := newRNG(seed, "splice/"+p)
		for k := 0; k < spliceKinds; k++ {
			for n := 0; n < 4; n++ {
				bad := append([]byte(nil), img...)
				want := splice(bad, spliceSite(r, len(bad), l, k), l, k)
				if cfg.Validate(bad) {
					t.Fatalf("%s splice %d: ncval accepts a violating image", p, k)
				}
				rep := c.VerifyWith(bad, core.VerifyOptions{})
				checkAnswer(t, p, k, rep, want)
			}
		}
	}
}

func checkAnswer(t *testing.T, p string, k int, rep *core.Report, want answer) {
	t.Helper()
	v := rep.First()
	if rep.Safe || v == nil {
		t.Fatalf("%s splice %d: core accepts a violating image", p, k)
	}
	if v.Offset != want.Offset || v.Kind.String() != want.Kind {
		t.Fatalf("%s splice %d: first violation %s at %#x, want %s at %#x", p, k, v.Kind, v.Offset, want.Kind, want.Offset)
	}
}
