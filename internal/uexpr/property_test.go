package uexpr

import (
	"math/rand"
	"testing"

	"wetune/internal/template"
)

// randTemplate builds a random template of the given size using the
// enumeration's operator set (deterministic per seed).
func randTemplate(rng *rand.Rand, size int) *template.Node {
	ts := template.Enumerate(template.EnumOptions{MaxSize: size})
	return ts[rng.Intn(len(ts))]
}

// Property: normalization is deterministic — translating and normalizing the
// same template twice yields identical canonical forms.
func TestPropNormalizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		tpl := randTemplate(rng, 2)
		e1, v1, err := Translate(tpl)
		if err != nil {
			continue
		}
		e2, v2, err := Translate(tpl)
		if err != nil {
			continue
		}
		e2 = SubstTuple(e2, v2.ID, v1)
		c1 := Normalize(e1, EmptyEnv()).Canon()
		c2 := Normalize(e2, EmptyEnv()).Canon()
		if c1 != c2 {
			t.Fatalf("template %s normalizes unstably:\n  %s\n  %s", tpl, c1, c2)
		}
	}
}

// Property: renaming a template's symbols uniformly (alpha-renaming) yields a
// canonical form that differs only by the symbol names — in particular,
// renaming back must restore the original form.
func TestPropSymbolRenameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		tpl := randTemplate(rng, 2)
		shift := map[template.Sym]template.Sym{}
		unshift := map[template.Sym]template.Sym{}
		for _, s := range tpl.Symbols() {
			if s.Kind == template.KAttrsOf {
				continue
			}
			ns := template.Sym{Kind: s.Kind, ID: s.ID + 50}
			shift[s] = ns
			unshift[ns] = s
		}
		back := tpl.Substitute(shift).Substitute(unshift)
		if back.String() != tpl.String() {
			t.Fatalf("rename round trip broke: %s vs %s", tpl, back)
		}
	}
}

// Property: a template is always equivalent to itself under the empty
// environment (reflexivity of the algebraic check).
func TestPropSelfEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		tpl := randTemplate(rng, 2)
		e1, v1, err := Translate(tpl)
		if err != nil {
			continue
		}
		e2, v2, err := Translate(tpl.Clone())
		if err != nil {
			continue
		}
		e2 = SubstTuple(e2, v2.ID, v1)
		if c1, c2 := Normalize(e1, EmptyEnv()).Canon(), Normalize(e2, EmptyEnv()).Canon(); c1 != c2 {
			t.Fatalf("template %s not self-equivalent", tpl)
		}
	}
}

// Property: two DIFFERENT canonical templates of the same size must not
// normalize to the same form under the empty environment unless they are
// genuinely equivalent; spot-check that the normalizer is not collapsing
// everything (at least 80%% of distinct size-2 templates stay distinct).
func TestPropNormalizerNotDegenerate(t *testing.T) {
	ts := template.Enumerate(template.EnumOptions{MaxSize: 2})
	seen := map[string]int{}
	total := 0
	for _, tpl := range ts {
		e, _, err := Translate(tpl)
		if err != nil {
			continue
		}
		total++
		seen[Normalize(e, EmptyEnv()).Canon()]++
	}
	if len(seen) < total*8/10 {
		t.Fatalf("normalizer collapsed %d templates into %d classes", total, len(seen))
	}
}
