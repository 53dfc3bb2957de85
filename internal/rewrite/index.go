package rewrite

import (
	"slices"
	"sort"

	"wetune/internal/constraint"
	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/sql"
	"wetune/internal/template"
)

// CompiledRule is a rules.Rule compiled once into matcher-ready form: the
// source template's shape fingerprint, the plan-operator kind its root can
// match, and the constraint machinery (equivalence classes, relocation
// targets, predicate/attribute pairings) pre-resolved so that applying the
// rule no longer recomputes the constraint closure per attempt.
type CompiledRule struct {
	Rule rules.Rule

	// rootKind is the plan operator kind the source template's root matches;
	// anyRoot is set when the root is a bare Input symbol (matches anything).
	rootKind plan.Kind
	anyRoot  bool

	// shapeKey is the ops-only preorder fingerprint of the source template;
	// rules with equal keys share one structural precheck per plan fragment.
	shapeKey string

	// syms numbers the symbols an attempt binds or reads: an attempt binds
	// syms[i] into slot i of matcher scratch, so it allocates no map. class[i]
	// lists, in class order, the slots of the members of syms[i]'s
	// unification class under the rule's equalities (nil when no equality
	// mentions it). The classes are the one reading of the equalities: the
	// constraint check requires every bound symbol to agree with the first
	// bound member of its class, and a symbol without a binding of its own (in
	// the check and in the resolver) takes that member's.
	syms  []template.Sym
	class [][]int

	// checks is the rule's non-equality constraint list in those slots,
	// compiled once so an attempt reads no constraint.Set.
	checks []check

	// predAttrs maps each predicate symbol to the attribute symbol paired
	// with it in the source template (destination-side column remapping).
	predAttrs map[template.Sym]template.Sym

	// relocTarget maps an attribute symbol to the relation symbols its
	// SubAttrs(a, a_r) constraints pin it to (in constraint order), kept only
	// when the rule also states a Unique constraint on the relation's RelEq
	// class (the soundness condition for moving a read between relation
	// instances).
	relocTarget map[template.Sym][]template.Sym
}

// slotOf returns s's slot, or -1 when the rule never binds or reads s.
func (cr *CompiledRule) slotOf(s template.Sym) int {
	for i, x := range cr.syms {
		if x == s {
			return i
		}
	}
	return -1
}

func (cr *CompiledRule) addSym(s template.Sym) int {
	if i := cr.slotOf(s); i >= 0 {
		return i
	}
	cr.syms = append(cr.syms, s)
	return len(cr.syms) - 1
}

// addSyms gives every symbol template n binds a slot, in preorder.
func (cr *CompiledRule) addSyms(n *template.Node) {
	switch n.Op {
	case template.OpInput:
		cr.addSym(n.Rel)
	case template.OpProj, template.OpInSub:
		cr.addSym(n.Attrs)
	case template.OpSel:
		cr.addSym(n.Attrs)
		cr.addSym(n.Pred)
	case template.OpIJoin, template.OpLJoin, template.OpRJoin:
		cr.addSym(n.Attrs)
		cr.addSym(n.Attrs2)
	case template.OpAgg:
		cr.addSym(n.Attrs)
		cr.addSym(n.Attrs2)
		cr.addSym(n.Func)
		cr.addSym(n.Pred)
	}
	for _, c := range n.Children {
		cr.addSyms(c)
	}
}

// setClasses fills class from the rule's unification, once every symbol has
// its slot: a member without one can never be bound. The members of a class
// share one slice.
func (cr *CompiledRule) setClasses(u constraint.Unification) {
	cr.class = make([][]int, len(cr.syms))
	var members []int // one backing array for every class
	for i, s := range cr.syms {
		if cr.class[i] != nil {
			continue // an earlier member filled its class
		}
		start := len(members)
		for _, m := range u.Members(s) {
			if j := cr.slotOf(m); j >= 0 {
				members = append(members, j)
			}
		}
		class := members[start:len(members):len(members)]
		for _, j := range class {
			cr.class[j] = class
		}
	}
}

// check is one Unique, NotNull, RefAttrs or SubAttrs constraint of a rule,
// its arguments as slots. A SubAttrs whose second argument is a relation's
// a_r has ofRel set and that relation's slot as args[1].
type check struct {
	kind  constraint.Kind
	ofRel bool
	args  [4]int
}

// CompileRule compiles one rule. The result is immutable and safe to share
// across concurrent matchers.
func CompileRule(r rules.Rule) *CompiledRule {
	cr := &CompiledRule{
		Rule:      r,
		shapeKey:  shapeKeyOf(r.Src),
		predAttrs: map[template.Sym]template.Sym{},
	}
	cr.rootKind, cr.anyRoot = rootKindOf(r.Src.Op)
	classes := constraint.Unify(r.Constraints)
	items := r.Constraints.Items()
	// Source symbols first, then the destination's, then the constraints'.
	cr.syms = make([]template.Sym, 0, 8)
	cr.addSyms(r.Src)
	cr.addSyms(r.Dest)
	r.Src.Walk(func(n *template.Node) {
		if n.Op == template.OpSel {
			if _, ok := cr.predAttrs[n.Pred]; !ok {
				cr.predAttrs[n.Pred] = n.Attrs
			}
		}
	})
	cr.checks = make([]check, 0, len(items))
	for _, c := range items {
		ck := check{kind: c.Kind}
		switch c.Kind {
		case constraint.SubAttrs:
			ck.args[0] = cr.addSym(c.Syms[0])
			if c.Syms[1].Kind == template.KAttrsOf {
				ck.ofRel = true
				ck.args[1] = cr.addSym(template.Sym{Kind: template.KRel, ID: c.Syms[1].ID})
			} else {
				ck.args[1] = cr.addSym(c.Syms[1])
			}
		case constraint.Unique, constraint.NotNull:
			ck.args[0], ck.args[1] = cr.addSym(c.Syms[0]), cr.addSym(c.Syms[1])
		case constraint.RefAttrs:
			ck.args = [4]int{cr.addSym(c.Syms[0]), cr.addSym(c.Syms[1]), cr.addSym(c.Syms[2]), cr.addSym(c.Syms[3])}
		default:
			continue // the equalities are read through the classes
		}
		cr.checks = append(cr.checks, ck)
	}
	// Every relocation target is the relation of a SubAttrs(a, a_r) above,
	// so it has its slot already.
	cr.relocTarget = relocTargets(items, classes)
	cr.setClasses(classes)
	return cr
}

// relocTargets precomputes the SubAttrs(a, a_r) relocation targets that the
// resolver may honor: only those whose relation symbol carries a Unique
// constraint somewhere in its RelEq class qualify (see resolver.relocate).
func relocTargets(items []constraint.C, classes constraint.Unification) map[template.Sym][]template.Sym {
	unique := func(rel template.Sym) bool {
		return slices.ContainsFunc(items, func(c constraint.C) bool { return c.Kind == constraint.Unique && c.Syms[0] == rel })
	}
	out := map[template.Sym][]template.Sym{}
	for _, c := range items {
		if c.Kind != constraint.SubAttrs || c.Syms[1].Kind != template.KAttrsOf {
			continue
		}
		relSym := template.Sym{Kind: template.KRel, ID: c.Syms[1].ID}
		if unique(relSym) || slices.ContainsFunc(classes.Members(relSym), unique) {
			out[c.Syms[0]] = append(out[c.Syms[0]], relSym)
		}
	}
	return out
}

// rootKindOf maps a template root operator to the plan kind it matches.
func rootKindOf(op template.Op) (kind plan.Kind, anyRoot bool) {
	switch op {
	case template.OpInput:
		return 0, true
	case template.OpProj:
		return plan.KProj, false
	case template.OpSel:
		return plan.KSel, false
	case template.OpInSub:
		return plan.KInSub, false
	case template.OpIJoin, template.OpLJoin, template.OpRJoin:
		return plan.KJoin, false
	case template.OpDedup:
		return plan.KDedup, false
	case template.OpAgg:
		return plan.KAgg, false
	case template.OpUnion:
		return plan.KUnion, false
	}
	return 0, true
}

// shapeKeyOf renders the ops-only preorder fingerprint of a template: the
// operator tree with all symbols erased. Rules sharing a key share one
// structural precheck per fragment.
func shapeKeyOf(n *template.Node) string {
	out := make([]byte, 0, 16)
	var rec func(m *template.Node)
	rec = func(m *template.Node) {
		out = append(out, byte('A'+int(m.Op)))
		for _, c := range m.Children {
			rec(c)
		}
	}
	rec(n)
	return string(out)
}

// shapeMatches checks that the plan fragment has the operator structure the
// template requires, without binding any symbols. Input symbols match any
// subtree. This is the cheap precheck run once per (shape, fragment) before
// the full matcher allocates bindings.
func shapeMatches(tpl *template.Node, n plan.Node) bool {
	switch tpl.Op {
	case template.OpInput:
		return true
	case template.OpProj:
		p, ok := n.(*plan.Proj)
		return ok && shapeMatches(tpl.Children[0], p.In)
	case template.OpSel:
		s, ok := n.(*plan.Sel)
		return ok && shapeMatches(tpl.Children[0], s.In)
	case template.OpInSub:
		is, ok := n.(*plan.InSub)
		return ok && shapeMatches(tpl.Children[0], is.In) && shapeMatches(tpl.Children[1], is.Sub)
	case template.OpIJoin, template.OpLJoin, template.OpRJoin:
		j, ok := n.(*plan.Join)
		if !ok {
			return false
		}
		var want sql.JoinKind
		switch tpl.Op {
		case template.OpIJoin:
			want = sql.InnerJoin
		case template.OpLJoin:
			want = sql.LeftJoin
		default:
			want = sql.RightJoin
		}
		if j.JoinKind != want {
			return false
		}
		return shapeMatches(tpl.Children[0], j.L) && shapeMatches(tpl.Children[1], j.R)
	case template.OpDedup:
		d, ok := n.(*plan.Dedup)
		return ok && shapeMatches(tpl.Children[0], d.In)
	case template.OpAgg:
		a, ok := n.(*plan.Agg)
		return ok && shapeMatches(tpl.Children[0], a.In)
	case template.OpUnion:
		u, ok := n.(*plan.Union)
		return ok && shapeMatches(tpl.Children[0], u.L) && shapeMatches(tpl.Children[1], u.R)
	}
	return false
}

// shapeGroup is a set of compiled rules whose source templates share one
// ops-only shape: the structural precheck runs once per (group, fragment).
type shapeGroup struct {
	shape *template.Node // representative source template
	rules []*CompiledRule
}

// RuleIndex is the shape-keyed rule index: rules bucketed by the plan
// operator kind their source root matches, grouped by source-template shape.
// It is immutable after construction and safe for concurrent readers.
type RuleIndex struct {
	byKind map[plan.Kind][]*shapeGroup
	// anyRoot holds rules whose source root is a bare Input (match anywhere).
	anyRoot []*shapeGroup
	// bucketSize caches the rule count per kind bucket (anyRoot included),
	// so pruning stats need no recount.
	bucketSize map[plan.Kind]int
	total      int
}

// NewRuleIndex compiles the rule set and builds the index. Bucket order
// preserves rule-set order, keeping candidate generation deterministic.
func NewRuleIndex(rs []rules.Rule) *RuleIndex {
	ix := &RuleIndex{
		byKind:     map[plan.Kind][]*shapeGroup{},
		bucketSize: map[plan.Kind]int{},
		total:      len(rs),
	}
	addToGroups := func(groups []*shapeGroup, cr *CompiledRule) []*shapeGroup {
		for _, g := range groups {
			if g.rules[0].shapeKey == cr.shapeKey {
				g.rules = append(g.rules, cr)
				return groups
			}
		}
		return append(groups, &shapeGroup{shape: cr.Rule.Src, rules: []*CompiledRule{cr}})
	}
	for _, r := range rs {
		cr := CompileRule(r)
		if cr.anyRoot {
			ix.anyRoot = addToGroups(ix.anyRoot, cr)
			continue
		}
		ix.byKind[cr.rootKind] = addToGroups(ix.byKind[cr.rootKind], cr)
	}
	anyCount := 0
	for _, g := range ix.anyRoot {
		anyCount += len(g.rules)
	}
	for kind, groups := range ix.byKind {
		n := anyCount
		for _, g := range groups {
			n += len(g.rules)
		}
		ix.bucketSize[kind] = n
	}
	return ix
}

// Total returns the number of indexed rules.
func (ix *RuleIndex) Total() int { return ix.total }

// BucketSize returns how many rules could possibly match a fragment of the
// given kind (the kind bucket plus any-root rules).
func (ix *RuleIndex) BucketSize(kind plan.Kind) int {
	if n, ok := ix.bucketSize[kind]; ok {
		return n
	}
	n := 0
	for _, g := range ix.anyRoot {
		n += len(g.rules)
	}
	return n
}

// groupsFor returns the shape groups whose rules could match a fragment of
// the given kind, kind-bucket groups first, then any-root groups.
func (ix *RuleIndex) groupsFor(kind plan.Kind) ([]*shapeGroup, []*shapeGroup) {
	return ix.byKind[kind], ix.anyRoot
}

// Rules returns the compiled rules sorted by rule number (for diagnostics).
func (ix *RuleIndex) Rules() []*CompiledRule {
	out := make([]*CompiledRule, 0, ix.total)
	for _, groups := range ix.byKind {
		for _, g := range groups {
			out = append(out, g.rules...)
		}
	}
	for _, g := range ix.anyRoot {
		out = append(out, g.rules...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule.No < out[j].Rule.No })
	return out
}
