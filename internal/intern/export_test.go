package intern

import (
	"wetune/internal/fol"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// predAppAt is MkPredApp with the hash h given in place of the structural
// one, so a test can file two distinct nodes under one hash.
func (p *Pool) predAppAt(h uint64, pred template.Sym, t uexpr.Tuple) fol.Formula {
	return poolF(p, h, fol.PredApp{Pred: pred, T: t})
}

// varAt is MkVar with the hash h given.
func (p *Pool) varAt(h uint64, id int) uexpr.Tuple { return p.mkVar(h, id) }
