package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"idl/internal/ast"
	"idl/internal/object"
)

// Explain reports how the engine would evaluate a query: the safety-
// scheduled order of its top-level conjuncts and, for each, the access
// path of its outermost set expression (index probe vs. scan) and the
// variables it binds. It is a static analysis — no data is enumerated
// beyond resolving index applicability — backing the CLI's `\explain`.
type Explain struct {
	Steps []ExplainStep

	// Analyzed is set by ExplainAnalyzeQuery: the query was executed and
	// each step carries actuals; Rows/Total summarize the run.
	Analyzed bool
	Rows     int
	Total    time.Duration
}

// ExplainStep describes one scheduled conjunct.
type ExplainStep struct {
	Conjunct string   // source rendering
	Kind     string   // "query", "negation", "constraint"
	Access   string   // "index", "scan", "navigate", "n/a"
	Binds    []string // variables this conjunct can produce
	Consumes []string // variables it needs bound first
	Deferred bool     // true when scheduling moved it later than written
	// Skipped marks a conjunct over a federated member database whose
	// last sync failed: in best-effort mode it evaluates against an empty
	// member and contributes nothing.
	Skipped bool
	// EstRows is the planner's estimated row count for this conjunct,
	// from catalog statistics; Estimated marks the estimate as present.
	// Higher-order conjuncts (whose enumeration statistics cannot bound)
	// and unplanned runs carry none.
	EstRows   int64
	Estimated bool
	// Analyze carries runtime actuals when the plan came from
	// ExplainAnalyzeQuery; nil on static plans.
	Analyze *StepActuals
}

// StepActuals are one conjunct's measured runtime behaviour: rows it
// produced (continuation entries), evaluator work, and self wall time
// (excluding downstream conjuncts).
type StepActuals struct {
	Rows        uint64
	Scanned     uint64
	IndexProbes uint64
	Time        time.Duration
}

// String renders the plan as an indented list; analyzed plans append
// per-step actuals and a summary line.
func (e *Explain) String() string {
	var b strings.Builder
	for i, s := range e.Steps {
		fmt.Fprintf(&b, "%d. [%s/%s] %s", i+1, s.Kind, s.Access, s.Conjunct)
		if len(s.Binds) > 0 {
			fmt.Fprintf(&b, "  binds %s", strings.Join(s.Binds, ","))
		}
		if len(s.Consumes) > 0 {
			fmt.Fprintf(&b, "  needs %s", strings.Join(s.Consumes, ","))
		}
		if s.Deferred {
			b.WriteString("  (deferred)")
		}
		if s.Skipped {
			b.WriteString("  (skipped: member unavailable)")
		}
		if s.Estimated {
			fmt.Fprintf(&b, "  (est rows=%d)", s.EstRows)
		}
		if s.Analyze != nil {
			fmt.Fprintf(&b, "  (actual rows=%d scanned=%d probes=%d time=%s)",
				s.Analyze.Rows, s.Analyze.Scanned, s.Analyze.IndexProbes, s.Analyze.Time)
		}
		if i < len(e.Steps)-1 || e.Analyzed {
			b.WriteByte('\n')
		}
	}
	if e.Analyzed {
		fmt.Fprintf(&b, "-- %d rows, total time=%s", e.Rows, e.Total)
	}
	return b.String()
}

// ExplainQuery produces the evaluation plan for a query without running
// it.
func (e *Engine) ExplainQuery(q *ast.Query) (*Explain, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ast.HasUpdate(q.Body) {
		return nil, fmt.Errorf("core: cannot explain an update request")
	}
	eff, err := e.refreshEffective(nil)
	if err != nil {
		return nil, err
	}
	plan, _ := e.planQuery(e.transientAnalysis(q, eff, e.opts), eff)
	return plan, nil
}

// ExplainAnalyzeQuery produces the plan and then executes the query,
// annotating each step with its measured actuals (rows produced, set
// elements scanned, index probes, self wall time). Both the plan and the
// answer are returned.
func (e *Engine) ExplainAnalyzeQuery(ctx context.Context, q *ast.Query) (*Explain, *Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ast.HasUpdate(q.Body) {
		return nil, nil, fmt.Errorf("core: cannot explain an update request")
	}
	cctx := cancellable(ctx)
	eff, err := e.refreshEffective(cctx)
	if err != nil {
		return nil, nil, err
	}
	// Execute with the same compiled body — and so the same ranks — the
	// plan simulation used, so the actuals attach to the order the steps
	// report.
	an := e.transientAnalysis(q, eff, e.opts)
	plan, order := e.planQuery(an, eff)
	probes := newProbes(an.body.Conjuncts)
	var local Stats
	span := e.tracer.Start("explain-analyze")
	start := time.Now()
	analyze := &analyzeState{probes: probes}
	rows, err := e.collect(cctx, an, e.lockedView(), &local, analyze)
	total := time.Since(start)
	e.addStats(local)
	if e.em != nil {
		e.em.record(&e.em.query, start, local, err)
	}
	if span != nil {
		endQuerySpan(span, rows.len(), local, an, analyze)
	}
	if err != nil {
		return nil, nil, err
	}
	for i, c := range order {
		if p := probes[c]; p != nil {
			plan.Steps[i].Analyze = &StepActuals{
				Rows:        p.rows,
				Scanned:     p.scanned,
				IndexProbes: p.indexProbes,
				Time:        p.selfTime,
			}
		}
	}
	plan.Analyzed = true
	plan.Rows = rows.len()
	plan.Total = total
	return plan, &Answer{Vars: an.output(), rows: rows}, nil
}

// planQuery simulates the conjunct scheduler over a compiled body
// against the effective universe, returning the static plan plus the
// scheduled conjuncts in step order (the mapping ANALYZE uses to attach
// actuals). an carries the cost ranks the real scheduler would use (none
// under NoSchedule, where ranks would misreport the strict left-to-right
// order): among runnable conjuncts the cheapest is picked, source order
// breaking ties — the same rule as tupleFrame.step. Callers hold e.mu.
func (e *Engine) planQuery(an *bodyAnalysis, eff *object.Tuple) (*Explain, []ast.Expr) {
	conjuncts := an.body.Conjuncts
	consumed := make([][]string, len(conjuncts))
	for i, c := range conjuncts {
		consumed[i] = consumedVars(c)
	}
	ranks := an.ranks
	empty := newEnv(an.sc.size())
	// Simulate the scheduler: repeatedly pick the cheapest conjunct whose
	// consumed variables are all "bound" by previously scheduled ones.
	bound := map[string]bool{}
	remaining := make([]int, len(conjuncts))
	for i := range remaining {
		remaining[i] = i
	}
	plan := &Explain{}
	var order []ast.Expr
	var scheduled []int
	for len(remaining) > 0 {
		pick := -1
		for pos, idx := range remaining {
			ok := true
			for _, v := range consumed[idx] {
				if !bound[v] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if ranks == nil {
				pick = pos
				break
			}
			if pick < 0 || ranks[idx] < ranks[remaining[pick]] {
				pick = pos
			}
		}
		if pick < 0 {
			pick = 0
		}
		idx := remaining[pick]
		step := e.explainConjunct(conjuncts[idx], consumed[idx], eff, empty)
		if ranks != nil && ranks[idx] < costHuge {
			step.EstRows = int64(ranks[idx])
			step.Estimated = true
		}
		if len(e.unavailable) > 0 {
			if a, ok := conjuncts[idx].(*ast.AttrExpr); ok {
				if db, ok := constTermName(a.Name); ok && e.unavailable[db] {
					step.Skipped = true
				}
			}
		}
		// Deferred: a textually later conjunct ran first.
		for _, done := range scheduled {
			if done > idx {
				step.Deferred = true
				break
			}
		}
		scheduled = append(scheduled, idx)
		plan.Steps = append(plan.Steps, step)
		order = append(order, conjuncts[idx])
		for _, v := range step.Binds {
			bound[v] = true
		}
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	return plan, order
}

// explainConjunct classifies one conjunct and resolves its access path
// against the effective universe.
func (e *Engine) explainConjunct(c ast.Expr, consumes []string, eff *object.Tuple, empty *Env) ExplainStep {
	step := ExplainStep{
		Conjunct: c.String(),
		Kind:     "query",
		Access:   "n/a",
		Consumes: consumes,
	}
	switch x := c.(type) {
	case *ast.Not:
		step.Kind = "negation"
		inner := e.explainConjunct(x.X, nil, eff, empty)
		step.Access = inner.Access
		return step
	case *ast.Constraint:
		step.Kind = "constraint"
		step.Binds = producerVars(c, consumes)
		return step
	case *ast.AttrExpr:
		step.Binds = producerVars(c, consumes)
		step.Access = e.accessPath(x, eff, empty)
		ast.Walk(c, func(node ast.Expr) bool {
			if _, isNot := node.(*ast.Not); isNot {
				step.Kind = "negation"
				return false
			}
			return true
		})
		return step
	default:
		step.Binds = producerVars(c, consumes)
		return step
	}
}

// producerVars lists the variables a conjunct can bind: its variables
// minus the consumed ones.
func producerVars(c ast.Expr, consumes []string) []string {
	consumed := map[string]bool{}
	for _, v := range consumes {
		consumed[v] = true
	}
	var out []string
	for _, v := range ast.Vars(c) {
		if !consumed[v] {
			out = append(out, v)
		}
	}
	return out
}

// accessPath resolves whether the conjunct's relation-level set
// expression would use an attribute index.
func (e *Engine) accessPath(a *ast.AttrExpr, eff *object.Tuple, empty *Env) string {
	// Walk the path: db attr -> rel attr -> set expr.
	dbName, ok := constTermName(a.Name)
	if !ok {
		return "scan" // higher-order database enumeration
	}
	inner, ok := a.Expr.(*ast.TupleExpr)
	if !ok || len(inner.Conjuncts) != 1 {
		return "navigate"
	}
	relAttr, ok := inner.Conjuncts[0].(*ast.AttrExpr)
	if !ok {
		return "navigate"
	}
	var set *object.Set
	if relName, ok := constTermName(relAttr.Name); ok {
		dbObj, has := eff.Get(dbName)
		if !has {
			return "scan"
		}
		dbt, isT := dbObj.(*object.Tuple)
		if !isT {
			return "scan"
		}
		relObj, has := dbt.Get(relName)
		if !has {
			return "scan"
		}
		set, _ = relObj.(*object.Set)
	}
	se, ok := relAttr.Expr.(*ast.SetExpr)
	if !ok {
		if nse, isNot := relAttr.Expr.(*ast.Not); isNot {
			se, ok = nse.X.(*ast.SetExpr)
			if !ok {
				return "navigate"
			}
		} else {
			return "navigate"
		}
	}
	if !e.opts.UseIndex || set == nil || set.Len() < 16 {
		return "scan"
	}
	te, ok := se.X.(*ast.TupleExpr)
	if !ok {
		return "scan"
	}
	for _, c := range te.Conjuncts {
		// A conjunct with a constant attribute name and a ground-or-
		// bindable equality can use the index once its term is ground;
		// statically we report "index" for constant equalities.
		if attr, _, ok := groundEqConjunct(c, empty); ok && attr != "" {
			return "index"
		}
	}
	return "scan"
}

func constTermName(t ast.Term) (string, bool) {
	c, ok := t.(ast.Const)
	if !ok {
		return "", false
	}
	s, ok := c.Value.(object.Str)
	return string(s), ok
}
