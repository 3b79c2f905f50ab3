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
// it. It takes the plan the way a read does — from the pinned snapshot
// and the plan cache — so it reports the plan the query's reads run, but
// it counts no lookup and caches no compile: the cache's statistics and
// contents are the same after an EXPLAIN as before it.
func (e *Engine) ExplainQuery(q *ast.Query) (*Explain, error) {
	if e.IsUpdate(q) {
		return nil, fmt.Errorf("core: cannot explain an update request")
	}
	_, plan, err := e.read(context.Background(), shapeOf(q), readExplain)
	return plan, err
}

// ExplainAnalyzeQuery produces the plan and then executes the query — a
// measured read on the same path as QueryCtx — annotating each step with
// its measured actuals (rows produced, set elements scanned, index
// probes, self wall time). Both the plan and the answer are returned.
func (e *Engine) ExplainAnalyzeQuery(ctx context.Context, q *ast.Query) (*Explain, *Answer, error) {
	if e.IsUpdate(q) {
		return nil, nil, fmt.Errorf("core: cannot explain an update request")
	}
	ans, plan, err := e.read(ctx, shapeOf(q), readAnalyze)
	return plan, ans, err
}

// annotate attaches a measured run's actuals to the steps: the probes are
// the body program's, by step, and so are the steps (planQuery).
func (x *Explain) annotate(probes []conjunctProbe, rows int, total time.Duration) {
	for i := range probes {
		p := &probes[i]
		x.Steps[i].Analyze = &StepActuals{
			Rows:        p.rows,
			Scanned:     p.scanned,
			IndexProbes: p.indexProbes,
			Time:        p.selfTime,
		}
	}
	x.Analyzed = true
	x.Rows = rows
	x.Total = total
}

// planQuery reports a plan's body against a read view: one step per step
// of the body's program (sched.go), in the order evaluation runs them. A
// step's access path is the index rule's answer (accessPath) under a
// substitution with the read's literals bound and each earlier step's
// producer variables bound to a placeholder, as they will be at run time.
// A step's estimate is the view's own (estimateConjunct), not the rank
// the plan carries: a reused plan may have been ranked on an older
// version, with the same order. Steps render the read's own literals
// (unlift): a shared plan was compiled for some statement of the same
// shape, whose literals may differ.
func (e *Engine) planQuery(an *bodyAnalysis, rv readView) *Explain {
	env := an.newEnv()
	plan := &Explain{}
	top := an.top()
	if top == nil {
		return plan
	}
	last := -1 // the latest source position run so far
	for _, st := range top.steps {
		c := st.c
		step := explainConjunct(c, consumedVars(c), rv, env)
		step.Conjunct = unlift(c, env).String()
		if an.ranks != nil {
			if est := estimateConjunct(c, rv.eff); est < costHuge {
				step.EstRows = int64(est)
				step.Estimated = true
			}
		}
		if a, ok := c.(*ast.AttrExpr); ok {
			if db, ok := ast.ConstName(a.Name); ok && rv.unavailable[db] {
				step.Skipped = true
			}
		}
		// Deferred: a textually later conjunct ran first.
		step.Deferred = last > st.src
		last = max(last, st.src)
		plan.Steps = append(plan.Steps, step)
		for _, v := range step.Binds {
			if slot := an.sc.lookup(v); !env.Bound(slot) {
				env.Bind(slot, object.Int(0)) // an atom, as index keys are
			}
		}
	}
	return plan
}

// explainConjunct classifies one conjunct and resolves its access path
// under env, the simulated substitution before it runs; the caller
// renders it.
func explainConjunct(c ast.Expr, consumes []string, rv readView, env *Env) ExplainStep {
	step := ExplainStep{
		Kind:     "query",
		Access:   "n/a",
		Consumes: consumes,
	}
	switch x := c.(type) {
	case *ast.Not:
		step.Kind = "negation"
		inner := explainConjunct(x.X, nil, rv, env)
		step.Access = inner.Access
		return step
	case *ast.Constraint:
		step.Kind = "constraint"
		step.Binds = producerVars(c, consumes)
		return step
	case *ast.AttrExpr:
		step.Binds = producerVars(c, consumes)
		step.Access = accessPath(x, rv, env)
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
// expression is answered by an attribute index under env (indexKeys).
func accessPath(a *ast.AttrExpr, rv readView, env *Env) string {
	eff := rv.eff
	// Walk the path: db attr -> rel attr -> set expr.
	dbName, ok := ast.ConstName(a.Name)
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
	if relName, ok := ast.ConstName(relAttr.Name); ok {
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
	var keys [4]object.AttrEq
	if !rv.opts.UseIndex || set == nil || len(indexKeys(keys[:0], se, set, env)) == 0 {
		return "scan"
	}
	return "index"
}
