package engine

import (
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/lexer"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// Plan cache. A SELECT's compiled plan depends only on its canonical
// (auto-parameterized) text, the session's planning knobs and the
// catalog version — literals and parameters are evaluated at open
// time, so one plan serves every binding. Two levels share one entry
// type: each session's L1 maps canonical text to a private entry
// (lock-free by the single-goroutine session contract) in front of the
// engine-wide cache of immutable templates (sharedcache.go). DDL bumps
// the engine's global version and stale entries fall out lazily on the
// next lookup. Statements the canonical path declines — fold-sensitive
// shapes, INSERT ... SELECT, IF bodies, scripts — are compiled on every
// execution.

// planEntry is one plan-cache entry at either level: a compiled plan
// with the knobs and catalog version it was compiled under and the
// number of parameter slots (lifted literals and user placeholders) it
// binds. A bypass entry carries no plan: it marks a canonical shape
// that auto-parameterization would plan differently (constant folding
// is literal-sensitive), so every statement normalizing to it is
// compiled from its own text. Fold sensitivity is a property of the
// shape alone, so a bypass entry matches any knobs and any version.
type planEntry struct {
	*compiled
	knobs   knobs
	version int64
	slots   int
	bypass  bool
}

// matches reports whether the entry serves statements planned under k.
func (pe *planEntry) matches(k knobs) bool { return pe.bypass || pe.knobs == k }

// adopt returns a session-private copy of a shared template: the same
// entry over a deep clone of the plan, whose audit operators the
// session may rebind.
func (pe *planEntry) adopt() *planEntry {
	c := *pe.compiled
	c.root = plan.CloneNode(c.root)
	cp := *pe
	cp.compiled = &c
	return &cp
}

// runnable reports whether a resolved entry can execute a statement
// with the given number of slots; nil (the canonical text failed to
// plan) and bypass entries send the statement to the compile path.
func (pe *planEntry) runnable(slots int) bool {
	return pe != nil && !pe.bypass && pe.slots == slots
}

// planCacheCap bounds one session's L1. Eviction is wholesale: a
// session cycling through more than this many distinct shapes is not a
// repeat-heavy workload, and wholesale reset is cheaper than LRU
// bookkeeping on the hit path.
const planCacheCap = 128

// cachedCanonPlan returns the session's L1 entry for the canonical
// text if present and valid under k and the catalog version.
// Stale-version entries are dropped on sight; knob mismatches are left
// in place (the store after re-adoption overwrites them).
func (s *Session) cachedCanonPlan(canon []byte, k knobs, version int64) *planEntry {
	s.lock()
	defer s.unlock()
	pe := s.canonCache[string(canon)]
	switch {
	case pe == nil || pe.bypass:
		return pe
	case pe.version != version:
		delete(s.canonCache, string(canon))
		return nil
	case pe.knobs != k:
		return nil
	}
	return pe
}

// storeCanonPlan caches an entry in the session's L1.
func (s *Session) storeCanonPlan(canon []byte, pe *planEntry) {
	s.lock()
	defer s.unlock()
	if s.canonCache == nil || len(s.canonCache) >= planCacheCap {
		s.canonCache = make(map[string]*planEntry)
	}
	s.canonCache[string(canon)] = pe
}

// adoptCanonPlan resolves the canonical text to a session-private
// entry: L1, then the engine-wide shared cache (adoption deep-clones
// the template), then a cold compile of the canonical text itself. src
// names the level that supplied the plan ("hit", "shared", "cold") for
// the statement trace's plan span. nil means the canonical text failed
// to plan — callers fall back to compiling the original statement so
// the error is reported against the original SQL.
func (e *Engine) adoptCanonPlan(s *Session, canon []byte, user []bool, k knobs, version int64) (pe *planEntry, src string) {
	if pe := s.cachedCanonPlan(canon, k, version); pe != nil {
		if !pe.bypass {
			e.planCacheHits.Add(1)
		}
		return pe, "hit"
	}
	if v := e.sharedPlans.lookup(canon, k, version); v != nil {
		pe := v
		if !v.bypass {
			pe = v.adopt()
			e.sharedCacheHits.Add(1)
		}
		s.storeCanonPlan(canon, pe)
		return pe, "shared"
	}
	e.sharedCacheMisses.Add(1)
	return e.planCanonSelect(s, canon, user, k, version), "cold"
}

// planCanonSelect is the cold path: parse the canonical text, detect
// fold-sensitive shapes (published as bypass markers), compile, publish
// the immutable template engine-wide and adopt a private clone.
func (e *Engine) planCanonSelect(s *Session, canon []byte, user []bool, k knobs, version int64) *planEntry {
	sel, err := parser.ParseQuery(string(canon))
	if err != nil {
		return nil
	}
	if foldSensitiveSelect(sel, user) {
		pe := &planEntry{bypass: true}
		e.publishSharedPlan(canon, pe)
		s.storeCanonPlan(canon, pe)
		return pe
	}
	planStart := time.Now()
	c, err := e.compile(sel, rootActionEnv(), k)
	if err != nil {
		return nil
	}
	e.planSeconds.ObserveDuration(time.Since(planStart))
	tmpl := &planEntry{compiled: c, knobs: k, version: version, slots: len(user)}
	e.publishSharedPlan(canon, tmpl)
	pe := tmpl.adopt()
	s.storeCanonPlan(canon, pe)
	return pe
}

// publishSharedPlan stores a template engine-wide and accounts the
// eviction counter.
func (e *Engine) publishSharedPlan(canon []byte, v *planEntry) {
	evicted, _ := e.sharedPlans.store(canon, v)
	if evicted > 0 {
		e.sharedCacheEvictions.Add(int64(evicted))
	}
}

// foldSensitiveSelect reports whether auto-parameterization would
// change the statement's plan shape. The optimizer folds comparisons
// whose operands are both constants (opt.foldConstants) and prunes the
// resulting TRUE conjuncts; a lifted literal compiles to a Param,
// which never folds. So a comparison is sensitive exactly when both
// operands were literal-or-placeholder in the canonical text and at
// least one of them is an auto-lifted literal (a user-written ? never
// folds in the original either). user maps placeholder index → user
// slot, as produced by lexer.Normalize.
func foldSensitiveSelect(sel *ast.Select, user []bool) bool {
	sens := false
	var walkExpr func(e ast.Expr)
	var walkSel func(q *ast.Select)
	walkExpr = func(e ast.Expr) {
		ast.WalkExprs(e, func(x ast.Expr) {
			switch n := x.(type) {
			case *ast.Binary:
				switch n.Op {
				case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
					if constOperand(n.L, user) && constOperand(n.R, user) &&
						(autoSlot(n.L, user) || autoSlot(n.R, user)) {
						sens = true
					}
				}
			case *ast.InSubquery:
				walkSel(n.Sub)
			case *ast.Exists:
				walkSel(n.Sub)
			case *ast.ScalarSubquery:
				walkSel(n.Sub)
			}
		})
	}
	var walkFrom func(t ast.TableRef)
	walkFrom = func(t ast.TableRef) {
		switch r := t.(type) {
		case *ast.JoinRef:
			walkFrom(r.Left)
			walkFrom(r.Right)
			walkExpr(r.On)
		case *ast.SubqueryRef:
			walkSel(r.Sub)
		}
	}
	walkSel = func(q *ast.Select) {
		for _, it := range q.Items {
			walkExpr(it.Expr)
		}
		for _, t := range q.From {
			walkFrom(t)
		}
		walkExpr(q.Where)
		for _, g := range q.GroupBy {
			walkExpr(g)
		}
		walkExpr(q.Having)
		for _, o := range q.OrderBy {
			walkExpr(o.Expr)
		}
	}
	walkSel(sel)
	return sens
}

func constOperand(e ast.Expr, user []bool) bool {
	switch x := e.(type) {
	case *ast.Literal:
		return true
	case *ast.Placeholder:
		return x.Idx >= 0 && x.Idx < len(user)
	}
	return false
}

func autoSlot(e ast.Expr, user []bool) bool {
	ph, ok := e.(*ast.Placeholder)
	return ok && ph.Idx >= 0 && ph.Idx < len(user) && !user[ph.Idx]
}

// bindSlots builds the per-execution parameter vector for a canonical
// plan: lifted literal values interleaved, in source order, with the
// caller's bindings for user-written placeholders. dst is reused
// scratch.
func bindSlots(dst, vals []value.Value, user []bool, userParams []value.Value) []value.Value {
	dst = dst[:0]
	j := 0
	for i, v := range vals {
		if user[i] {
			v = userParams[j]
			j++
		}
		dst = append(dst, v)
	}
	return dst
}

// runCanon is the one bind-and-run tail for a cached canonical plan:
// build the slot vector — lifted literals interleaved with the caller's
// bindings in env.params — in the session's reusable scratch, then run
// the execution tail, which binds fresh probes.
func (e *Engine) runCanon(pe *planEntry, vals []value.Value, user []bool, sql string, env *actionEnv, start time.Time) (*Result, error) {
	s := e.sessionOf(env)
	s.lock()
	scratch := s.paramScratch
	s.paramScratch = nil
	s.unlock()
	env.params = bindSlots(scratch, vals, user, env.params)
	res, err := e.executeSelect(pe.compiled, sql, env, pe.knobs.workers, start)
	s.lock()
	s.paramScratch = env.params
	s.unlock()
	return res, err
}

// execCanonSelect executes a statement that skipped parsing through
// the canonical plan cache: resolve the plan (L1 → shared → cold), then
// run it under the same depth-0 preamble as a parsed statement.
// handled=false sends the caller to the ordinary parse path — either
// the canonical text failed to plan (error fidelity) or the shape is
// fold-sensitive.
func (s *Session) execCanonSelect(sql string, canon []byte, vals []value.Value, user []bool, userParams []value.Value) (*Result, bool, error) {
	e := s.e
	if e.disablePlanCache {
		return nil, false, nil
	}
	adoptStart := time.Now()
	pe, src := e.adoptCanonPlan(s, canon, user, s.planKnobs(), e.ddlVersion.Load())
	if !pe.runnable(len(vals)) {
		return nil, false, nil
	}
	// The statement's trace recorder has not begun yet — stage the
	// plan-cache outcome for traceBegin to consume.
	s.pendPlanSrc = src
	s.pendPlanNanos = int64(time.Since(adoptStart))
	res, err := e.traced(s, sql, func() (*Result, error) {
		start := time.Now()
		e.stats.Statements.Add(1)
		e.stats.Queries.Add(1)
		env := s.rootEnv()
		env.params = userParams
		return e.inUnit(env, func() (*Result, error) {
			return e.runCanon(pe, vals, user, sql, env, start)
		})
	})
	return res, true, err
}

// tryNormSelect is the zero-parse fast path for a statement a session
// issues directly (Exec/Query): normalize, then execute through the
// canonical plan cache. handled=false means "not a plain SELECT, or
// the cache declined" and the caller parses as before.
func (s *Session) tryNormSelect(sql string, userParams []value.Value) (*Result, bool, error) {
	normStart := time.Now()
	if !lexer.Normalize(sql, &s.norm) || s.norm.NUser != len(userParams) {
		return nil, false, nil
	}
	s.pendNorm = time.Since(normStart)
	s.e.parseSeconds.ObserveDuration(s.pendNorm)
	return s.execCanonSelect(sql, s.norm.Canonical, s.norm.Vals, s.norm.User, userParams)
}
