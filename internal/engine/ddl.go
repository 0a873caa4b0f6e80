package engine

import (
	"fmt"
	"strings"

	"auditdb/internal/ast"
	"auditdb/internal/catalog"
	"auditdb/internal/plan"
)

func (e *Engine) runCreateTable(s *ast.CreateTable) (*Result, error) {
	meta := &catalog.TableMeta{Name: s.Name}
	for _, c := range s.Columns {
		meta.Columns = append(meta.Columns, catalog.Column{Name: c.Name, Type: c.Type})
		if c.PrimaryKey {
			meta.PrimaryKey = append(meta.PrimaryKey, len(meta.Columns)-1)
		}
	}
	for _, pk := range s.PrimaryKey {
		ord := meta.ColumnIndex(pk)
		if ord < 0 {
			return nil, fmt.Errorf("PRIMARY KEY column %q not defined", pk)
		}
		meta.PrimaryKey = append(meta.PrimaryKey, ord)
	}
	if err := e.cat.AddTable(meta); err != nil {
		return nil, err
	}
	if _, err := e.store.Create(meta); err != nil {
		_ = e.cat.DropTable(meta.Name)
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) runCreateIndex(s *ast.CreateIndex) (*Result, error) {
	meta, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}
	var ords []int
	for _, c := range s.Columns {
		ord := meta.ColumnIndex(c)
		if ord < 0 {
			return nil, fmt.Errorf("unknown column %q in table %s", c, meta.Name)
		}
		ords = append(ords, ord)
	}
	if err := e.cat.AddIndex(&catalog.IndexMeta{Name: s.Name, Table: meta.Name, Columns: ords}); err != nil {
		return nil, err
	}
	tbl, ok := e.store.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("table %q has no storage", s.Table)
	}
	if err := tbl.AddIndex(strings.ToLower(s.Name), ords); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) runDropTable(s *ast.DropTable) (*Result, error) {
	// Refuse to drop a table that an audit expression still reads.
	for _, ae := range e.reg.All() {
		if strings.EqualFold(ae.Meta.SensitiveTable, s.Name) {
			return nil, fmt.Errorf("table %q is the sensitive table of audit expression %s", s.Name, ae.Meta.Name)
		}
	}
	if err := e.cat.DropTable(s.Name); err != nil {
		return nil, err
	}
	if err := e.store.Drop(s.Name); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) runCreateAuditExpression(s *ast.CreateAuditExpression) (*Result, error) {
	meta := &catalog.AuditExprMeta{
		Name:           s.Name,
		SensitiveTable: s.SensitiveTable,
		PartitionBy:    s.PartitionBy,
		// Render canonical single-statement DDL; the raw sql argument
		// may be a whole script.
		Definition: ast.RenderAuditExpression(s),
		Priority:   s.Priority,
	}
	if err := e.cat.AddAuditExpr(meta); err != nil {
		return nil, err
	}
	if _, err := e.reg.Compile(meta, s.Query); err != nil {
		_ = e.cat.DropAuditExpr(s.Name)
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) runDropAuditExpression(s *ast.DropAuditExpression) (*Result, error) {
	if trs := e.cat.TriggersFor(catalog.TriggerOnAccess, s.Name); len(trs) > 0 {
		return nil, fmt.Errorf("audit expression %q still has trigger %s", s.Name, trs[0].Name)
	}
	if err := e.cat.DropAuditExpr(s.Name); err != nil {
		return nil, err
	}
	e.reg.Drop(s.Name)
	return &Result{}, nil
}

func (e *Engine) runCreateTrigger(s *ast.CreateTrigger) (*Result, error) {
	meta := &catalog.TriggerMeta{Name: s.Name, Target: s.Target, Action: s.ActionSQL}
	switch s.Event {
	case ast.EventAccess:
		meta.Kind = catalog.TriggerOnAccess
		if _, ok := e.cat.AuditExpr(s.Target); !ok {
			return nil, fmt.Errorf("unknown audit expression %q", s.Target)
		}
	case ast.EventInsert:
		meta.Kind = catalog.TriggerAfterInsert
	case ast.EventUpdate:
		meta.Kind = catalog.TriggerAfterUpdate
	case ast.EventDelete:
		meta.Kind = catalog.TriggerAfterDelete
	}
	if meta.Kind != catalog.TriggerOnAccess {
		if _, ok := e.cat.Table(s.Target); !ok {
			return nil, fmt.Errorf("unknown table %q", s.Target)
		}
	}
	if err := e.cat.AddTrigger(meta); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.triggers[meta] = &compiledTrigger{body: s.Body, plans: triggerPlanKeys(s.Body, e.triggerSeq.Add(1))}
	e.mu.Unlock()
	return &Result{}, nil
}

func (e *Engine) runDropTrigger(s *ast.DropTrigger) (*Result, error) {
	meta, _ := e.cat.Trigger(s.Name)
	if err := e.cat.DropTrigger(s.Name); err != nil {
		return nil, err
	}
	e.mu.Lock()
	delete(e.triggers, meta)
	e.mu.Unlock()
	return &Result{}, nil
}

// runCreateView validates the defining query by building it once, then
// registers the view. View references expand inline at plan time, so
// queries through views are audited exactly like direct queries.
func (e *Engine) runCreateView(s *ast.CreateView) (*Result, error) {
	if _, err := plan.Build(e.planEnv(rootActionEnv()), s.Query); err != nil {
		return nil, fmt.Errorf("view %s: %w", s.Name, err)
	}
	meta := &catalog.ViewMeta{
		Name:       s.Name,
		Definition: renderDDL(s),
	}
	if err := e.cat.AddView(meta); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.views[strings.ToLower(s.Name)] = s.Query
	e.mu.Unlock()
	return &Result{}, nil
}

func (e *Engine) runDropView(s *ast.DropView) (*Result, error) {
	if err := e.cat.DropView(s.Name); err != nil {
		return nil, err
	}
	e.mu.Lock()
	delete(e.views, strings.ToLower(s.Name))
	e.mu.Unlock()
	return &Result{}, nil
}

func (e *Engine) runDropIndex(s *ast.DropIndex) (*Result, error) {
	idx, err := e.cat.DropIndex(s.Name)
	if err != nil {
		return nil, err
	}
	tbl, ok := e.store.Table(idx.Table)
	if !ok {
		return nil, fmt.Errorf("index %q: table %q has no storage", s.Name, idx.Table)
	}
	if err := tbl.DropIndex(strings.ToLower(s.Name)); err != nil {
		return nil, err
	}
	return &Result{}, nil
}
