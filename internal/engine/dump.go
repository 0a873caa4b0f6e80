package engine

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"auditdb/internal/ast"
	"auditdb/internal/catalog"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

// dumpLocked serializes the whole database — schema, data, indexes,
// audit expressions and triggers — as a SQL script this engine can
// replay. Loading a dump with ExecScript (or Restore) reproduces the
// database, including compiled audit state, because the auditing DDL
// is emitted after the data, so materialized ID sets are rebuilt from
// the loaded rows.
//
// The caller must hold dmlMu (Engine.Dump in durability.go does; the
// WAL checkpoint path already holds it). Without the writer lock a
// dump could interleave with concurrent DML and serialize a state no
// transaction ever produced.
func (e *Engine) dumpLocked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "-- auditdb dump"); err != nil {
		return err
	}

	// 1. Tables and rows.
	for _, meta := range e.cat.Tables() {
		if err := dumpTable(bw, e, meta); err != nil {
			return err
		}
	}
	// 2. Secondary indexes.
	for _, idx := range e.cat.Indexes() {
		meta, ok := e.cat.Table(idx.Table)
		if !ok {
			continue
		}
		cols := make([]string, len(idx.Columns))
		for i, ord := range idx.Columns {
			cols[i] = ast.Ident(meta.Columns[ord].Name)
		}
		if _, err := fmt.Fprintf(bw, "CREATE INDEX %s ON %s (%s);\n",
			ast.Ident(idx.Name), ast.Ident(meta.Name), strings.Join(cols, ", ")); err != nil {
			return err
		}
	}
	// 3. Views (canonical DDL preserved in the catalog).
	for _, v := range e.cat.Views() {
		if _, err := fmt.Fprintf(bw, "%s;\n", strings.TrimRight(strings.TrimSpace(v.Definition), ";")); err != nil {
			return err
		}
	}
	// 4. Audit expressions (original DDL is preserved in the catalog).
	for _, ae := range e.cat.AuditExprs() {
		if _, err := fmt.Fprintf(bw, "%s;\n", strings.TrimRight(strings.TrimSpace(ae.Definition), ";")); err != nil {
			return err
		}
	}
	// 5. Triggers, rebuilt from their stored action text.
	for _, tr := range e.cat.Triggers() {
		var head string
		name, target := ast.Ident(tr.Name), ast.Ident(tr.Target)
		switch tr.Kind {
		case catalog.TriggerOnAccess:
			head = fmt.Sprintf("CREATE TRIGGER %s ON ACCESS TO %s AS", name, target)
		case catalog.TriggerAfterInsert:
			head = fmt.Sprintf("CREATE TRIGGER %s ON %s AFTER INSERT AS", name, target)
		case catalog.TriggerAfterUpdate:
			head = fmt.Sprintf("CREATE TRIGGER %s ON %s AFTER UPDATE AS", name, target)
		case catalog.TriggerAfterDelete:
			head = fmt.Sprintf("CREATE TRIGGER %s ON %s AFTER DELETE AS", name, target)
		}
		if _, err := fmt.Fprintf(bw, "%s %s;\n", head, tr.Action); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// dumpBatch bounds multi-row INSERT statements.
const dumpBatch = 500

func dumpTable(w *bufio.Writer, e *Engine, meta *catalog.TableMeta) error {
	var cols []string
	pkInline := len(meta.PrimaryKey) == 1
	for i, c := range meta.Columns {
		def := fmt.Sprintf("%s %s", ast.Ident(c.Name), c.Type)
		if pkInline && meta.PrimaryKey[0] == i {
			def += " PRIMARY KEY"
		}
		cols = append(cols, def)
	}
	if len(meta.PrimaryKey) > 1 {
		names := make([]string, len(meta.PrimaryKey))
		for i, ord := range meta.PrimaryKey {
			names[i] = ast.Ident(meta.Columns[ord].Name)
		}
		cols = append(cols, "PRIMARY KEY ("+strings.Join(names, ", ")+")")
	}
	if _, err := fmt.Fprintf(w, "CREATE TABLE %s (%s);\n", ast.Ident(meta.Name), strings.Join(cols, ", ")); err != nil {
		return err
	}

	tbl, ok := e.store.Table(meta.Name)
	if !ok {
		return fmt.Errorf("dump: table %q has no storage", meta.Name)
	}
	// Stream the heap one INSERT batch at a time instead of
	// materializing a full copy of the table: memory stays bounded by
	// dumpBatch regardless of table size. dmlMu (held by the caller)
	// keeps the data stable across chunk boundaries.
	buf := make([]value.Row, dumpBatch)
	ids := make([]storage.RowID, dumpBatch)
	for pos := 0; pos >= 0; {
		var n int
		n, pos = tbl.ScanChunk(pos, buf, ids)
		if n == 0 {
			continue
		}
		if err := dumpRows(w, meta.Name, buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

func dumpRows(w *bufio.Writer, table string, rows []value.Row) error {
	for start := 0; start < len(rows); start += dumpBatch {
		end := start + dumpBatch
		if end > len(rows) {
			end = len(rows)
		}
		if _, err := fmt.Fprintf(w, "INSERT INTO %s VALUES\n", ast.Ident(table)); err != nil {
			return err
		}
		for i, row := range rows[start:end] {
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = v.SQL()
			}
			sep := ","
			if i == end-start-1 {
				sep = ";"
			}
			if _, err := fmt.Fprintf(w, "\t(%s)%s\n", strings.Join(parts, ", "), sep); err != nil {
				return err
			}
		}
	}
	return nil
}
