package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"auditdb/internal/core"
	"auditdb/internal/engine"
	"auditdb/internal/value"
	"auditdb/internal/wire"
)

// resultResp and rowsToWire are the reference encoding: the statement
// reply as a wire.Response for encoding/json to render, which is how the
// server built every reply before appendResult. The append encoder must
// produce the same bytes.
func resultResp(r *engine.Result) *wire.Response {
	resp := &wire.Response{
		OK:           true,
		Columns:      r.Columns,
		Rows:         rowsToWire(r.Rows),
		RowsAffected: r.RowsAffected,
		QID:          r.QID,
	}
	if r.Accessed != nil {
		audited := make(map[string]int)
		for _, name := range r.Accessed.Expressions() {
			audited[name] = r.Accessed.Len(name)
		}
		if len(audited) > 0 {
			resp.Audited = audited
		}
	}
	return resp
}

func rowsToWire(rows []value.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		w := make([]any, len(r))
		for j, v := range r {
			switch v.Kind {
			case value.KindNull:
				w[j] = nil
			case value.KindBool:
				w[j] = v.Bool()
			case value.KindInt:
				w[j] = v.Int()
			case value.KindFloat:
				w[j] = v.Float()
			case value.KindString:
				w[j] = v.Str()
			default: // dates render as their SQL text form
				w[j] = v.String()
			}
		}
		out[i] = w
	}
	return out
}

// edgeValues are the scalars most likely to be encoded differently by
// two JSON encoders.
var edgeValues = []value.Value{
	value.Null,
	value.NewBool(true), value.NewBool(false),
	value.NewInt(0), value.NewInt(-1), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64),
	value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(3), value.NewFloat(-2.5),
	value.NewFloat(1e21), value.NewFloat(1e20), value.NewFloat(123456789012345678901234.0),
	value.NewFloat(1e-6), value.NewFloat(9.99e-7), value.NewFloat(1e-9), value.NewFloat(-1.5e-10),
	value.NewFloat(1e100), value.NewFloat(5e-324), value.NewFloat(math.MaxFloat64), value.NewFloat(0.1 + 0.2),
	value.NewString(""), value.NewString("plain"), value.NewString(`quo"te and back\slash`),
	value.NewString("ctl \x00\x01\x08\x0c\n\r\t\x1f\x7f end"), value.NewString("<script>&amp;</script>"),
	value.NewString("sep \u2028 and \u2029"), value.NewString("bad utf8 \xff\xfe\xc3("), value.NewString("trunc \xe2\x82"),
	value.NewString("héllo wörld 日本語 🎉"), value.NewString(strings.Repeat("x", 300)),
	value.DateFromYMD(2013, 4, 8), value.DateFromYMD(1969, 12, 31), value.DateFromYMD(9999, 12, 31), value.NewDate(0),
}

func randomValue(rng *rand.Rand) value.Value {
	switch rng.Intn(7) {
	case 0:
		return edgeValues[rng.Intn(len(edgeValues))]
	case 1:
		return value.NewInt(rng.Int63() - rng.Int63())
	case 2:
		return value.NewFloat(math.Float64frombits(rng.Uint64())) // may be NaN/Inf: see below
	case 3:
		return value.NewFloat(float64(rng.Intn(2000)-1000) / 8)
	case 4:
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return value.NewString(string(b))
	case 5:
		return value.NewDate(int64(rng.Intn(80000) - 20000))
	default:
		return value.NewString(string(rune(rng.Intn(0x3000))) + "x")
	}
}

// TestAppendResultMatchesJSONMarshal is the differential test for the
// line-JSON reply encoder: over edge-case and generated results its
// bytes equal json.Marshal of the reference response plus the newline —
// and where json.Marshal refuses (NaN, ±Inf) it refuses with the same
// error.
func TestAppendResultMatchesJSONMarshal(t *testing.T) {
	check := func(name string, r *engine.Result) {
		t.Helper()
		want, wantErr := json.Marshal(resultResp(r))
		got, gotErr := appendResult([]byte("prefix"), r)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s: errors differ: json.Marshal: %v, appendResult: %v", name, wantErr, gotErr)
			}
			return
		}
		if !bytes.Equal(got, append(append([]byte("prefix"), want...), '\n')) {
			t.Fatalf("%s:\n got %s\nwant %s", name, got[len("prefix"):], want)
		}
	}

	accessed := func(counts map[string]int) *core.Accessed {
		a := core.NewAccessed()
		for name, n := range counts {
			for i := 0; i < n; i++ {
				a.Record(name, value.NewInt(int64(i)))
			}
		}
		return a
	}

	check("empty", &engine.Result{})
	check("dml", &engine.Result{RowsAffected: 3, QID: 17})
	check("zero rows", &engine.Result{Columns: []string{"a", "b"}, Rows: []value.Row{}, QID: math.MaxUint64})
	check("empty row", &engine.Result{Columns: []string{}, Rows: []value.Row{{}}})
	check("edge row", &engine.Result{Columns: []string{"c"}, Rows: []value.Row{edgeValues}})
	for _, v := range edgeValues {
		check("edge "+v.String(), &engine.Result{Columns: []string{"c"}, Rows: []value.Row{{v}}})
	}
	check("columns to escape", &engine.Result{Columns: []string{`a"b`, "<c>", "d\u2028", "\xff"}, Rows: []value.Row{{value.NewInt(1)}}})
	check("accessed, none recorded", &engine.Result{Columns: []string{"c"}, Accessed: core.NewAccessed()})
	check("accessed, one with no ids", &engine.Result{Columns: []string{"c"}, Accessed: accessed(map[string]int{"Audit_Empty": 0})})
	// Keys come out in json.Marshal's map order: bytewise, so upper
	// case before lower, and escaped like any string.
	check("audited", &engine.Result{
		Columns: []string{"c"}, Rows: []value.Row{{value.NewInt(1)}}, QID: 9,
		Accessed: accessed(map[string]int{"b": 2, "a": 1, "B": 3, "audit_<x>": 4, "Z\u2029": 1, "é": 2, "aa": 5}),
	})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		check("unsupported float", &engine.Result{Columns: []string{"c"}, Rows: []value.Row{{value.NewInt(1), value.NewFloat(bad)}}})
	}

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		r := &engine.Result{RowsAffected: rng.Intn(3), QID: uint64(rng.Intn(3)) * rng.Uint64()}
		for c, n := 0, rng.Intn(5); c < n; c++ {
			r.Columns = append(r.Columns, randomValue(rng).String())
		}
		for j, n := 0, rng.Intn(4); j < n; j++ {
			row := make(value.Row, len(r.Columns))
			for c := range row {
				row[c] = randomValue(rng)
			}
			r.Rows = append(r.Rows, row)
		}
		if rng.Intn(2) == 0 {
			counts := map[string]int{}
			for j, n := 0, rng.Intn(4); j < n; j++ {
				counts[randomValue(rng).String()] = rng.Intn(3)
			}
			r.Accessed = accessed(counts)
		}
		check("generated", r)
	}
}
