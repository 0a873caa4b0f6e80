package plan

import (
	"fmt"
	"strings"

	"auditdb/internal/value"
)

// Func applies a scalar SQL function. The dispatch table below defines
// the supported functions; aggregates are handled by the Aggregate plan
// node, never by Func.
type Func struct {
	Name string // uppercase
	Args []Expr
}

// Eval implements Expr.
func (e *Func) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	fn, ok := scalarFuncs[e.Name]
	if !ok {
		return value.Null, fmt.Errorf("unknown function %s", e.Name)
	}
	args := make([]value.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := a.Eval(ctx, row)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	return fn(ctx, args)
}

func (e *Func) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// IsScalarFunc reports whether name is a known scalar function.
func IsScalarFunc(name string) bool {
	_, ok := scalarFuncs[strings.ToUpper(name)]
	return ok
}

// IsAggregateFunc reports whether name is an aggregate function.
func IsAggregateFunc(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

type scalarFn func(ctx *EvalCtx, args []value.Value) (value.Value, error)

var scalarFuncs = map[string]scalarFn{
	"YEAR": func(_ *EvalCtx, args []value.Value) (value.Value, error) {
		if err := arity("YEAR", args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		d, err := value.Coerce(args[0], value.KindDate)
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(d.Year())), nil
	},
	"MONTH": func(_ *EvalCtx, args []value.Value) (value.Value, error) {
		if err := arity("MONTH", args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		d, err := value.Coerce(args[0], value.KindDate)
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(d.Time().Month())), nil
	},
	"DAY": func(_ *EvalCtx, args []value.Value) (value.Value, error) {
		if err := arity("DAY", args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		d, err := value.Coerce(args[0], value.KindDate)
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(d.Time().Day())), nil
	},
	"ABS": func(_ *EvalCtx, args []value.Value) (value.Value, error) {
		if err := arity("ABS", args, 1); err != nil {
			return value.Null, err
		}
		v := args[0]
		switch v.Kind {
		case value.KindNull:
			return value.Null, nil
		case value.KindInt:
			if v.I < 0 {
				return value.NewInt(-v.I), nil
			}
			return v, nil
		case value.KindFloat:
			if v.F < 0 {
				return value.NewFloat(-v.F), nil
			}
			return v, nil
		default:
			return value.Null, fmt.Errorf("ABS: non-numeric argument %s", v.Kind)
		}
	},
	"COALESCE": func(_ *EvalCtx, args []value.Value) (value.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null, nil
	},
	"UPPER": func(_ *EvalCtx, args []value.Value) (value.Value, error) {
		if err := arity("UPPER", args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		return value.NewString(strings.ToUpper(args[0].String())), nil
	},
	"LOWER": func(_ *EvalCtx, args []value.Value) (value.Value, error) {
		if err := arity("LOWER", args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		return value.NewString(strings.ToLower(args[0].String())), nil
	},
	"LENGTH": func(_ *EvalCtx, args []value.Value) (value.Value, error) {
		if err := arity("LENGTH", args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		return value.NewInt(int64(len(args[0].String()))), nil
	},
	// SUBSTRING(s, start, len) with 1-based start, SQL style.
	"SUBSTRING": func(_ *EvalCtx, args []value.Value) (value.Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return value.Null, fmt.Errorf("SUBSTRING expects 2 or 3 arguments, got %d", len(args))
		}
		if args[0].IsNull() || args[1].IsNull() {
			return value.Null, nil
		}
		s := args[0].String()
		start := int(args[1].Int()) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return value.NewString(""), nil
		}
		end := len(s)
		if len(args) == 3 {
			if args[2].IsNull() {
				return value.Null, nil
			}
			if n := int(args[2].Int()); start+n < end {
				end = start + n
			}
		}
		if end < start {
			end = start
		}
		return value.NewString(s[start:end]), nil
	},
	"NOW": func(ctx *EvalCtx, args []value.Value) (value.Value, error) {
		if err := arity("NOW", args, 0); err != nil {
			return value.Null, err
		}
		// The text depends on the second alone: a context's runs within
		// one second format it once.
		if sec := ctx.Session.Now.Unix(); ctx.nowText == "" || ctx.nowSec != sec {
			ctx.nowSec, ctx.nowText = sec, ctx.Session.Now.UTC().Format("2006-01-02 15:04:05")
		}
		return value.NewString(ctx.nowText), nil
	},
	"USERID": func(ctx *EvalCtx, args []value.Value) (value.Value, error) {
		if err := arity("USERID", args, 0); err != nil {
			return value.Null, err
		}
		return value.NewString(ctx.Session.User), nil
	},
	"SQLTEXT": func(ctx *EvalCtx, args []value.Value) (value.Value, error) {
		if err := arity("SQLTEXT", args, 0); err != nil {
			return value.Null, err
		}
		return value.NewString(ctx.Session.SQL), nil
	},
}

func arity(name string, args []value.Value, want int) error {
	if len(args) != want {
		return fmt.Errorf("%s expects %d arguments, got %d", name, want, len(args))
	}
	return nil
}
