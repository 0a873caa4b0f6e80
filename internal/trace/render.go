package trace

import (
	"fmt"
	"strings"
	"time"
)

// Render formats the trace as indented text lines — one header line
// followed by the span tree — the lines sys.spans returns, one per
// row.
func (t *Trace) Render() []string {
	lines := make([]string, 0, len(t.Spans)+1)
	head := fmt.Sprintf("qid=%d user=%s elapsed=%s sampled=%t",
		t.QID, t.User, time.Duration(t.Elapsed), t.Sampled)
	if t.Err != "" {
		head += ` error="` + strings.ReplaceAll(t.Err, `"`, `\"`) + `"`
	}
	lines = append(lines, head)

	children := make(map[int][]int, len(t.Spans))
	roots := []int{}
	for i, sp := range t.Spans {
		if sp.Parent < 0 || sp.Parent >= len(t.Spans) || sp.Parent == i {
			roots = append(roots, i)
			continue
		}
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	var walk func(id, depth int)
	walk = func(id, depth int) {
		sp := t.Spans[id]
		var b strings.Builder
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(sp.Name)
		fmt.Fprintf(&b, " %s", time.Duration(sp.Dur))
		if sp.Start > 0 {
			fmt.Fprintf(&b, " @%s", time.Duration(sp.Start))
		}
		for _, a := range sp.Attrs {
			if a.Str != "" {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Str)
			} else {
				fmt.Fprintf(&b, " %s=%d", a.Key, a.Int)
			}
		}
		lines = append(lines, b.String())
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return lines
}
