package dag

import (
	"fmt"
	"strings"
)

// DOT renders the workflow in Graphviz format for debugging and the
// examples. Virtual normalization tasks are drawn as points.
func (w *Workflow) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", w.Name)
	for _, t := range w.tasks {
		if t.Virtual {
			fmt.Fprintf(&b, "  t%d [label=%q shape=point];\n", t.ID, t.Name)
		} else {
			fmt.Fprintf(&b, "  t%d [label=\"%s\\n%.0f MI\"];\n", t.ID, t.Name, t.Load)
		}
	}
	for _, e := range w.succ {
		fmt.Fprintf(&b, "  t%d -> t%d [label=\"%.0f Mb\"];\n", e.From, e.To, e.DataMb)
	}
	b.WriteString("}\n")
	return b.String()
}
