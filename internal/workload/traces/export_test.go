package traces

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteSWF re-emits the trace as SWF records (the round-trip partner of
// ParseSWF: parse(WriteSWF(t)) reproduces t's jobs exactly). Fields the
// simulator does not model are written as the -1 sentinel.
func (t *Trace) WriteSWF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; %s — re-emitted by repro/internal/workload/traces (%d jobs, %d skipped at parse)\n",
		t.Name, len(t.Jobs), t.Skipped)
	fmt.Fprintln(bw, "; fields: job submit wait runtime procs cpu mem reqprocs reqtime reqmem status user group exe queue partition prejob think")
	for _, j := range t.Jobs {
		fmt.Fprintf(bw, "%d %s -1 %s %d -1 -1 %d -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
			j.ID, formatSeconds(j.Submit), formatSeconds(j.Runtime), j.Procs, j.Procs)
	}
	return bw.Flush()
}

// formatSeconds renders a float without trailing zeros so integral trace
// times survive the round trip byte-for-byte.
func formatSeconds(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
