package main

import (
	"fmt"
	"io"
)

// verdict judges one metric of one workload across two result files.
// Bounded metrics compare medians against the metric's bound, and are
// unresolved when either side's own spread is wider than that bound;
// exact counts must be identical repetition by repetition.
func verdict(d metricDef, a, b *series) (string, string) {
	if a == nil || b == nil {
		return "n/a", "missing on one side"
	}
	x, y := a.numbers(), b.numbers()
	if len(x) == 0 || len(y) == 0 {
		return "n/a", "null on one side"
	}
	mx, my := median(x), median(y)
	detail := fmt.Sprintf("%.4f -> %.4f %s", mx, my, d.unit)
	if d.exact {
		// Repetition r ran with the same seed on both sides.
		if len(x) != len(y) {
			return "n/a", "different number of repetitions"
		}
		for i := range x {
			if x[i] != y[i] {
				return "differs", fmt.Sprintf("%v -> %v %s in repetition %d", x[i], y[i], d.unit, i)
			}
		}
		return "same", detail
	}
	if d.bound == 0 {
		return "info", detail
	}
	if mx == 0 {
		return "n/a", detail + " (zero base)"
	}
	worse := (my - mx) / mx
	if d.better == "higher" {
		worse = -worse
	}
	detail += fmt.Sprintf(" (%+.1f%%, bound %.0f%%)", 100*(my-mx)/mx, 100*d.bound)
	for _, side := range [][]float64{x, y} {
		if len(side) >= 2 {
			if s := spread(side); s > d.bound {
				return "unresolved", detail + fmt.Sprintf(", spread %.1f%%", 100*s)
			}
		}
	}
	switch {
	case worse > d.bound:
		return "worse", detail
	case worse < -d.bound:
		return "better", detail
	}
	return "same", detail
}

// compareFiles prints one row per metric and workload and returns the
// exit code: 1 if any end-to-end metric got worse, any exact count
// differs, or the two files were not measured under the same settings.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fatal(err)
	}
	code := 0
	if a.Meta.NProc != b.Meta.NProc || a.Meta.ChildGOMAXPROCS != b.Meta.ChildGOMAXPROCS ||
		a.Meta.Seed != b.Meta.Seed || a.Meta.Seconds != b.Meta.Seconds {
		fmt.Fprintf(w, "settings differ (nproc %d/%d, child GOMAXPROCS %d/%d, seed %d/%d, seconds %g/%g): rows are not comparable\n",
			a.Meta.NProc, b.Meta.NProc, a.Meta.ChildGOMAXPROCS, b.Meta.ChildGOMAXPROCS,
			a.Meta.Seed, b.Meta.Seed, a.Meta.Seconds, b.Meta.Seconds)
		code = 1
	}
	fmt.Fprintf(w, "%-10s %-36s %-11s %s\n", "workload", "metric", "verdict", "a -> b")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			v, detail := verdict(d, wa.EndToEnd[d.name], wb.EndToEnd[d.name])
			fmt.Fprintf(w, "%-10s %-36s %-11s %s\n", wl.name, d.name, v, detail)
			if v == "worse" {
				code = 1
			}
		}
		for _, d := range perLayer {
			v, detail := verdict(d, wa.PerLayer[d.name], wb.PerLayer[d.name])
			fmt.Fprintf(w, "%-10s %-36s %-11s %s\n", wl.name, d.name, v, detail)
			if v == "differs" {
				code = 1
			}
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%-10s %-36s %-11s %d -> %d\n", wl.name, "failed operations", "worse", wa.Failed, wb.Failed)
			code = 1
		}
	}
	return code
}
