package main

import "fmt"

// checkSets compares the sets of a -repeat run metric by metric: for
// every workload × end-to-end metric it prints each set's value, the
// largest relative gap between two sets, the metric's bound, and PASS
// when the gap is within the bound — UNRESOLVED otherwise, because a
// benchmark whose own repeats disagree by more than its bound cannot
// tell a regression from noise. Reports whether everything passed.
func checkSets(sets [][]*runReport) bool {
	if len(sets) < 2 {
		fmt.Println("check: needs -repeat 2 or more")
		return false
	}
	ok := true
	fmt.Println("== check: do the sets agree within the bounds?")
	for w := range sets[0] {
		for _, d := range endToEnd {
			vals := make([]float64, len(sets))
			gap := 0.0
			for s := range sets {
				vals[s] = sets[s][w].Metrics[d.name]
				for t := 0; t < s; t++ {
					if g := relGap(vals[s], vals[t]); g > gap {
						gap = g
					}
				}
			}
			verdict := "PASS"
			if gap > d.bound {
				verdict = "UNRESOLVED"
				ok = false
			}
			fmt.Printf("  %-14s %-16s sets=%-.6g gap=%.4f bound=%.2f %s\n", sets[0][w].Workload, d.name, vals, gap, d.bound, verdict)
		}
	}
	return ok
}
