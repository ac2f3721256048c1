package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// compareFiles prints one row per workload × bounded metric: both medians,
// the ratio b/a with a as its base, the metric's bound and a verdict.
//
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better by more than the spread of a's repeats
//	within      neither
//	unresolved  the spread between a's repeats exceeds the bound, so the
//	            runs cannot resolve a change of that size
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	a.summarize()
	b.summarize()

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (base, n)\tb (n)\tb/a\ta spread\tbound\tverdict\n")
	for _, w := range workloads {
		sa, sb := a.Summary[w.Name], b.Summary[w.Name]
		for i := range metricDefs {
			d := &metricDefs[i]
			if d.Bound == 0 && d.AbsBound == 0 {
				continue
			}
			ma, okA := sa[d.Name]
			mb, okB := sb[d.Name]
			if !okA || !okB {
				continue
			}
			verdict, spreadA, bound := judge(d, ma, mb)
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (n=%d)\t%.6g (n=%d)\t%.4f\t%s\t%s\t%s\n",
				w.Name, d.Name, ma.Median, ma.Unit, ma.N, mb.Median, mb.N, ratio(mb.Median, ma.Median), spreadA, bound, verdict)
		}
	}
	return tw.Flush()
}

// judge applies a metric's bound to two summaries. worsening is how far b
// is on the wrong side of a: relative to a's median for a relative bound,
// absolute for an absolute one.
func judge(d *metricDef, a, b metricSummary) (verdict, spreadA, bound string) {
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	var worsening, noise, limit float64
	if d.AbsBound > 0 {
		worsening, noise, limit = sign*(b.Median-a.Median), a.Q3-a.Q1, d.AbsBound
		spreadA, bound = fmt.Sprintf("%.6g", noise), fmt.Sprintf("+%g abs", limit)
	} else {
		base := math.Abs(a.Median)
		worsening, noise, limit = ratio(sign*(b.Median-a.Median), base), ratio(a.Q3-a.Q1, base), d.Bound
		spreadA, bound = fmt.Sprintf("%.1f%%", 100*noise), fmt.Sprintf("%.0f%%", 100*limit)
	}
	switch {
	case noise > limit:
		verdict = "unresolved"
	case worsening > limit:
		verdict = "worse"
	case -worsening > noise && worsening < 0:
		verdict = "better"
	default:
		verdict = "within"
	}
	return verdict, spreadA, bound
}
