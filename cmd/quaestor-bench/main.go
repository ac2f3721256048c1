// Command quaestor-bench regenerates the paper's evaluation: every table
// and figure of Section 6 (plus ablations of the coherence mechanism, the
// TTL estimator, the estimator family and the result representation) as
// formatted text series.
//
// Usage:
//
//	quaestor-bench -exp all            # everything, quick scale
//	quaestor-bench -exp fig8a -scale 1 # one experiment at paper scale
//
// Experiments: fig1 fig8a fig8b fig8c fig8d fig8e fig8f fig9 fig10 fig11
// fig12 table1 ablation-coherence ablation-ttl ablation-est ablation-rep
// all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"quaestor/internal/experiments"
)

// order lists the experiments in the sequence -exp all runs them.
var order = []string{
	"fig1", "fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f",
	"fig9", "fig10", "fig11", "fig12", "table1",
	"ablation-coherence", "ablation-ttl", "ablation-est", "ablation-rep",
}

func main() {
	known := strings.Join(order, ", ") + ", all"
	exp := flag.String("exp", "all", "comma-separated experiment ids: "+known)
	scale := flag.Float64("scale", 0.25, "experiment scale: 1.0 = paper parameters, smaller = shorter runs")
	flag.Parse()

	sc := experiments.Scale(*scale)
	runners := map[string]func() string{
		"fig1":               func() string { return experiments.Figure1() },
		"fig8a":              func() string { return experiments.Figure8a(sc) },
		"fig8b":              func() string { return experiments.Figure8b(sc) },
		"fig8c":              func() string { return experiments.Figure8c(sc) },
		"fig8d":              func() string { return experiments.Figure8d(sc) },
		"fig8e":              func() string { return experiments.Figure8e(sc) },
		"fig8f":              func() string { return experiments.Figure8f(sc) },
		"fig9":               func() string { return experiments.Figure9(sc) },
		"fig10":              func() string { return experiments.Figure10(sc) },
		"fig11":              func() string { return experiments.Figure11(sc) },
		"fig12":              func() string { return experiments.Figure12(sc) },
		"table1":             func() string { return experiments.Table1(sc) },
		"ablation-coherence": func() string { return experiments.AblationCoherence(sc) },
		"ablation-ttl":       func() string { return experiments.AblationTTL(sc) },
		"ablation-est":       func() string { return experiments.AblationEstimators(sc) },
		"ablation-rep":       func() string { return experiments.AblationRepresentation(sc) },
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = order
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, known)
			os.Exit(2)
		}
		start := time.Now()
		fmt.Print(run())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
