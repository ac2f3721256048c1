package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tiny keeps experiment smoke tests fast: every figure function must run
// end-to-end and produce its table.
const tiny = Scale(0.01)

func checkTable(t *testing.T, out string, wantCols ...string) {
	t.Helper()
	if !strings.HasPrefix(out, "== ") {
		t.Fatalf("missing section header:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("table too short:\n%s", out)
	}
	for _, col := range wantCols {
		if !strings.Contains(out, col) {
			t.Errorf("output missing column %q:\n%s", col, out)
		}
	}
}

func TestFigure1(t *testing.T) {
	out := Figure1()
	checkTable(t, out, "Baqend", "Firebase", "Sydney")
	// Structural property: Baqend's Sydney load must beat every
	// non-caching provider's Sydney load.
	for _, r := range regions {
		base := pageLoad(providers[0], r)
		for _, p := range providers[1:] {
			if got := pageLoad(p, r); got <= base {
				t.Errorf("%s in %s (%.0fms) should be slower than Baqend (%.0fms)", p.name, r.name, got, base)
			}
		}
	}
}

func TestFigure8a(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulator reproduction")
	}
	checkTable(t, Figure8a(tiny), "quaestor", "uncached", "speedup")
}

func TestFigure8bAnd8c(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulator reproduction")
	}
	checkTable(t, Figure8b(tiny), "connections", "cdn-only")
	checkTable(t, Figure8c(tiny), "connections", "ebf-only")
}

func TestFigure8d(t *testing.T) {
	checkTable(t, Figure8d(tiny), "query-latency-ms", "read-latency-ms")
}

func TestFigure8e(t *testing.T) {
	checkTable(t, Figure8e(tiny), "client/queries", "cdn/reads")
}

func TestFigure8f(t *testing.T) {
	out := Figure8f(tiny)
	checkTable(t, out, "client hit", "CDN hit", "miss")
}

func TestFigure9(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulator reproduction")
	}
	checkTable(t, Figure9(tiny), "update-rate", "100k obj/1k queries/1s")
}

func TestFigure10(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulator reproduction")
	}
	checkTable(t, Figure10(tiny), "refresh-s", "100cl/queries")
}

func TestFigure11(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	checkTable(t, Figure11(tiny), "estimated-ttl-s", "true-ttl-s")
}

func TestFigure12(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	checkTable(t, Figure12(tiny), "matching-nodes", "p99<=15ms")
}

func TestTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	out := Table1(tiny)
	checkTable(t, out, "documents", "queries")
	if strings.Contains(out, "10000000") {
		t.Error("the 10M row must be reserved for FullScale runs")
	}
}

func TestAblations(t *testing.T) {
	checkTable(t, AblationCoherence(tiny), "EBF coherence", "static TTLs")
	checkTable(t, AblationTTL(tiny), "quantile", "alpha")

	// Section 4.2's trade-off: an object list assembles without fetching
	// its members but is invalidated by every member change; an id list
	// is invalidated by membership changes only, and fetches its members.
	out := AblationRepresentation(tiny)
	checkTable(t, out, "representation", "member-fetches")
	rows := map[string][]string{}
	for _, row := range tableRows(out) {
		rows[row[0]] = row
	}
	objects, ids := rows["object-list"], rows["id-list"]
	if len(objects) != 5 || len(ids) != 5 {
		t.Fatalf("missing object-list or id-list row:\n%s", out)
	}
	const invalidations, fetches = 3, 4
	if objects[fetches] != "0" {
		t.Errorf("object-list fetched %s members, want 0:\n%s", objects[fetches], out)
	}
	idFetches, _ := strconv.Atoi(ids[fetches])
	idInv, _ := strconv.Atoi(ids[invalidations])
	objInv, _ := strconv.Atoi(objects[invalidations])
	if idFetches <= 0 {
		t.Errorf("id-list fetched %s members, want > 0:\n%s", ids[fetches], out)
	}
	if idInv >= objInv {
		t.Errorf("id-list invalidations %d, want fewer than object-list's %d:\n%s", idInv, objInv, out)
	}
}

func TestMatchingGridShapes(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 8: {2, 4}, 16: {4, 4}}
	for nodes, want := range cases {
		rows, cols := matchingGrid(nodes)
		if rows*cols != nodes {
			t.Errorf("grid for %d nodes = %dx%d", nodes, rows, cols)
		}
		if rows != want[0] || cols != want[1] {
			t.Errorf("grid for %d = %dx%d, want %dx%d", nodes, rows, cols, want[0], want[1])
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	if QuickScale.count(1000) != 100 {
		t.Errorf("count = %d", QuickScale.count(1000))
	}
	if Scale(0.0001).count(100) != 1 {
		t.Error("count must stay positive")
	}
	if got := Scale(0.001).duration(1000e9); got.Seconds() != 2 {
		t.Errorf("duration floor = %v", got)
	}
}

// TestAblationTTLAxesMove: each knob the TTL ablation sweeps must move what
// its rows print. Two rows that differ in one knob only may not print the
// same measurements. The scale is the smallest whose runs outlast a filter
// refresh, so that queries are revalidated and their EWMA is consulted.
func TestAblationTTLAxesMove(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulator reproduction")
	}
	rows := tableRows(AblationTTL(Scale(0.05)))
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 3 quantiles × 2 alphas", len(rows))
	}
	for i, a := range rows {
		for _, b := range rows[i+1:] {
			if (a[0] == b[0]) == (a[1] == b[1]) {
				continue // both knobs apart
			}
			if slices.Equal(a[2:], b[2:]) {
				t.Errorf("quantile %s α %s and quantile %s α %s print the same measurements %v", a[0], a[1], b[0], b[1], a[2:])
			}
		}
	}
}

// tableRows returns the data rows of a section's table, split into cells.
func tableRows(out string) [][]string {
	var rows [][]string
	body := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "--"):
			body = true
		case body && strings.TrimSpace(line) == "":
			return rows
		case body:
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows
}
